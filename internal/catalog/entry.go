package catalog

import (
	"context"
	"time"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/features"
	"github.com/routeplanning/mamorl/internal/grid"
)

// Entry is a resident (grid, model) pair. Obtained from Acquire; callers
// must call Release exactly once.
type Entry struct {
	key      Key
	grid     *grid.Grid
	model    approx.Model
	ext      features.Extractor
	source   string
	artifact string
	loadedAt time.Time

	cat *Catalog

	// Guarded by cat.mu.
	refs    int
	hits    uint64
	evicted bool
	closed  bool
}

// Key returns the entry's cache key.
func (e *Entry) Key() Key { return e.key }

// Grid returns the grid this entry serves.
func (e *Entry) Grid() *grid.Grid { return e.grid }

// Model returns the inference model planners for this entry are built on.
func (e *Entry) Model() approx.Model { return e.model }

// Ext returns the feature extractor the model was trained with.
func (e *Entry) Ext() features.Extractor { return e.ext }

// Source reports model provenance ("trained" or "registry").
func (e *Entry) Source() string { return e.source }

// ArtifactID reports the registry content address, "" if unregistered.
func (e *Entry) ArtifactID() string { return e.artifact }

// Release drops the caller's reference. When the last reference to an
// already-evicted entry is dropped, the entry closes and Do rejects further
// work.
func (e *Entry) Release() {
	e.cat.mu.Lock()
	e.cat.releaseLocked(e)
	e.cat.mu.Unlock()
}

// Closed reports whether the entry has shut down. Only an evicted entry
// with no outstanding references closes.
func (e *Entry) Closed() bool {
	e.cat.mu.Lock()
	defer e.cat.mu.Unlock()
	return e.closed
}

// closeLocked marks the entry dead. Called with cat.mu held, only when
// refs == 0.
func (e *Entry) closeLocked() {
	e.closed = true
}

// Do runs fn on the caller's goroutine with a planner built for this
// request, approx.NewPlanner(model, ext, seed). The planner belongs to fn
// alone, so concurrent Do calls on one entry run in parallel and a panic in
// fn unwinds into the caller. Do returns ErrClosed for a closed entry and
// ctx.Err() for a done context without running fn.
func (e *Entry) Do(ctx context.Context, seed int64, fn func(ctx context.Context, p *approx.Planner) error) error {
	if e.Closed() {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return fn(ctx, approx.NewPlanner(e.model, e.ext, seed))
}
