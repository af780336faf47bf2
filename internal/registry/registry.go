// Package registry is a content-addressed, versioned store for trained
// model artifacts. It gives the serving stack the offline-train /
// online-serve split every production planner needs: `mamorl train`
// populates the store, and tmplard warm-starts from it instead of paying
// the Section 4.2 training cost on every restart.
//
// Layout on disk (everything written atomically, write-then-rename):
//
//	<dir>/manifests/<id>.json   one Manifest per artifact
//	<dir>/blobs/<sha256>.gob    gob weight payloads, named by content hash
//
// An artifact's ID is a content address derived from its manifest fields
// (kind, grid identity, seed, params, weight hash), so re-registering an
// identical training run is idempotent. Every load path re-verifies the
// hashes, so a corrupted or tampered file surfaces as an error instead of
// a silently wrong model.
package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Kind discriminates the model family of an artifact. The store accepts
// any non-empty kind; the serving stack registers and loads only
// KindLinreg.
type Kind string

// KindLinreg is the linear Approx-MaMoRL model pair, the model TMPLAR
// serves.
const KindLinreg Kind = "linreg"

// TrainParams records the training-pipeline shape an artifact came from
// (Section 4.2's hyperparameters), for provenance and cache matching.
type TrainParams struct {
	GridNodes      int `json:"grid_nodes,omitempty"`
	GridEdges      int `json:"grid_edges,omitempty"`
	Assets         int `json:"assets,omitempty"`
	MaxSpeed       int `json:"max_speed,omitempty"`
	CommEvery      int `json:"comm_every,omitempty"`
	SampleEpisodes int `json:"sample_episodes,omitempty"`
}

// Manifest describes one stored artifact.
type Manifest struct {
	// ID is the artifact's content address (hex, 16 chars), derived from
	// the identity fields below — never assigned by the caller.
	ID   string `json:"id"`
	Kind Kind   `json:"kind"`
	// Grid names the training grid; GridFingerprint is its SHA-256 content
	// hash (grid.Fingerprint), pinning the exact topology and geometry.
	Grid            string      `json:"grid"`
	GridFingerprint string      `json:"grid_fingerprint"`
	Seed            int64       `json:"seed"`
	Params          TrainParams `json:"params"`
	CreatedAt       time.Time   `json:"created_at"`
	// WeightsSHA256 addresses the weight blob; WeightsBytes is its size.
	WeightsSHA256 string `json:"weights_sha256"`
	WeightsBytes  int64  `json:"weights_bytes"`
}

// contentID derives the artifact ID from the identity fields. CreatedAt is
// deliberately excluded so re-registering an identical training run maps to
// the same artifact.
func (m Manifest) contentID() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n%s\n%d\n%s\n", m.Kind, m.Grid, m.GridFingerprint, m.Seed, m.WeightsSHA256)
	pj, _ := json.Marshal(m.Params)
	h.Write(pj)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// ErrNotFound reports a missing artifact or an empty ResolveMatch.
var ErrNotFound = errors.New("registry: artifact not found")

// ErrCorrupt reports an artifact whose stored bytes no longer match their
// recorded hashes.
var ErrCorrupt = errors.New("registry: corrupt artifact")

// Store is a directory-backed artifact registry. Methods are safe for
// concurrent use by multiple processes: all writes are atomic renames and
// all reads re-verify content hashes.
type Store struct {
	dir string
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{manifestDir, blobDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("registry: open %s: %w", dir, err)
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

const (
	manifestDir = "manifests"
	blobDir     = "blobs"
)

func (s *Store) manifestPath(id string) string {
	return filepath.Join(s.dir, manifestDir, id+".json")
}

func (s *Store) blobPath(sha string) string {
	return filepath.Join(s.dir, blobDir, sha+".gob")
}

// writeAtomic writes data to path via a temp file and rename, so a crashed
// or concurrent writer can never leave a half-written artifact visible.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// Put stores a weight blob under the manifest's identity, filling in ID,
// CreatedAt, WeightsSHA256 and WeightsBytes. Re-putting an identical
// artifact is idempotent (the existing manifest, with its original
// CreatedAt, is returned).
func (s *Store) Put(m Manifest, blob []byte) (Manifest, error) {
	if m.Kind == "" || m.Grid == "" || m.GridFingerprint == "" {
		return Manifest{}, fmt.Errorf("registry: put: manifest needs kind, grid and grid_fingerprint")
	}
	if len(blob) == 0 {
		return Manifest{}, fmt.Errorf("registry: put: empty weight blob")
	}
	sum := sha256.Sum256(blob)
	m.WeightsSHA256 = hex.EncodeToString(sum[:])
	m.WeightsBytes = int64(len(blob))
	m.ID = m.contentID()

	// Idempotency: an identical artifact already registered wins — unless
	// its blob no longer verifies, in which case re-writing the payload
	// heals the artifact in place.
	if existing, err := s.Get(m.ID); err == nil {
		if _, berr := s.Blob(existing); berr == nil {
			return existing, nil
		}
		if err := writeAtomic(s.blobPath(m.WeightsSHA256), blob); err != nil {
			return Manifest{}, fmt.Errorf("registry: heal blob: %w", err)
		}
		return existing, nil
	}
	if m.CreatedAt.IsZero() {
		m.CreatedAt = time.Now().UTC()
	}
	if err := writeAtomic(s.blobPath(m.WeightsSHA256), blob); err != nil {
		return Manifest{}, fmt.Errorf("registry: put blob: %w", err)
	}
	mj, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return Manifest{}, err
	}
	if err := writeAtomic(s.manifestPath(m.ID), append(mj, '\n')); err != nil {
		return Manifest{}, fmt.Errorf("registry: put manifest: %w", err)
	}
	return m, nil
}

// Get loads one manifest by ID, verifying its content address.
func (s *Store) Get(id string) (Manifest, error) {
	data, err := os.ReadFile(s.manifestPath(id))
	if errors.Is(err, os.ErrNotExist) {
		return Manifest{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("%w: manifest %s: %v", ErrCorrupt, id, err)
	}
	if m.Kind == "" || m.Grid == "" || m.WeightsSHA256 == "" {
		return Manifest{}, fmt.Errorf("%w: manifest %s: missing fields", ErrCorrupt, id)
	}
	if m.ID != id || m.contentID() != id {
		return Manifest{}, fmt.Errorf("%w: manifest %s: content address mismatch", ErrCorrupt, id)
	}
	return m, nil
}

// Blob loads and verifies an artifact's weight payload: the bytes must
// hash back to the manifest's recorded SHA-256.
func (s *Store) Blob(m Manifest) ([]byte, error) {
	data, err := os.ReadFile(s.blobPath(m.WeightsSHA256))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: blob %s", ErrNotFound, m.WeightsSHA256)
	}
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:]) != m.WeightsSHA256 {
		return nil, fmt.Errorf("%w: blob %s: checksum mismatch", ErrCorrupt, m.WeightsSHA256)
	}
	if int64(len(data)) != m.WeightsBytes {
		return nil, fmt.Errorf("%w: blob %s: %d bytes, manifest says %d",
			ErrCorrupt, m.WeightsSHA256, len(data), m.WeightsBytes)
	}
	return data, nil
}

// List returns every readable manifest, oldest first (CreatedAt, then ID).
// Corrupt manifests are skipped — a registry with one damaged artifact must
// still serve the healthy ones.
func (s *Store) List() ([]Manifest, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, manifestDir))
	if err != nil {
		return nil, err
	}
	var out []Manifest
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		m, err := s.Get(strings.TrimSuffix(name, ".json"))
		if err != nil {
			continue
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].CreatedAt.Equal(out[j].CreatedAt) {
			return out[i].CreatedAt.Before(out[j].CreatedAt)
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// ResolveMatch returns the latest artifact (by CreatedAt) satisfying
// match, or ErrNotFound.
func (s *Store) ResolveMatch(match func(Manifest) bool) (Manifest, error) {
	all, err := s.List()
	if err != nil {
		return Manifest{}, err
	}
	for i := len(all) - 1; i >= 0; i-- {
		if match(all[i]) {
			return all[i], nil
		}
	}
	return Manifest{}, ErrNotFound
}
