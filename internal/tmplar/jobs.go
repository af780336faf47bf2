package tmplar

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"github.com/routeplanning/mamorl/internal/jobs"
	"github.com/routeplanning/mamorl/internal/obs"
	"github.com/routeplanning/mamorl/internal/trace"
)

// Async planning API: submit a plan as a job, poll or stream its status,
// cancel it. The job plane decouples slow missions from HTTP connections —
// a 30-second plan no longer occupies a connection, and the bounded queue
// gives the service real backpressure (429 + Retry-After) instead of
// unbounded goroutine pileup.

// JobPlanRequest is the POST /api/jobs/plan body: a plan request plus an
// optional idempotency key (the Idempotency-Key header is honored when the
// field is empty).
type JobPlanRequest struct {
	PlanRequest
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// jobsUnavailable answers for hand-built servers without a queue.
func (s *Server) jobsUnavailable(w http.ResponseWriter) bool {
	if s.jobs == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{"job queue not available"})
		return true
	}
	return false
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.jobsUnavailable(w) {
		return
	}
	var req JobPlanRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	// The synchronous plane's admission runs at submit, so a job that
	// cannot plan is refused with the status and body POST /api/plan
	// answers and never takes queue capacity. The queued job holds its
	// planner, built with a fresh budget.
	plan := req.PlanRequest
	p, err := s.prepare(r.Context(), plan)
	if err != nil {
		writeError(w, err)
		return
	}
	key := req.IdempotencyKey
	if key == "" {
		key = r.Header.Get("Idempotency-Key")
	}
	var traceID trace.TraceID
	if sp := trace.SpanFromContext(r.Context()); sp != nil {
		traceID = sp.TraceID
	}
	// Fairness lane: an explicit key namespace (prefix before '/') wins;
	// otherwise jobs queue per tenant, so one grid's burst cannot starve
	// another grid's jobs.
	namespace := ""
	if jobs.Namespace(key) == "" {
		namespace = "grid:" + req.Grid
	}
	view, err := s.jobs.Submit(jobs.Request{
		Kind:           "plan",
		IdempotencyKey: key,
		Namespace:      namespace,
		Timeout:        s.jobDeadlineFor(plan),
		TraceID:        traceID,
		Fn: func(ctx context.Context) (any, error) {
			sp := planSpan(ctx, plan)
			defer sp.End()
			resp, err := s.run(ctx, sp, p)
			if err != nil {
				return nil, err
			}
			return resp, nil
		},
	})
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		retry := int(s.jobs.RetryAfter().Seconds() + 0.5)
		if retry < 1 {
			retry = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{
			fmt.Sprintf("job queue full; retry after %ds", retry)})
		return
	case errors.Is(err, jobs.ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{"server draining; not accepting jobs"})
		return
	case err != nil:
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/api/jobs/"+view.ID)
	writeJSON(w, http.StatusAccepted, view)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if s.jobsUnavailable(w) {
		return
	}
	view, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{"unknown job"})
		return
	}
	// A job that failed over budget answers 429 like the synchronous
	// plane, still carrying the job view (its error string names the
	// resource) so clients see one consistent admission-control signal.
	if view.State == jobs.StateFailed && statusOf(s.jobs.Err(view.ID)) == http.StatusTooManyRequests {
		writeJSON(w, http.StatusTooManyRequests, view)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	if s.jobsUnavailable(w) {
		return
	}
	view, ok := s.jobs.Cancel(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{"unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleJobEvents streams a job's state transitions as SSE, one
//
//	event: state
//	data: {job view JSON}
//
// frame per transition starting with the current state, and closes after
// the terminal one. The shared obs SSE writer supplies the anti-buffering
// headers, the flush-per-frame discipline, and keep-alive comments while
// the job sits queued or running without transitions.
//
// The watch channel is best-effort: the queue drops frames rather than
// block a worker on a slow reader, and closes the channel at the terminal
// transition. A dropped-then-closed terminal frame must not be lost — on
// close this handler re-reads the job's final view and writes it, so
// every client sees the terminal state exactly where the stream ends.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	if s.jobsUnavailable(w) {
		return
	}
	id := r.PathValue("id")
	cur, ch, cancel, ok := s.jobs.Watch(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{"unknown job"})
		return
	}
	defer cancel()
	st, ok := obs.NewSSEStream(w)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorResponse{"streaming unsupported"})
		return
	}
	if s.opts.SSEKeepAlive >= 0 {
		stop := st.KeepAlive(r.Context(), s.opts.SSEKeepAlive)
		defer stop()
	}

	write := func(v jobs.View) bool {
		b, err := json.Marshal(v)
		if err != nil {
			return false
		}
		return st.WriteEvent("state", "", b)
	}
	last := cur
	if !write(cur) || cur.State.Terminal() {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case v, ok := <-ch:
			if !ok {
				// Channel closed: the job settled. If the terminal frame
				// was dropped (the last view we wrote is non-terminal),
				// fetch and write the final state before ending the
				// stream. Eviction can outrace us; then there is nothing
				// left to report.
				if !last.State.Terminal() {
					if v, ok := s.jobs.Get(id); ok && v.State.Terminal() {
						write(v)
					}
				}
				return
			}
			last = v
			if !write(v) || v.State.Terminal() {
				return
			}
		}
	}
}
