package server

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	geosir "repro"
)

// Live-ingestion serving: when the installed engine supports mutations
// (a ShardedEngine with EnableIngest done), the server exposes
//
//	POST   /v1/images        {"id": 7, "shapes": [{...}, ...]}
//	DELETE /v1/images/{id}
//	POST   /admin/compact    (synchronous fold; 409 when one is running)
//
// Writes ride the same admission control and per-request deadline as
// queries — an overloaded server sheds writes exactly like reads. Every
// acknowledged write bumps the engine's mutation epoch, which is folded
// into the query-cache fingerprint (see cacheEpoch), so a cached result
// can never outlive the write that invalidated it.

// IngestOptions makes directory snapshots writable: when Config.Ingest
// is non-nil, every sharded snapshot directory the server installs gets
// live ingestion enabled on it (EnableIngest with these knobs).
type IngestOptions struct {
	// CompactThreshold is the delta shape count that triggers background
	// compaction (0 = geosir.DefaultCompactThreshold, negative = manual
	// compaction via /admin/compact only).
	CompactThreshold int
	// NoSync skips the WAL's per-write fsync (benchmarks only).
	NoSync bool
}

// mutable is what the mutation endpoints need from an engine; only a
// ShardedEngine with ingestion enabled provides working versions.
type mutable interface {
	InsertImage(ctx context.Context, imageID int, shapes []geosir.Shape) error
	DeleteImage(ctx context.Context, imageID int) error
	Compact() error
	IngestEnabled() bool
	IngestStats() geosir.IngestStats
}

// mutationEpoch is implemented by engines whose contents can change
// after install (ShardedEngine); the epoch advances on every
// acknowledged write.
type mutationEpoch interface {
	MutationEpoch() uint64
}

// cacheEpoch is the cache-fingerprint epoch for one admitted request:
// the install epoch in the high bits (hot-swaps invalidate everything)
// XOR-folded with the engine's mutation epoch (each acknowledged write
// invalidates the affected snapshot's entries). Both values were loaded
// from the same engineState, so a result computed against this engine
// can only be served while neither has moved.
func cacheEpoch(st *engineState) uint64 {
	e := st.epoch << 32
	if m, ok := st.serving.(mutationEpoch); ok {
		e ^= m.MutationEpoch()
	}
	return e
}

// writable returns the serving engine's mutation surface, or an
// apiError explaining why writes are unavailable.
func writable(st *engineState) (mutable, *apiError) {
	m, ok := st.serving.(mutable)
	if !ok || !m.IngestEnabled() {
		return nil, &apiError{status: http.StatusConflict,
			msg: "snapshot is read-only (serve a sharded snapshot directory with -ingest)"}
	}
	return m, nil
}

// mutateHandler is one mutation endpoint's decode-and-apply step.
type mutateHandler func(ctx context.Context, st *engineState, r *http.Request, body []byte) (any, error)

// mutate wraps a mutation handler with the serving pipeline: readiness,
// admission control, per-request deadline, body limits, ingest error
// mapping, metrics, and access logging. The HTTP method is enforced by
// the route pattern, not here.
func (s *Server) mutate(name string, h mutateHandler) http.HandlerFunc {
	em := s.metrics.endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		s.serveMutate(rec, r, em, h)
		s.accessLog(r, rec.status, rec.bytes, time.Since(start))
	}
}

func (s *Server) serveMutate(w *statusRecorder, r *http.Request, em *endpointMetrics, h mutateHandler) {
	st := s.state.Load()
	if st == nil {
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusServiceUnavailable, "no snapshot loaded")
		return
	}
	if err := s.limiter.acquire(r.Context()); err != nil {
		var shed *shedError
		if errors.As(err, &shed) {
			em.shed.Add(1)
			w.Header().Set("Retry-After", retryAfter(shed.retryAfter))
			s.writeError(w, shed.status, shed.reason)
			return
		}
		s.writeError(w, 499, "client closed request")
		return
	}
	defer s.limiter.release()
	em.requests.Add(1)
	qstart := time.Now()
	defer func() { em.latency.observe(time.Since(qstart)) }()

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	body, ok := s.readBody(w, r, em)
	if !ok {
		return
	}
	resp, err := h(ctx, st, r, body)
	if err != nil {
		status := http.StatusInternalServerError
		var ae *apiError
		switch {
		case errors.As(err, &ae):
			status = ae.status
		case errors.Is(err, context.DeadlineExceeded):
			status = http.StatusGatewayTimeout
		case errors.Is(err, context.Canceled):
			status = 499
		case errors.Is(err, geosir.ErrImageExists):
			status = http.StatusConflict
		case errors.Is(err, geosir.ErrNoImage):
			status = http.StatusNotFound
		case errors.Is(err, geosir.ErrCompacting):
			// Transient: the fold finishes and the write becomes possible.
			status = http.StatusConflict
			w.Header().Set("Retry-After", "1")
		case errors.Is(err, geosir.ErrIngestOff):
			status = http.StatusConflict
		}
		countStatus(em, status)
		s.writeError(w, status, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

type insertImageRequest struct {
	ID     int         `json:"id"`
	Shapes []WireShape `json:"shapes"`
}

type mutationResponse struct {
	ID     int    `json:"id"`
	Shapes int    `json:"shapes,omitempty"`
	Epoch  uint64 `json:"epoch"`
}

func (s *Server) handleInsertImage(ctx context.Context, st *engineState, r *http.Request, body []byte) (any, error) {
	m, aerr := writable(st)
	if aerr != nil {
		return nil, aerr
	}
	var req insertImageRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	if len(req.Shapes) == 0 {
		return nil, unprocessable(errors.New("an image needs at least one shape"))
	}
	shapes, err := shapesOf(req.Shapes)
	if err != nil {
		return nil, unprocessable(err)
	}
	if err := m.InsertImage(ctx, req.ID, shapes); err != nil {
		return nil, err
	}
	s.metrics.inserts.Add(1)
	return mutationResponse{ID: req.ID, Shapes: len(shapes), Epoch: cacheEpoch(st)}, nil
}

func (s *Server) handleDeleteImage(ctx context.Context, st *engineState, r *http.Request, _ []byte) (any, error) {
	m, aerr := writable(st)
	if aerr != nil {
		return nil, aerr
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		return nil, badRequest("image id %q is not an integer", r.PathValue("id"))
	}
	if err := m.DeleteImage(ctx, id); err != nil {
		return nil, err
	}
	s.metrics.deletes.Add(1)
	return mutationResponse{ID: id, Epoch: cacheEpoch(st)}, nil
}

type compactResponse struct {
	DurationMs float64            `json:"duration_ms"`
	Ingest     geosir.IngestStats `json:"ingest"`
}

// handleCompact folds the delta synchronously. It bypasses admission
// control like the other admin endpoints: a compaction is long-running
// maintenance, not query traffic, and must not hold a query slot.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	st := s.state.Load()
	if st == nil {
		s.writeError(w, http.StatusServiceUnavailable, "no snapshot loaded")
		return
	}
	m, aerr := writable(st)
	if aerr != nil {
		s.writeError(w, aerr.status, aerr.msg)
		return
	}
	start := time.Now()
	if err := m.Compact(); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, geosir.ErrCompacting) {
			status = http.StatusConflict
			w.Header().Set("Retry-After", "1")
		}
		s.writeError(w, status, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, compactResponse{
		DurationMs: ms(time.Since(start)),
		Ingest:     m.IngestStats(),
	})
}

// ingestStatz returns the /statz ingest section, nil when the serving
// engine is read-only.
func ingestStatz(st *engineState) *geosir.IngestStats {
	if st == nil {
		return nil
	}
	if m, ok := st.serving.(mutable); ok && m.IngestEnabled() {
		ist := m.IngestStats()
		return &ist
	}
	return nil
}

// closeIngest quiesces an engine's ingestion if it has any: used when a
// state is swapped out (its WAL handle must be released before another
// engine opens the same log) and before reloading in place.
func closeIngest(st *engineState) {
	if st == nil {
		return
	}
	if c, ok := st.serving.(interface{ CloseIngest() error }); ok {
		_ = c.CloseIngest()
	}
}
