package server

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	geosir "repro"
	"repro/internal/qcache"
)

// Live-ingestion serving: when the installed engine has ingestion
// enabled (a snapshot directory loaded under Config.Ingest), the server
// exposes
//
//	POST   /v1/images        {"id": 7, "shapes": [{...}, ...]}
//	DELETE /v1/images/{id}
//	POST   /admin/compact    (synchronous fold; 409 when one is running)
//
// Writes ride the same pipeline, admission control and per-request
// deadline as queries — an overloaded server sheds writes exactly like
// reads. Every acknowledged write bumps the engine's mutation epoch,
// which is folded into the query-cache fingerprint (see cacheEpoch), so
// a cached result can never outlive the write that invalidated it.

// IngestOptions makes directory snapshots writable: when Config.Ingest
// is non-nil, every snapshot directory the server installs gets live
// ingestion enabled on it (EnableIngest with these knobs), and a
// snapshot file is refused.
type IngestOptions struct {
	// CompactThreshold is the delta shape count that triggers background
	// compaction (0 = geosir.DefaultCompactThreshold, negative = manual
	// compaction via /admin/compact only).
	CompactThreshold int
	// NoSync skips the WAL's per-write fsync (benchmarks only).
	NoSync bool
}

// cacheEpoch is the cache-fingerprint epoch for one admitted request:
// the install epoch in the high bits (hot-swaps invalidate everything)
// XOR-folded with the engine's mutation epoch (each acknowledged write
// invalidates the affected snapshot's entries). Both values were loaded
// from the same engineState, so a result computed against this engine
// can only be served while neither has moved.
func cacheEpoch(st *engineState) uint64 {
	return st.epoch<<32 ^ st.serving.MutationEpoch()
}

// writable explains, as an apiError, why the serving engine takes no
// writes; nil when it does.
func writable(st *engineState) error {
	switch {
	case st == nil:
		return &apiError{status: http.StatusServiceUnavailable, msg: "no snapshot loaded"}
	case !st.serving.IngestEnabled():
		return &apiError{status: http.StatusConflict,
			msg: "snapshot is read-only (serve a sharded snapshot directory with -ingest)"}
	}
	return nil
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

func (s *Server) handleInsertImage(ctx context.Context, st *engineState, _ *http.Request, body []byte) (any, qcache.Disposition, error) {
	if err := writable(st); err != nil {
		return nil, qcache.Bypass, err
	}
	var req insertImageRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, qcache.Bypass, err
	}
	if len(req.Shapes) == 0 {
		return nil, qcache.Bypass, unprocessable(errors.New("an image needs at least one shape"))
	}
	shapes, err := shapesOf(req.Shapes)
	if err != nil {
		return nil, qcache.Bypass, unprocessable(err)
	}
	if err := st.serving.InsertImage(ctx, req.ID, shapes); err != nil {
		return nil, qcache.Bypass, err
	}
	s.metrics.inserts.Add(1)
	return mutationResponse{ID: req.ID, Shapes: len(shapes), Epoch: cacheEpoch(st)}, qcache.Bypass, nil
}

func (s *Server) handleDeleteImage(ctx context.Context, st *engineState, r *http.Request, _ []byte) (any, qcache.Disposition, error) {
	if err := writable(st); err != nil {
		return nil, qcache.Bypass, err
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		return nil, qcache.Bypass, badRequest("image id %q is not an integer", r.PathValue("id"))
	}
	if err := st.serving.DeleteImage(ctx, id); err != nil {
		return nil, qcache.Bypass, err
	}
	s.metrics.deletes.Add(1)
	return mutationResponse{ID: id, Epoch: cacheEpoch(st)}, qcache.Bypass, nil
}

type compactResponse struct {
	DurationMs float64            `json:"duration_ms"`
	Ingest     geosir.IngestStats `json:"ingest"`
}

// handleCompact folds the delta synchronously (its route does not admit:
// a compaction is long-running maintenance and must not hold a query
// slot).
func (s *Server) handleCompact(_ context.Context, st *engineState, _ *http.Request, _ []byte) (any, qcache.Disposition, error) {
	if err := writable(st); err != nil {
		return nil, qcache.Bypass, err
	}
	start := time.Now()
	if err := st.serving.Compact(); err != nil {
		return nil, qcache.Bypass, err
	}
	return compactResponse{
		DurationMs: ms(time.Since(start)),
		Ingest:     st.serving.IngestStats(),
	}, qcache.Bypass, nil
}

// ingestStatz returns the /statz ingest section, nil when the serving
// engine is read-only.
func ingestStatz(st *engineState) *geosir.IngestStats {
	if !st.serving.IngestEnabled() {
		return nil
	}
	ist := st.serving.IngestStats()
	return &ist
}
