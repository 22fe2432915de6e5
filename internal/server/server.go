// Package server is geosird's HTTP serving layer: it puts a frozen
// GeoSIR engine behind a JSON API and owns the production concerns the
// library deliberately does not — admission control (bounded in-flight
// plus a bounded, deadlined wait queue; overload sheds with 429/503 and
// Retry-After instead of queueing unboundedly), per-request timeouts
// threaded through context into the engine's fan-out paths, zero-downtime
// snapshot hot-swap behind an atomic engine pointer, and live metrics
// (per-endpoint counters and latency quantiles) on /metrics and /statz.
//
// Endpoints:
//
//	POST /v1/search        {"shape": {...}, "k": 5, "mode": "auto"}  (unified; sketch mode takes "shapes")
//	POST /v1/topological   {"query": "similar(a) AND ...", "binds": {"a": {...}}}
//	POST /v1/images        {"id": 7, "shapes": [{...}, ...]}  (live insert; Config.Ingest)
//	DELETE /v1/images/{id}                                    (live delete)
//	POST /admin/reload     {"path": "other.gsir"}  (empty body reloads the current snapshot)
//	POST /admin/compact    (fold the live delta into a frozen shard)
//	GET  /healthz /readyz /metrics /statz
//
// The server is engine-kind agnostic: every query flows through the
// unified geosir.Searcher interface, so a snapshot may be a single
// engine (a .gsir2 file) or a ShardedEngine (a snapshot directory with
// per-shard files); /statz reports per-shard rows for the latter.
// Engine failures map to HTTP statuses via the geosir sentinel errors
// (errors.Is), not string matching.
//
// Engines are immutable after Freeze, so a request loads the engine
// pointer once at admission and keeps answering from that engine even if
// a reload swaps the pointer mid-request: no request ever observes a
// half-loaded engine, and reloads never fail in-flight traffic.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	geosir "repro"
	"repro/internal/qcache"
)

// Config tunes the server. Zero values select the documented defaults.
type Config struct {
	// MaxInFlight bounds concurrently executing queries
	// (default 4×GOMAXPROCS).
	MaxInFlight int
	// MaxQueue bounds queries waiting for an in-flight slot (default
	// 4×MaxInFlight). Arrivals beyond it are shed immediately with 429.
	MaxQueue int
	// QueueWait is how long a queued query may wait for a slot before
	// being shed with 503 (default 100ms).
	QueueWait time.Duration
	// RequestTimeout bounds one query's execution; it becomes the
	// request context's deadline (default 10s).
	RequestTimeout time.Duration
	// MaxBodyBytes bounds a request body (default 8 MiB).
	MaxBodyBytes int64
	// CacheBytes bounds the query-result cache (internal/qcache); 0
	// disables caching entirely. The cache holds marshaled
	// SearchResponses keyed by canonical query fingerprint + snapshot
	// epoch, and coalesces concurrent identical requests onto one
	// engine search.
	CacheBytes int64
	// CacheEntries bounds the cache entry count (0 = derived from
	// CacheBytes).
	CacheEntries int
	// AccessLog, when non-nil, receives one JSON line per request.
	AccessLog io.Writer
	// Ingest, when non-nil, enables live ingestion on sharded snapshot
	// directories the server installs: /v1/images accepts writes, the
	// delta WAL lives next to the shard files, and /admin/compact (or
	// the threshold) folds the delta. File snapshots stay read-only.
	Ingest *IngestOptions
	// DefaultExec is the execution policy applied to requests that do
	// not set one ("exec" in the /v1/search body). The zero value is
	// geosir.ExecAuto: fan out at idle, go sequential under load.
	DefaultExec geosir.ExecPolicy
	// LoadMode selects how snapshots install: the zero value
	// (geosir.LoadModeHeap) decodes into the heap; geosir.LoadModeMmap
	// maps GSIR3 files and serves the hot sections straight off the page
	// cache, falling back to a heap load per file when a snapshot
	// predates GSIR3 or the platform cannot alias mapped memory.
	LoadMode geosir.LoadMode
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 100 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// Serving is what the server needs from an engine: the unified Search
// surface, the topological query entry point, and the size accessors
// the status endpoints report. Both geosir.Engine and
// geosir.ShardedEngine satisfy it.
type Serving interface {
	geosir.Searcher
	Query(ctx context.Context, src string, binds map[string]geosir.Shape) ([]int, string, error)
	NumImages() int
	NumShapes() int
	NumEntries() int
	Frozen() bool
	SchedStats() geosir.SchedStats
	StorageStats() geosir.StorageStats
}

// engineState is what the atomic pointer swaps: the frozen engine plus
// the provenance the status endpoints report.
type engineState struct {
	serving  Serving
	source   string
	info     geosir.SnapshotInfo
	loadedAt time.Time
	// epoch is the snapshot generation this engine was installed under.
	// It is part of every cache fingerprint, so a request that loaded
	// this state can only ever see cache entries computed against this
	// exact engine — a hot-swap bumps the epoch and thereby makes every
	// older entry unreachable atomically with the pointer store.
	epoch uint64
	// shards holds per-shard status rows when serving a ShardedEngine
	// (nil for a single engine).
	shards []ShardStatz
}

// Server serves a frozen engine over HTTP. Create with New, install an
// engine with LoadSnapshot or SetEngine, and mount Handler.
type Server struct {
	cfg     Config
	state   atomic.Pointer[engineState]
	limiter *limiter
	metrics *metrics

	// cache is the query-result cache (nil when Config.CacheBytes is 0;
	// every qcache method is a safe no-op on nil). epochCounter feeds
	// engineState.epoch on every successful engine install.
	cache        *qcache.Cache
	epochCounter atomic.Uint64

	// reloadMu serializes reloads; traffic keeps flowing off the old
	// engine while the new one loads outside any request path.
	reloadMu sync.Mutex

	accessMu sync.Mutex // serializes access-log writes

	mux http.Handler
}

// New creates a server with no engine installed: /healthz answers 200,
// /readyz answers 503, and query endpoints answer 503 until LoadSnapshot
// or SetEngine succeeds.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		limiter: newLimiter(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueWait),
		metrics: newMetrics(),
		cache:   qcache.New(qcache.Config{MaxBytes: cfg.CacheBytes, MaxEntries: cfg.CacheEntries}),
	}
	s.mux = s.routes()
	publishExpvar("geosird", func() any { return s.Statz() })
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Ready reports whether an engine is installed and queryable.
func (s *Server) Ready() bool { return s.state.Load() != nil }

// Engine returns the currently serving single engine (nil before the
// first load, and nil when a ShardedEngine is serving — use Serving for
// kind-agnostic access). The returned engine is frozen and safe for
// concurrent reads.
func (s *Server) Engine() *geosir.Engine {
	if st := s.state.Load(); st != nil {
		if eng, ok := st.serving.(*geosir.Engine); ok {
			return eng
		}
	}
	return nil
}

// Serving returns whatever engine kind currently serves (nil before the
// first load).
func (s *Server) Serving() Serving {
	if st := s.state.Load(); st != nil {
		return st.serving
	}
	return nil
}

// SetEngine installs an already-built frozen engine (tests, demo bases).
func (s *Server) SetEngine(eng *geosir.Engine, source string) error {
	if eng == nil {
		return errors.New("server: engine must be non-nil and frozen")
	}
	return s.SetServing(eng, source)
}

// SetServing installs any frozen engine kind.
func (s *Server) SetServing(sv Serving, source string) error {
	if sv == nil || !sv.Frozen() {
		return errors.New("server: engine must be non-nil and frozen")
	}
	st := &engineState{serving: sv, source: source, loadedAt: time.Now()}
	if se, ok := sv.(*geosir.ShardedEngine); ok {
		st.shards = shardStatz(se, nil)
	}
	s.installState(st)
	return nil
}

// installState atomically swaps the serving engine in under a fresh
// snapshot epoch, then purges the cache. The order matters for nothing
// but memory: old-epoch entries are unreachable from new traffic the
// instant the pointer store lands (the epoch is part of every
// fingerprint), so the purge is hygiene; a failed load never reaches
// here and therefore leaves both the old engine and its still-valid
// cache intact.
func (s *Server) installState(st *engineState) {
	st.epoch = s.epochCounter.Add(1)
	old := s.state.Swap(st)
	s.cache.Purge()
	if old != nil && old.serving != st.serving {
		// The outgoing engine must release its WAL handle: the incoming
		// one may have (re)opened the same log, and two appenders on one
		// log would interleave. In-flight queries on the old engine are
		// unaffected — only its mutations are fenced off.
		closeIngest(old)
	}
}

// LoadSnapshot loads a snapshot and atomically swaps it in. A file path
// loads a single engine strictly (any damage fails the load and leaves
// the serving engine untouched); a directory path loads a sharded
// snapshot, where damage degrades — a corrupt image or a dead shard
// file costs that much data, the rest serves, and /statz reports what
// was dropped. The old engine keeps serving every request admitted
// before the swap; the swap itself is a single pointer store. Only one
// load runs at a time.
func (s *Server) LoadSnapshot(path string) (geosir.SnapshotInfo, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if s.cfg.Ingest != nil {
		// Quiesce writes before the new engine replays the directory's
		// WAL: an append landing after the replay read it would be
		// invisible to the incoming engine. Queries keep flowing; writes
		// answer 409 until the reload completes (or until the next
		// successful reload, if this one fails).
		closeIngest(s.state.Load())
	}
	st, err := s.loadState(path)
	if err != nil {
		s.metrics.reloadFails.Add(1)
		return geosir.SnapshotInfo{}, err
	}
	s.installState(st)
	s.metrics.reloads.Add(1)
	return st.info, nil
}

func (s *Server) loadState(path string) (*engineState, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		se, rec, err := geosir.LoadShardedDirMode(path, s.cfg.LoadMode)
		if err != nil {
			return nil, fmt.Errorf("server: loading sharded snapshot: %w", err)
		}
		if !se.Frozen() || se.NumShapes() == 0 {
			return nil, fmt.Errorf("server: snapshot %s holds no shapes", path)
		}
		info, err := shardedInfo(se, rec)
		if err != nil {
			return nil, fmt.Errorf("server: snapshot header: %w", err)
		}
		if s.cfg.Ingest != nil {
			if err := se.EnableIngest(geosir.IngestConfig{
				Dir:              path,
				CompactThreshold: s.cfg.Ingest.CompactThreshold,
				NoSync:           s.cfg.Ingest.NoSync,
			}); err != nil {
				return nil, fmt.Errorf("server: enabling ingestion: %w", err)
			}
		}
		return &engineState{
			serving:  se,
			source:   path,
			info:     info,
			loadedAt: time.Now(),
			shards:   shardStatz(se, rec),
		}, nil
	}
	info, err := geosir.PeekFile(path)
	if err != nil {
		return nil, fmt.Errorf("server: snapshot header: %w", err)
	}
	var eng *geosir.Engine
	if s.cfg.LoadMode == geosir.LoadModeMmap {
		// Serve the sections in place when the snapshot and platform
		// allow it; anything else (GSIR2 file, no mmap support) falls
		// back to the strict heap load below.
		eng, err = geosir.LoadFileMmap(path)
	}
	if eng == nil {
		eng, err = geosir.LoadFile(path)
	}
	if err != nil {
		return nil, fmt.Errorf("server: loading snapshot: %w", err)
	}
	if !eng.Frozen() {
		// An empty snapshot loads as an unfrozen engine; it cannot serve.
		return nil, fmt.Errorf("server: snapshot %s holds no shapes", path)
	}
	return &engineState{serving: eng, source: path, info: info, loadedAt: time.Now()}, nil
}

// shardedInfo describes a loaded snapshot directory: the format its first
// live shard's file holds, named <FORMAT>-SHARDED, and the engine's
// options and image count.
func shardedInfo(se *geosir.ShardedEngine, rec *geosir.ShardRecovery) (geosir.SnapshotInfo, error) {
	for i, fr := range rec.Shards {
		if sh := se.Shard(i); !sh.Frozen() || sh.NumShapes() == 0 {
			continue // dropped or empty
		}
		peek, err := geosir.PeekFile(fr.Path)
		if err != nil {
			return geosir.SnapshotInfo{}, err
		}
		return geosir.SnapshotInfo{
			Format:     peek.Format,
			FormatName: peek.FormatName + "-SHARDED",
			Options:    se.Options(),
			Images:     se.NumImages(),
		}, nil
	}
	return geosir.SnapshotInfo{}, errors.New("no live shard")
}

// shardStatz builds the per-shard status rows, folding in the load-time
// recovery report when the engine came from a snapshot directory.
func shardStatz(se *geosir.ShardedEngine, rec *geosir.ShardRecovery) []ShardStatz {
	out := make([]ShardStatz, se.NumShards())
	for i := range out {
		sh := se.Shard(i)
		out[i] = ShardStatz{
			Shard:  i,
			Live:   sh.Frozen() && sh.NumShapes() > 0,
			Images: sh.NumImages(),
			Shapes: sh.NumShapes(),
		}
		if out[i].Live {
			out[i].Entries = sh.NumEntries()
		}
		if rec != nil && i < len(rec.Shards) {
			fr := rec.Shards[i]
			out[i].Dropped = fr.Dropped
			if fr.Err != nil {
				out[i].Error = fr.Err.Error()
			}
			if fr.Recovery != nil {
				out[i].ImagesDropped = len(fr.Recovery.Dropped) + fr.Recovery.ImagesUnread
			}
		}
	}
	return out
}

// apiError carries the HTTP status a handler-level failure maps to.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// unprocessable marks a syntactically valid request whose content the
// engine rejects (non-simple shape, k ≤ 0, malformed query language).
func unprocessable(err error) *apiError {
	return &apiError{status: http.StatusUnprocessableEntity, msg: err.Error()}
}

// routes is the one route table. Wrapping a handler (instrument, query,
// mutate) registers its metric row under the given name, so /statz lists
// exactly the endpoints registered here, from the first scrape.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/statz", s.handleStatz)
	mux.HandleFunc("/admin/reload", s.instrument("admin_reload", s.handleReload))
	mux.HandleFunc("/admin/compact", s.instrument("admin_compact", s.handleCompact))
	mux.HandleFunc("/v1/search", s.query("search", s.handleSearch))
	mux.HandleFunc("/v1/topological", s.query("topological", s.handleTopological))
	mux.HandleFunc("POST /v1/images", s.mutate("images_insert", s.handleInsertImage))
	mux.HandleFunc("DELETE /v1/images/{id}", s.mutate("images_delete", s.handleDeleteImage))
	return mux
}

// statusRecorder captures the response status for logs and metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += n
	return n, err
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	s.writeJSON(w, status, map[string]string{"error": msg})
}

func (s *Server) accessLog(r *http.Request, status, bytes int, d time.Duration) {
	if s.cfg.AccessLog == nil {
		return
	}
	line, err := json.Marshal(map[string]any{
		"ts":     time.Now().UTC().Format(time.RFC3339Nano),
		"method": r.Method,
		"path":   r.URL.Path,
		"status": status,
		"ms":     ms(d),
		"bytes":  bytes,
		"remote": r.RemoteAddr,
	})
	if err != nil {
		return
	}
	s.accessMu.Lock()
	_, _ = s.cfg.AccessLog.Write(append(line, '\n'))
	s.accessMu.Unlock()
}

// instrument wraps a handler with metrics and access logging (no
// admission control — used for admin endpoints).
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	em := s.metrics.endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		h(rec, r)
		d := time.Since(start)
		em.requests.Add(1)
		em.latency.observe(d)
		countStatus(em, rec.status)
		s.accessLog(r, rec.status, rec.bytes, d)
	}
}

func countStatus(em *endpointMetrics, status int) {
	switch {
	case status >= 500:
		em.status5x.Add(1)
	case status >= 400:
		em.status4x.Add(1)
	}
}

// queryHandler is one endpoint's decode-and-dispatch step. It receives
// the engine state loaded once at admission (engine + snapshot epoch —
// the pair the cache fingerprint must be consistent with) and reports
// how the cache participated, so the pipeline can record it.
type queryHandler func(ctx context.Context, st *engineState, body []byte) (any, qcache.Disposition, error)

// query wraps a query handler with the full serving pipeline: method
// check, readiness, admission control, per-request deadline, body
// decoding limits, error mapping, metrics, and access logging. The
// engine pointer is loaded exactly once per request.
func (s *Server) query(name string, h queryHandler) http.HandlerFunc {
	em := s.metrics.endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		s.serveQuery(rec, r, em, h)
		s.accessLog(r, rec.status, rec.bytes, time.Since(start))
	}
}

func (s *Server) serveQuery(w *statusRecorder, r *http.Request, em *endpointMetrics, h queryHandler) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
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
		// Client went away while queued; nothing useful to send.
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
	resp, disp, err := h(ctx, st, body)
	if s.cache != nil {
		// The disposition is a response *header*, never a body field: the
		// correctness contract is that cached and uncached serving produce
		// byte-identical bodies, so the diagnostic must ride outside them.
		w.Header().Set(cacheHeader, disp.String())
		switch disp {
		case qcache.Hit:
			em.cacheHits.Add(1)
		case qcache.Miss:
			em.cacheMisses.Add(1)
		case qcache.Coalesced:
			em.cacheCoalesced.Add(1)
		}
	}
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
		// The geosir sentinels carry the client/server distinction:
		// argument problems (bad k, empty query, frozen-state misuse) are
		// the request's fault, an unfrozen engine is a serving-side
		// sequencing bug.
		case errors.Is(err, geosir.ErrBadK),
			errors.Is(err, geosir.ErrEmptyQuery),
			errors.Is(err, geosir.ErrFrozen):
			status = http.StatusUnprocessableEntity
		case errors.Is(err, geosir.ErrNotFrozen):
			status = http.StatusServiceUnavailable
		}
		countStatus(em, status)
		s.writeError(w, status, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// readBody reads a request body under Config.MaxBodyBytes. On failure it
// answers the request itself — 413 for a body over the limit, 400 for any
// other read error — and reports false.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, em *endpointMetrics) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		em.status4x.Add(1)
		s.writeError(w, status, fmt.Sprintf("reading body: %v", err))
		return nil, false
	}
	return body, true
}

func retryAfter(d time.Duration) string {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// --- query handlers -------------------------------------------------

// decodeStrict decodes a request body that must be exactly one JSON
// value with no field the request type does not declare.
func decodeStrict(body []byte, v any) error {
	if len(body) == 0 {
		return badRequest("empty body")
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("malformed JSON: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return badRequest("malformed JSON: trailing data")
	}
	return nil
}

// cacheHeader carries the cache disposition of a query response
// (hit / miss / coalesced / bypass). It exists so clients and the load
// generator can measure hit rates without the body ever differing
// between cached and uncached serving.
const cacheHeader = "X-Geosir-Cache"

// errUncacheable marks a search response that could not be marshaled
// for storage (a non-finite float somewhere); the response is served,
// just never cached.
var errUncacheable = errors.New("server: response not cacheable")

// runSearch answers a /v1/search request through the unified Search API
// — through the query-result cache when one is configured — leaving the
// engine's sentinel failures to serveQuery's error switch, and folds the
// response's ANN and block accounting into the cumulative /statz
// counters. Both track engine work actually performed, so cache hits and
// coalesced waits (which run no engine search of their own) do not
// advance them.
func (s *Server) runSearch(ctx context.Context, st *engineState, req geosir.SearchRequest) (*geosir.SearchResponse, qcache.Disposition, error) {
	resp, disp, err := s.searchCached(ctx, st, req)
	if err != nil {
		return nil, disp, err
	}
	if disp != qcache.Hit && disp != qcache.Coalesced {
		if resp.Stats.UsedANN {
			s.metrics.annQueries.Add(1)
			s.metrics.annProbes.Add(int64(resp.Stats.ANNProbes))
			s.metrics.annCandidates.Add(int64(resp.Stats.ANNCandidates))
		}
		if resp.Stats.BlockReads > 0 {
			s.metrics.endpoint("search").blockReads.Add(int64(resp.Stats.BlockReads))
		}
	}
	return resp, disp, nil
}

// searchCached answers a search through the result cache. The cached
// value is the engine response marshaled once; hits, coalesced waiters,
// AND the miss that computed it all decode the same stored bytes, so
// every disposition renders identical wire bytes by construction.
//
// Caching keys on the canonical query fingerprint bound to this
// request's cache epoch (cacheEpoch: install epoch composed with the
// engine's mutation epoch): the (engine, epoch) pair was loaded
// atomically at admission, so neither a hot-swap nor a live write
// landing mid-request can pair this engine's results with another
// epoch's entries.
// The scheduling knobs (exec policy, max-workers cap) are deliberately
// outside the fingerprint — they schedule work, they never change
// results (PR 4/5 and the PR 9 exec equivalence suite).
func (s *Server) searchCached(ctx context.Context, st *engineState, req geosir.SearchRequest) (*geosir.SearchResponse, qcache.Disposition, error) {
	if s.cache == nil {
		resp, err := st.serving.Search(ctx, req)
		return resp, qcache.Bypass, err
	}
	fp, ok := qcache.SearchFingerprint(req, cacheEpoch(st))
	if !ok {
		// Unfingerprintable (degenerate shape, bad mode): let the engine
		// produce its usual error or result, uncached.
		s.cache.Bypassed()
		resp, err := st.serving.Search(ctx, req)
		return resp, qcache.Bypass, err
	}
	var uncacheable *geosir.SearchResponse
	body, disp, err := s.cache.Do(ctx, fp, func() ([]byte, error) {
		// Detach the computation from this requester's cancellation: any
		// number of coalesced waiters may be depending on it, so one
		// client hanging up must not abort the shared search. The
		// configured request timeout still bounds it.
		dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), s.cfg.RequestTimeout)
		defer cancel()
		resp, err := st.serving.Search(dctx, req)
		if err != nil {
			return nil, err
		}
		blob, err := json.Marshal(resp)
		if err != nil {
			uncacheable = resp
			return nil, errUncacheable
		}
		return blob, nil
	})
	if err != nil {
		if errors.Is(err, errUncacheable) {
			if uncacheable != nil {
				return uncacheable, qcache.Bypass, nil
			}
			// A coalesced waiter saw the leader's uncacheable marker but
			// holds no response object; run the search itself.
			resp, serr := st.serving.Search(ctx, req)
			return resp, qcache.Bypass, serr
		}
		return nil, disp, err
	}
	resp := new(geosir.SearchResponse)
	if err := json.Unmarshal(body, resp); err != nil {
		return nil, disp, fmt.Errorf("server: decoding cached response: %w", err)
	}
	return resp, disp, nil
}

// searchRequest is the unified /v1/search wire request: one shape (or,
// for sketch mode, several), k, an optional mode name, an optional
// execution policy ("auto", "fanout", "sequential") with a worker cap,
// and an optional ANN tier mode ("off", "approx").
type searchRequest struct {
	Shape         *WireShape  `json:"shape,omitempty"`
	Shapes        []WireShape `json:"shapes,omitempty"`
	K             int         `json:"k"`
	Mode          string      `json:"mode,omitempty"`
	Exec          string      `json:"exec,omitempty"`
	MaxWorkersCap int         `json:"max_workers,omitempty"`
	Ann           string      `json:"ann,omitempty"`
}

type searchResponse struct {
	Mode          string            `json:"mode"`
	Matches       []MatchJSON       `json:"matches,omitempty"`
	SketchMatches []SketchMatchJSON `json:"sketch_matches,omitempty"`
	Stats         StatsJSON         `json:"stats"`
}

func (s *Server) handleSearch(ctx context.Context, st *engineState, body []byte) (any, qcache.Disposition, error) {
	var req searchRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, qcache.Bypass, err
	}
	mode, err := geosir.ParseMode(req.Mode)
	if err != nil {
		return nil, qcache.Bypass, unprocessable(err)
	}
	ann, err := geosir.ParseAnnMode(req.Ann)
	if err != nil {
		return nil, qcache.Bypass, unprocessable(err)
	}
	greq := geosir.SearchRequest{K: req.K, Mode: mode, Ann: ann, MaxWorkers: req.MaxWorkersCap}
	greq.Exec = s.cfg.DefaultExec
	if req.Exec != "" {
		greq.Exec, err = geosir.ParseExecPolicy(req.Exec)
		if err != nil {
			return nil, qcache.Bypass, unprocessable(err)
		}
	}
	if req.Shape != nil {
		q, err := req.Shape.Shape()
		if err != nil {
			return nil, qcache.Bypass, unprocessable(err)
		}
		greq.Query = q
	}
	if len(req.Shapes) > 0 {
		shapes, err := shapesOf(req.Shapes)
		if err != nil {
			return nil, qcache.Bypass, unprocessable(err)
		}
		greq.Sketch = shapes
	}
	resp, disp, err := s.runSearch(ctx, st, greq)
	if err != nil {
		return nil, disp, err
	}
	out := searchResponse{Mode: mode.String(), Stats: statsJSON(resp.Stats)}
	if resp.Matches != nil {
		out.Matches = matchesJSON(resp.Matches)
	}
	if resp.SketchMatches != nil {
		out.SketchMatches = sketchMatchesJSON(resp.SketchMatches)
	}
	return out, disp, nil
}

type topologicalRequest struct {
	Query string               `json:"query"`
	Binds map[string]WireShape `json:"binds"`
}

type topologicalResponse struct {
	Images []int  `json:"images"`
	Plan   string `json:"plan"`
}

// handleTopological never caches: the endpoint is a small share of
// traffic, and its binds are a name → shape map that the cache
// fingerprint does not encode.
func (s *Server) handleTopological(ctx context.Context, st *engineState, body []byte) (any, qcache.Disposition, error) {
	var req topologicalRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, qcache.Bypass, err
	}
	if req.Query == "" {
		return nil, qcache.Bypass, unprocessable(errors.New("empty query"))
	}
	binds := make(map[string]geosir.Shape, len(req.Binds))
	for name, ws := range req.Binds {
		sh, err := ws.Shape()
		if err != nil {
			return nil, qcache.Bypass, unprocessable(fmt.Errorf("bind %q: %w", name, err))
		}
		binds[name] = sh
	}
	ids, plan, err := st.serving.Query(ctx, req.Query, binds)
	if err != nil {
		// A deadline or cancellation keeps its own status; parse and bind
		// errors are the client's, the engine has no other failure mode
		// here on a frozen base.
		if !errors.Is(err, ctx.Err()) {
			err = unprocessable(err)
		}
		return nil, qcache.Bypass, err
	}
	if ids == nil {
		ids = []int{}
	}
	return topologicalResponse{Images: ids, Plan: plan}, qcache.Bypass, nil
}

// --- admin & status -------------------------------------------------

type reloadRequest struct {
	Path string `json:"path"`
}

type reloadResponse struct {
	Source string  `json:"source"`
	Format string  `json:"format"`
	Images int     `json:"images"`
	Shapes int     `json:"shapes"`
	Shards int     `json:"shards,omitempty"`
	LoadMs float64 `json:"load_ms"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<16))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
		return
	}
	var req reloadRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Sprintf("malformed JSON: %v", err))
			return
		}
	}
	path := req.Path
	if path == "" {
		if st := s.state.Load(); st != nil {
			path = st.source
		}
	}
	if path == "" {
		s.writeError(w, http.StatusBadRequest, "no path given and no snapshot previously loaded")
		return
	}
	start := time.Now()
	info, err := s.LoadSnapshot(path)
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	st := s.state.Load()
	s.writeJSON(w, http.StatusOK, reloadResponse{
		Source: path,
		Format: info.FormatName,
		Images: st.serving.NumImages(),
		Shapes: st.serving.NumShapes(),
		Shards: len(st.shards),
		LoadMs: ms(time.Since(start)),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.Ready() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no snapshot loaded")
		return
	}
	fmt.Fprintln(w, "ready")
}

// ShardStatz is one shard's row in /statz when a ShardedEngine serves.
type ShardStatz struct {
	Shard   int  `json:"shard"`
	Live    bool `json:"live"`
	Images  int  `json:"images"`
	Shapes  int  `json:"shapes"`
	Entries int  `json:"entries,omitempty"`
	// Dropped marks a shard whose snapshot file was unreadable or
	// inconsistent at load time; its images are missing from results.
	Dropped bool   `json:"dropped,omitempty"`
	Error   string `json:"error,omitempty"`
	// ImagesDropped counts images lost to per-file recovery inside an
	// otherwise live shard.
	ImagesDropped int `json:"images_dropped,omitempty"`
}

// SnapshotStatz describes the serving snapshot in /statz.
type SnapshotStatz struct {
	Source    string    `json:"source"`
	Format    string    `json:"format,omitempty"`
	SizeBytes int64     `json:"size_bytes,omitempty"`
	LoadedAt  time.Time `json:"loaded_at"`
	Images    int       `json:"images"`
	Shapes    int       `json:"shapes"`
	Entries   int       `json:"entries"`
	// Shards holds per-shard rows when serving a sharded snapshot.
	Shards []ShardStatz `json:"shards,omitempty"`
}

// ANNStatz is the cumulative ANN candidate-tier accounting in /statz:
// how many queries the tier participated in, and the total LSH bucket
// probes and emitted candidates across them.
type ANNStatz struct {
	Queries    int64 `json:"queries"`
	Probes     int64 `json:"probes"`
	Candidates int64 `json:"candidates"`
}

// SchedStatz is the engine execution scheduler's section of /statz:
// the engine-side in-flight gauge and how many request plans chose
// fan-out versus sequential execution since the engine was installed.
type SchedStatz struct {
	InFlight        int64  `json:"in_flight"`
	PlansFanout     uint64 `json:"plans_fanout"`
	PlansSequential uint64 `json:"plans_sequential"`
}

// StatzSchema is the version of the /statz document shape, bumped
// whenever a field is renamed, removed, or changes meaning (additions
// alone do not bump it). Schema 2 added this field itself and the
// "sched" section. Schema 3 promoted block accounting from the
// extstore simulation to the serving path: the "storage" section
// (load mode, mapped/resident bytes) and per-endpoint "block_reads".
// The full schema is documented in DESIGN.md §4.13.
const StatzSchema = 3

// StorageStatz is the serving snapshot's storage section of /statz:
// how the engine's frozen sections are held (decoded into the heap, or
// mmap'd and served off the page cache) and how much is mapped versus
// memory-resident right now.
type StorageStatz struct {
	LoadMode    string `json:"load_mode"`
	MappedBytes int64  `json:"mapped_bytes"`
	// ResidentEstimate is the page-cache residency of the mapped
	// sections sampled at scrape time (mincore); -1 when the platform
	// cannot report it. Always 0 for heap-loaded engines.
	ResidentEstimate int64 `json:"resident_estimate"`
}

// Statz is the full status document served on /statz (and exported via
// expvar on /metrics).
type Statz struct {
	Schema      int     `json:"schema"`
	UptimeS     float64 `json:"uptime_s"`
	Ready       bool    `json:"ready"`
	InFlight    int     `json:"in_flight"`
	QueueDepth  int64   `json:"queue_depth"`
	MaxInFlight int     `json:"max_in_flight"`
	MaxQueue    int     `json:"max_queue"`
	Reloads     int64   `json:"reloads"`
	ReloadFails int64   `json:"reload_fails"`
	// Sched reports the serving engine's execution scheduler (absent
	// until an engine is installed).
	Sched *SchedStatz `json:"sched,omitempty"`
	ANN   *ANNStatz   `json:"ann,omitempty"`
	// Cache reports the query-result cache (absent when caching is off);
	// Epoch is the serving snapshot's cache generation.
	Cache *qcache.Stats `json:"cache,omitempty"`
	Epoch uint64        `json:"epoch,omitempty"`
	// Ingest reports the live-ingestion subsystem (absent when the
	// serving engine is read-only): delta sizes, WAL length, compaction
	// counters. Inserts/Deletes below count the writes served over HTTP.
	Ingest  *geosir.IngestStats `json:"ingest,omitempty"`
	Inserts int64               `json:"inserts,omitempty"`
	Deletes int64               `json:"deletes,omitempty"`
	// Storage reports how the serving snapshot is held in memory
	// (absent until an engine is installed).
	Storage   *StorageStatz               `json:"storage,omitempty"`
	Snapshot  *SnapshotStatz              `json:"snapshot,omitempty"`
	Endpoints map[string]EndpointSnapshot `json:"endpoints"`
}

// Statz assembles the live status document.
func (s *Server) Statz() Statz {
	out := Statz{
		Schema:      StatzSchema,
		UptimeS:     time.Since(s.metrics.start).Seconds(),
		Ready:       s.Ready(),
		InFlight:    s.limiter.inFlight(),
		QueueDepth:  s.limiter.queueDepth(),
		MaxInFlight: s.cfg.MaxInFlight,
		MaxQueue:    s.cfg.MaxQueue,
		Reloads:     s.metrics.reloads.Load(),
		ReloadFails: s.metrics.reloadFails.Load(),
		Endpoints:   s.metrics.snapshotEndpoints(),
	}
	if q := s.metrics.annQueries.Load(); q > 0 {
		out.ANN = &ANNStatz{
			Queries:    q,
			Probes:     s.metrics.annProbes.Load(),
			Candidates: s.metrics.annCandidates.Load(),
		}
	}
	if s.cache != nil {
		cs := s.cache.Snapshot()
		out.Cache = &cs
	}
	out.Inserts = s.metrics.inserts.Load()
	out.Deletes = s.metrics.deletes.Load()
	if st := s.state.Load(); st != nil {
		out.Epoch = st.epoch
		ss := st.serving.SchedStats()
		out.Sched = &SchedStatz{
			InFlight:        ss.InFlight,
			PlansFanout:     ss.PlansFanout,
			PlansSequential: ss.PlansSequential,
		}
		out.Ingest = ingestStatz(st)
		ts := st.serving.StorageStats()
		out.Storage = &StorageStatz{
			LoadMode:         ts.LoadMode,
			MappedBytes:      ts.MappedBytes,
			ResidentEstimate: ts.ResidentBytes,
		}
		out.Snapshot = &SnapshotStatz{
			Source:    st.source,
			Format:    st.info.FormatName,
			SizeBytes: st.info.Size,
			LoadedAt:  st.loadedAt,
			Images:    st.serving.NumImages(),
			Shapes:    st.serving.NumShapes(),
			Entries:   st.serving.NumEntries(),
			Shards:    st.shards,
		}
	}
	return out
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Statz())
}

// handleMetrics renders the expvar-style flat variable map: the serving
// metrics under "geosird" plus the standard process variables expvar
// publishes globally (cmdline, memstats).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\n")
	blob, err := json.Marshal(s.Statz())
	if err != nil {
		blob = []byte("{}")
	}
	fmt.Fprintf(w, "%q: %s", "geosird", blob)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	if blob, err := json.Marshal(struct {
		Alloc      uint64 `json:"alloc"`
		TotalAlloc uint64 `json:"total_alloc"`
		Sys        uint64 `json:"sys"`
		HeapAlloc  uint64 `json:"heap_alloc"`
		NumGC      uint32 `json:"num_gc"`
		Goroutines int    `json:"goroutines"`
	}{mem.Alloc, mem.TotalAlloc, mem.Sys, mem.HeapAlloc, mem.NumGC, runtime.NumGoroutine()}); err == nil {
		fmt.Fprintf(w, ",\n%q: %s", "process", blob)
	}
	fmt.Fprintf(w, "\n}\n")
}
