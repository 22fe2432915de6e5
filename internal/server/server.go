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
// Every snapshot serves as a ShardedEngine: a directory of per-shard
// files, or a single file as a one-shard engine; /statz reports a row per
// shard either way. Every /v1 and /admin request runs one pipeline
// (serve), and engine failures map to HTTP statuses through one table of
// the geosir sentinel errors (errors.Is), not string matching.
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
	// disables caching entirely. The cache holds the /v1/search response
	// bodies the server writes, keyed by canonical query fingerprint +
	// snapshot epoch, and coalesces concurrent identical requests onto
	// one engine search.
	CacheBytes int64
	// CacheEntries bounds the cache entry count (0 = derived from
	// CacheBytes).
	CacheEntries int
	// AccessLog, when non-nil, receives one JSON line per request.
	AccessLog io.Writer
	// Ingest, when non-nil, enables live ingestion on the snapshot
	// directories the server installs: /v1/images accepts writes, the
	// delta WAL lives next to the shard files, and /admin/compact (or
	// the threshold) folds the delta. A snapshot file has no place for
	// the WAL and is refused.
	Ingest *IngestOptions
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
// surface, the topological query entry point, the size accessors and
// shards the status endpoints report, and live ingestion.
// geosir.ShardedEngine, the one engine kind the server loads, satisfies
// it; it stays an interface so tests can wrap an engine.
type Serving interface {
	geosir.Searcher
	Query(ctx context.Context, src string, binds map[string]geosir.Shape) ([]int, string, error)
	NumImages() int
	NumShapes() int
	NumEntries() int
	Frozen() bool
	SchedStats() geosir.SchedStats
	StorageStats() geosir.StorageStats
	NumShards() int
	Shard(i int) *geosir.Engine

	EnableIngest(cfg geosir.IngestConfig) error
	IngestEnabled() bool
	InsertImage(ctx context.Context, imageID int, shapes []geosir.Shape) error
	DeleteImage(ctx context.Context, imageID int) error
	Compact() error
	IngestStats() geosir.IngestStats
	// MutationEpoch advances on every acknowledged write (see cacheEpoch).
	MutationEpoch() uint64
	CloseIngest() error
}

var _ Serving = (*geosir.ShardedEngine)(nil)

// engineState is what the atomic pointer swaps: the frozen engine plus
// the provenance the status endpoints report (statz adds the engine's
// counts).
type engineState struct {
	serving  Serving
	snapshot SnapshotStatz
	// epoch is the snapshot generation this engine was installed under.
	// It is part of every cache fingerprint, so a request that loaded
	// this state can only ever see cache entries computed against this
	// exact engine — a hot-swap bumps the epoch and thereby makes every
	// older entry unreachable atomically with the pointer store.
	epoch uint64
}

// Server serves a frozen engine over HTTP. Create with New, install an
// engine with LoadSnapshot or SetServing, and mount Handler.
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
// or SetServing succeeds.
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

// Serving returns the engine currently serving (nil before the first
// load).
func (s *Server) Serving() Serving {
	if st := s.state.Load(); st != nil {
		return st.serving
	}
	return nil
}

// SetServing installs an already-built frozen engine (tests, demo bases).
func (s *Server) SetServing(sv Serving, source string) error {
	if sv == nil || !sv.Frozen() {
		return errors.New("server: engine must be non-nil and frozen")
	}
	s.installState(&engineState{serving: sv, snapshot: SnapshotStatz{
		Source: source, LoadedAt: time.Now(), Shards: shardStatz(sv, nil)}})
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
		// unaffected — only its mutations are fenced off. A close error
		// has no one to report to: the swap is done either way.
		_ = old.serving.CloseIngest()
	}
}

// LoadSnapshot loads a snapshot through geosir.LoadAnyMode and atomically
// swaps it in. A directory loads as a sharded engine whose damage
// degrades — a corrupt image or a dead shard file costs that much data,
// the rest serves, and /statz reports what was dropped; a file loads as a
// one-shard engine strictly: any damage fails the load and leaves the
// serving engine untouched. The old engine keeps serving every request
// admitted before the swap; the swap itself is a single pointer store.
// Only one load runs at a time. It returns the snapshot's /statz section
// as of the swap.
func (s *Server) LoadSnapshot(path string) (SnapshotStatz, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	st, err := s.loadState(path)
	if err != nil {
		s.metrics.reloadFails.Add(1)
		return SnapshotStatz{}, err
	}
	s.installState(st)
	s.metrics.reloads.Add(1)
	return st.statz(), nil
}

func (s *Server) loadState(path string) (*engineState, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("server: loading snapshot: %w", err)
	}
	dir := fi.IsDir()
	if s.cfg.Ingest != nil {
		if !dir {
			return nil, fmt.Errorf("server: live ingestion needs a snapshot directory, and %s is a file", path)
		}
		// Quiesce writes before the new engine replays the directory's
		// WAL: an append landing after the replay read it would be
		// invisible to the incoming engine. Queries keep flowing; writes
		// answer 409 until the reload completes (or until the next
		// successful reload, if this one fails). A close error does not
		// stop the load: the fresh engine opens the log anew.
		if old := s.state.Load(); old != nil {
			_ = old.serving.CloseIngest()
		}
	}
	loaded, rec, err := geosir.LoadAnyMode(path, s.cfg.LoadMode)
	if err != nil {
		return nil, fmt.Errorf("server: loading snapshot: %w", err)
	}
	// LoadAnyMode loads every path as a *geosir.ShardedEngine.
	sv, ok := loaded.(Serving)
	if !ok {
		return nil, fmt.Errorf("server: a %T cannot serve", loaded)
	}
	// A file is all or nothing; only a directory degrades, shard by shard.
	if !dir && !rec.Complete() {
		return nil, fmt.Errorf("server: loading snapshot: %w", rec.Shards[0].Recovery.Err)
	}
	if sv.NumShapes() == 0 {
		// An empty snapshot cannot serve.
		return nil, fmt.Errorf("server: snapshot %s holds no shapes", path)
	}
	// The format is the one the first live shard file's decoder read; a
	// directory names it <FORMAT>-SHARDED. The size is a file's.
	snap := SnapshotStatz{Source: path}
	for i, fr := range rec.Shards {
		if sv.Shard(i).NumShapes() > 0 {
			snap.Format = fr.Recovery.Format
			break
		}
	}
	if dir {
		snap.Format += "-SHARDED"
	} else {
		snap.SizeBytes = fi.Size()
	}
	if s.cfg.Ingest != nil {
		if err := sv.EnableIngest(geosir.IngestConfig{
			Dir:              path,
			CompactThreshold: s.cfg.Ingest.CompactThreshold,
			NoSync:           s.cfg.Ingest.NoSync,
		}); err != nil {
			return nil, fmt.Errorf("server: enabling ingestion: %w", err)
		}
	}
	snap.LoadedAt, snap.Shards = time.Now(), shardStatz(sv, rec)
	return &engineState{serving: sv, snapshot: snap}, nil
}

// shardStatz builds the per-shard status rows, folding in the load-time
// recovery report when the engine came from a snapshot.
func shardStatz(sv Serving, rec *geosir.ShardRecovery) []ShardStatz {
	out := make([]ShardStatz, sv.NumShards())
	for i := range out {
		sh := sv.Shard(i)
		out[i] = ShardStatz{
			Shard:  i,
			Live:   sh.NumShapes() > 0,
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

// routes is the one route table. Every /v1 and /admin route runs the one
// pipeline (serve), its method enforced by the pattern, and registers its
// metric row under the given name, so /statz lists exactly the endpoints
// registered here, from the first scrape. The admin routes do not admit:
// a reload or a compaction is maintenance, not query traffic, and must
// neither wait for nor hold a query slot.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/statz", s.handleStatz)
	for _, rt := range []struct {
		method, path, name string
		admit              bool
		h                  handler
	}{
		{"POST", "/admin/reload", "admin_reload", false, s.handleReload},
		{"POST", "/admin/compact", "admin_compact", false, s.handleCompact},
		{"POST", "/v1/search", "search", true, s.handleSearch},
		{"POST", "/v1/topological", "topological", true, s.handleTopological},
		{"POST", "/v1/images", "images_insert", true, s.handleInsertImage},
		{"DELETE", "/v1/images/{id}", "images_delete", true, s.handleDeleteImage},
	} {
		mux.HandleFunc(rt.method+" "+rt.path, s.handle(rt.name, rt.admit, rt.h))
		// The route's path under any other method: a 405 naming the one
		// method allowed, as the mux's own would.
		mux.HandleFunc(rt.path, s.unrouted(http.StatusMethodNotAllowed, rt.method))
	}
	mux.HandleFunc("/", s.unrouted(http.StatusNotFound, ""))
	return mux
}

// unrouted answers a request no route serves — a wrong method (405, with
// its Allow header) or an unknown path (404) — with a JSON error and an
// access-log line, as the pipeline answers a failure, but moves no
// /statz counter.
func (s *Server) unrouted(status int, allow string) http.HandlerFunc {
	return s.logged(func(w http.ResponseWriter, r *http.Request) {
		if allow != "" {
			w.Header().Set("Allow", allow)
		}
		s.writeError(w, status, fmt.Sprintf("%s %s: %s", r.Method, r.URL.Path, http.StatusText(status)))
	})
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

// writeJSON writes v as a JSON body; a []byte is a body already encoded
// (a search answer, see search) and is written unchanged.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if body, ok := v.([]byte); ok {
		_, _ = w.Write(body)
		return
	}
	_ = json.NewEncoder(w).Encode(v)
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

func countStatus(em *endpointMetrics, status int) {
	switch {
	case status >= 500:
		em.status5x.Add(1)
	case status >= 400:
		em.status4x.Add(1)
	}
}

// handler is one endpoint's decode-and-dispatch step. It receives the
// engine state loaded once for the request (engine + snapshot epoch — the
// pair the cache fingerprint must be consistent with; nil only on a route
// that does not admit, before the first load), the request and its body,
// and reports how the cache participated, so the pipeline can record it.
type handler func(ctx context.Context, st *engineState, r *http.Request, body []byte) (any, qcache.Disposition, error)

// handle wraps a handler in the pipeline (serve) plus the access log.
func (s *Server) handle(name string, admit bool, h handler) http.HandlerFunc {
	em := s.metrics.endpoint(name)
	return s.logged(func(w http.ResponseWriter, r *http.Request) { s.serve(w, r, em, admit, h) })
}

// logged writes one access-log line per request h answers.
func (s *Server) logged(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		h(rec, r)
		s.accessLog(r, rec.status, rec.bytes, time.Since(start))
	}
}

// serve is the one request pipeline: on a route that admits, readiness
// and admission control (a shed request is counted as shed, nothing
// else); then the request count and latency, the per-request deadline,
// the body read, the handler, its cache disposition, and the status
// table. The engine pointer is loaded exactly once per request.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, em *endpointMetrics, admit bool, h handler) {
	st := s.state.Load()
	if admit {
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
	}
	em.requests.Add(1)
	start := time.Now()
	defer func() { em.latency.observe(time.Since(start)) }()

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	body, err := s.readBody(w, r)
	var resp any
	if err == nil {
		var disp qcache.Disposition
		resp, disp, err = h(ctx, st, r, body)
		if s.cache != nil {
			// The disposition is a response *header*, never a body field:
			// the correctness contract is that cached and uncached serving
			// produce byte-identical bodies, so the diagnostic must ride
			// outside them.
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
	}
	if err != nil {
		status, retry := statusOf(err)
		if retry {
			w.Header().Set("Retry-After", "1")
		}
		countStatus(em, status)
		s.writeError(w, status, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// readBody reads a request body under Config.MaxBodyBytes: a body over
// the limit is a 413, any other read failure a 400.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		return nil, &apiError{status: status, msg: fmt.Sprintf("reading body: %v", err)}
	}
	return body, nil
}

// statusTable maps the request context's errors and the geosir
// sentinels to HTTP statuses; retry marks a transient failure, answered
// with Retry-After. The sentinels carry the client/server distinction:
// argument problems (bad k, empty query, frozen-state misuse) are the
// request's fault, an unfrozen engine is a serving-side sequencing bug,
// and a write meets a conflict, a missing image, a running compaction or
// a read-only snapshot.
var statusTable = []struct {
	err    error
	status int
	retry  bool
}{
	{context.DeadlineExceeded, http.StatusGatewayTimeout, false},
	{context.Canceled, 499, false},
	{geosir.ErrBadK, http.StatusUnprocessableEntity, false},
	{geosir.ErrEmptyQuery, http.StatusUnprocessableEntity, false},
	{geosir.ErrFrozen, http.StatusUnprocessableEntity, false},
	{geosir.ErrNotFrozen, http.StatusServiceUnavailable, false},
	{geosir.ErrImageExists, http.StatusConflict, false},
	{geosir.ErrNoImage, http.StatusNotFound, false},
	// Transient: the fold finishes and the write becomes possible.
	{geosir.ErrCompacting, http.StatusConflict, true},
	{geosir.ErrIngestOff, http.StatusConflict, false},
}

// statusOf maps a handler's error to its status: an apiError's own, else
// the first statusTable row it matches, else 500.
func statusOf(err error) (status int, retry bool) {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.status, false
	}
	for _, row := range statusTable {
		if errors.Is(err, row.err) {
			return row.status, row.retry
		}
	}
	return http.StatusInternalServerError, false
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

// runSearch answers a /v1/search request with its response body: from
// the engine (search) on the request's context when caching is off or the
// request has no fingerprint, else through the result cache. The cache
// stores the body search encoded, and a hit, a coalesced waiter and the
// miss that computed it all write those bytes, so every disposition
// answers identical bytes by construction.
//
// Caching keys on the canonical query fingerprint bound to this
// request's cache epoch (cacheEpoch: install epoch composed with the
// engine's mutation epoch): the (engine, epoch) pair was loaded
// atomically at admission, so neither a hot-swap nor a live write
// landing mid-request can pair this engine's results with another
// epoch's entries.
// The exec policy is deliberately outside the fingerprint — it schedules
// work, it never changes results (the exec equivalence suite pins it).
func (s *Server) runSearch(ctx context.Context, st *engineState, req geosir.SearchRequest) ([]byte, qcache.Disposition, error) {
	if s.cache == nil {
		body, err := s.search(ctx, st, req)
		return body, qcache.Bypass, err
	}
	fp, ok := qcache.SearchFingerprint(req, cacheEpoch(st))
	if !ok {
		// Unfingerprintable (degenerate shape, bad mode): let the engine
		// produce its usual error or result, uncached.
		s.cache.Bypassed()
		body, err := s.search(ctx, st, req)
		return body, qcache.Bypass, err
	}
	return s.cache.Do(ctx, fp, func() ([]byte, error) {
		// Detach the computation from this requester's cancellation: any
		// number of coalesced waiters may be depending on it, so one
		// client hanging up must not abort the shared search. The
		// configured request timeout still bounds it.
		dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), s.cfg.RequestTimeout)
		defer cancel()
		return s.search(dctx, st, req)
	})
}

// search is the one place a /v1/search request runs the engine: it
// searches, folds the response's ANN and block accounting into the
// cumulative /statz counters — so they count engine work actually
// performed, never a cache hit or a coalesced wait — and encodes the
// response body, trailing newline included. A response that cannot be
// encoded (a non-finite float) is an error, answered 500 and never
// cached.
func (s *Server) search(ctx context.Context, st *engineState, req geosir.SearchRequest) ([]byte, error) {
	resp, err := st.serving.Search(ctx, req)
	if err != nil {
		return nil, err
	}
	if resp.Stats.UsedANN {
		s.metrics.annQueries.Add(1)
		s.metrics.annProbes.Add(int64(resp.Stats.ANNProbes))
		s.metrics.annCandidates.Add(int64(resp.Stats.ANNCandidates))
	}
	if resp.Stats.BlockReads > 0 {
		s.metrics.endpoint("search").blockReads.Add(int64(resp.Stats.BlockReads))
	}
	body, err := json.Marshal(searchResponse{req.Mode.String(), resp.Matches, resp.SketchMatches, resp.Stats})
	if err != nil {
		return nil, fmt.Errorf("server: encoding the search response: %w", err)
	}
	return append(body, '\n'), nil
}

// searchRequest is the unified /v1/search wire request: one shape (or,
// for sketch mode, several), k, an optional mode name, an optional
// execution policy ("auto", "sequential") and an optional ANN tier mode
// ("off", "approx").
type searchRequest struct {
	Shape  *WireShape  `json:"shape,omitempty"`
	Shapes []WireShape `json:"shapes,omitempty"`
	K      int         `json:"k"`
	Mode   string      `json:"mode,omitempty"`
	Exec   string      `json:"exec,omitempty"`
	Ann    string      `json:"ann,omitempty"`
}

// searchResponse is the /v1/search wire response: the mode that answered
// and the engine's answer in the library's own JSON form.
type searchResponse struct {
	Mode          string               `json:"mode"`
	Matches       []geosir.Match       `json:"matches,omitempty"`
	SketchMatches []geosir.SketchMatch `json:"sketch_matches,omitempty"`
	Stats         geosir.Stats         `json:"stats"`
}

func (s *Server) handleSearch(ctx context.Context, st *engineState, _ *http.Request, body []byte) (any, qcache.Disposition, error) {
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
	exec, err := geosir.ParseExecPolicy(req.Exec)
	if err != nil {
		return nil, qcache.Bypass, unprocessable(err)
	}
	greq := geosir.SearchRequest{K: req.K, Mode: mode, Ann: ann, Exec: exec}
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
	body, disp, err := s.runSearch(ctx, st, greq)
	return body, disp, err
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
func (s *Server) handleTopological(ctx context.Context, st *engineState, _ *http.Request, body []byte) (any, qcache.Disposition, error) {
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

// handleReload loads the snapshot at the body's path, or — for an empty
// body — reloads the current source.
func (s *Server) handleReload(_ context.Context, st *engineState, _ *http.Request, body []byte) (any, qcache.Disposition, error) {
	var req reloadRequest
	if len(body) > 0 {
		if err := decodeStrict(body, &req); err != nil {
			return nil, qcache.Bypass, err
		}
	}
	if req.Path == "" && st != nil {
		req.Path = st.snapshot.Source
	}
	if req.Path == "" {
		return nil, qcache.Bypass, badRequest("no path given and no snapshot previously loaded")
	}
	start := time.Now()
	snap, err := s.LoadSnapshot(req.Path)
	if err != nil {
		return nil, qcache.Bypass, unprocessable(err)
	}
	return reloadResponse{
		Source: req.Path,
		Format: snap.Format,
		Images: snap.Images,
		Shapes: snap.Shapes,
		Shards: len(snap.Shards),
		LoadMs: ms(time.Since(start)),
	}, qcache.Bypass, nil
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

// ShardStatz is one shard's row in /statz.
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
	// Shards holds one row per shard (one for a snapshot file).
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
	Sched *geosir.SchedStats `json:"sched,omitempty"`
	ANN   *ANNStatz          `json:"ann,omitempty"`
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
		out.Sched = &ss
		out.Ingest = ingestStatz(st)
		ts := st.serving.StorageStats()
		out.Storage = &StorageStatz{
			LoadMode:         ts.LoadMode,
			MappedBytes:      ts.MappedBytes,
			ResidentEstimate: ts.ResidentBytes,
		}
		snap := st.statz()
		out.Snapshot = &snap
	}
	return out
}

// statz is the state's /statz snapshot section, its counts the engine's
// now.
func (st *engineState) statz() SnapshotStatz {
	snap := st.snapshot
	snap.Images = st.serving.NumImages()
	snap.Shapes = st.serving.NumShapes()
	snap.Entries = st.serving.NumEntries()
	return snap
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
