package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	geosir "repro"
)

func sq(x, y, side float64) geosir.Shape {
	return geosir.NewPolygon(geosir.Pt(x, y), geosir.Pt(x+side, y),
		geosir.Pt(x+side, y+side), geosir.Pt(x, y+side))
}

func tri(x, y, s float64) geosir.Shape {
	return geosir.NewPolygon(geosir.Pt(x, y), geosir.Pt(x+s, y), geosir.Pt(x, y+2*s))
}

func lsh(x, y, s float64) geosir.Shape {
	return geosir.NewPolygon(
		geosir.Pt(x, y), geosir.Pt(x+2*s, y), geosir.Pt(x+2*s, y+s),
		geosir.Pt(x+s, y+s), geosir.Pt(x+s, y+3*s), geosir.Pt(x, y+3*s))
}

// testEngine builds a small frozen base: squares, triangles, an L-shape.
func testEngine(t *testing.T) *geosir.Engine {
	t.Helper()
	eng := geosir.New(geosir.DefaultOptions())
	images := [][]geosir.Shape{
		{sq(0, 0, 20), tri(5, 5, 3)},
		{sq(0, 0, 10), sq(8, 8, 6)},
		{tri(0, 0, 4)},
		{lsh(0, 0, 2)},
		{sq(0, 0, 20), lsh(3, 3, 1.5)},
	}
	for id, shapes := range images {
		if err := eng.AddImage(id, shapes); err != nil {
			t.Fatalf("AddImage(%d): %v", id, err)
		}
	}
	if err := eng.Freeze(); err != nil {
		t.Fatal(err)
	}
	return eng
}

// newTestServer builds a ready server plus its httptest host, serving
// the test base as a one-shard engine — what a snapshot file of it loads
// as — so the tests over it hold for the engine geosird serves.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	if err := s.SetServing(testSharded(t, 1), "(test)"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func wireSquare() WireShape {
	return WireShape{Points: [][2]float64{{0, 0}, {12, 0}, {12, 12}, {0, 12}}, Closed: true}
}

func wireL() WireShape {
	return WireShape{Points: [][2]float64{{0, 0}, {4, 0}, {4, 2}, {2, 2}, {2, 6}, {0, 6}}, Closed: true}
}

// bowtie is syntactically valid JSON but a non-simple polygon.
func wireBowtie() WireShape {
	return WireShape{Points: [][2]float64{{0, 0}, {1, 1}, {1, 0}, {0, 1}}, Closed: true}
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	switch b := body.(type) {
	case string:
		buf.WriteString(b)
	default:
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestHealthAndReady: before any engine the server is healthy but not
// ready, and query endpoints shed with 503 + Retry-After; installing a
// one-shard engine makes it ready.
func TestHealthAndReady(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if resp, body := get(t, ts.URL+"/healthz"); resp.StatusCode != 200 || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz: %d %q", resp.StatusCode, body)
	}
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != 503 {
		t.Errorf("readyz before load: %d, want 503", resp.StatusCode)
	}
	// Query endpoints shed with 503 + Retry-After until a snapshot lands.
	if resp, _ := post(t, ts.URL+"/v1/search", map[string]any{"shape": wireSquare(), "k": 1}); resp.StatusCode != 503 || resp.Header.Get("Retry-After") == "" {
		t.Errorf("search before load: %d Retry-After=%q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if err := s.SetServing(testSharded(t, 1), "(test)"); err != nil {
		t.Fatal(err)
	}
	if resp, body := get(t, ts.URL+"/readyz"); resp.StatusCode != 200 || !strings.Contains(string(body), "ready") {
		t.Errorf("readyz after load: %d %q", resp.StatusCode, body)
	}
}

func TestSimilarEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := post(t, ts.URL+"/v1/search", map[string]any{"shape": wireSquare(), "k": 2})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content-type %q", ct)
	}
	var out searchResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decode: %v in %s", err, raw)
	}
	if out.Mode != "auto" {
		t.Errorf("mode %q, want the default auto", out.Mode)
	}
	if len(out.Matches) != 2 {
		t.Fatalf("matches = %d, want 2: %s", len(out.Matches), raw)
	}
	// A square query must rank a square image first, exactly.
	if out.Matches[0].Distance > 1e-6 {
		t.Errorf("best distance %v", out.Matches[0].Distance)
	}
	if out.Stats.Iterations <= 0 {
		t.Errorf("stats missing: %+v", out.Stats)
	}
	// Result must be identical to calling the library directly.
	lib, err := testEngine(t).Search(context.Background(), geosir.SearchRequest{Query: sq(0, 0, 12), K: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := lib.Matches
	for i := range want {
		if want[i].ShapeID != out.Matches[i].ShapeID || want[i].ImageID != out.Matches[i].ImageID {
			t.Errorf("rank %d: got shape %d image %d, want shape %d image %d",
				i, out.Matches[i].ShapeID, out.Matches[i].ImageID, want[i].ShapeID, want[i].ImageID)
		}
	}
}

func TestApproximateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := post(t, ts.URL+"/v1/search", map[string]any{"shape": wireL(), "k": 3, "mode": "approximate"})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out searchResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Stats.UsedHashing {
		t.Error("approximate mode must report used_hashing")
	}
	if len(out.Matches) == 0 {
		t.Fatalf("no approximate matches: %s", raw)
	}
	for _, m := range out.Matches {
		if !m.Approximate {
			t.Errorf("match %+v not flagged approximate", m)
		}
	}
}

func TestSketchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Image 0 and 4 hold a big square; image 4 holds square + L.
	body := map[string]any{
		"shapes": []WireShape{
			{Points: [][2]float64{{0, 0}, {20, 0}, {20, 20}, {0, 20}}, Closed: true},
			{Points: [][2]float64{{0, 0}, {3, 0}, {3, 1.5}, {1.5, 1.5}, {1.5, 4.5}, {0, 4.5}}, Closed: true},
		},
		"k":    3,
		"mode": "sketch",
	}
	resp, raw := post(t, ts.URL+"/v1/search", body)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out searchResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.SketchMatches) == 0 {
		t.Fatalf("no sketch matches: %s", raw)
	}
	if out.SketchMatches[0].ImageID != 4 {
		t.Errorf("best image = %d, want 4 (square + L): %s", out.SketchMatches[0].ImageID, raw)
	}
	if len(out.SketchMatches[0].PerShape) != 2 {
		t.Errorf("per_shape = %v", out.SketchMatches[0].PerShape)
	}
}

func TestTopologicalEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := map[string]any{
		"query": "similar(q)",
		"binds": map[string]WireShape{"q": wireL()},
	}
	resp, raw := post(t, ts.URL+"/v1/topological", body)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		Images []int  `json:"images"`
		Plan   string `json:"plan"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Plan == "" {
		t.Error("missing plan")
	}
	// Images 3 and 4 contain L-shapes.
	found := map[int]bool{}
	for _, id := range out.Images {
		found[id] = true
	}
	if !found[3] || !found[4] {
		t.Errorf("images = %v, want 3 and 4 present", out.Images)
	}
	// Malformed query language → 422.
	resp, _ = post(t, ts.URL+"/v1/topological", map[string]any{"query": "similar(("})
	if resp.StatusCode != 422 {
		t.Errorf("bad query: %d, want 422", resp.StatusCode)
	}
}

// gatedServing wraps a one-shard engine and runs gate, with the request's
// own ctx, before passing each topological Query on to it; everything
// else is the engine's own.
type gatedServing struct {
	Serving
	gate func(ctx context.Context)
}

func (g gatedServing) Query(ctx context.Context, src string, binds map[string]geosir.Shape) ([]int, string, error) {
	g.gate(ctx)
	return g.Serving.Query(ctx, src, binds)
}

func newGatedServer(t *testing.T, cfg Config, gate func(ctx context.Context)) (*geosir.ShardedEngine, *httptest.Server) {
	t.Helper()
	eng := testSharded(t, 1)
	s := New(cfg)
	if err := s.SetServing(gatedServing{Serving: eng, gate: gate}, "(gated)"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return eng, ts
}

// TestTopologicalRequestsOverlap: /v1/topological requests are served
// concurrently. Each one is held in the engine until all n are in flight
// at once, which a server that serialised them could never reach (each
// would then time out with 504), and every response equals the engine's
// own sequential answer.
func TestTopologicalRequestsOverlap(t *testing.T) {
	const n = 6
	var in atomic.Int32
	all := make(chan struct{})
	eng, ts := newGatedServer(t, Config{MaxInFlight: n, RequestTimeout: 5 * time.Second}, func(ctx context.Context) {
		if in.Add(1) == n {
			close(all)
		}
		select {
		case <-all:
		case <-ctx.Done():
		}
	})
	const src = "similar(q) OR contain(sq, q, any)"
	binds := map[string]WireShape{"q": wireL(), "sq": wireSquare()}
	shapes := map[string]geosir.Shape{}
	for name, ws := range binds {
		sh, err := ws.Shape()
		if err != nil {
			t.Fatal(err)
		}
		shapes[name] = sh
	}
	wantIDs, wantPlan, err := eng.Query(context.Background(), src, shapes)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(topologicalResponse{Images: wantIDs, Plan: wantPlan})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, raw := post(t, ts.URL+"/v1/topological", map[string]any{"query": src, "binds": binds})
			if resp.StatusCode != 200 || string(bytes.TrimSpace(raw)) != string(want) {
				t.Errorf("status %d: %s, want 200: %s", resp.StatusCode, raw, want)
			}
		}()
	}
	wg.Wait()
}

// TestTopologicalDeadline504: a topological request whose deadline passes
// before the engine runs it is stopped by the engine and answers 504.
func TestTopologicalDeadline504(t *testing.T) {
	_, ts := newGatedServer(t, Config{RequestTimeout: 20 * time.Millisecond}, func(ctx context.Context) { <-ctx.Done() })
	resp, raw := post(t, ts.URL+"/v1/topological", map[string]any{
		"query": "similar(q)",
		"binds": map[string]WireShape{"q": wireL()},
	})
	if resp.StatusCode != 504 || !strings.Contains(string(raw), context.DeadlineExceeded.Error()) {
		t.Errorf("status %d: %s, want 504 and the deadline error", resp.StatusCode, raw)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name string
		path string
		body any
		want int
	}{
		{"malformed JSON", "/v1/search", `{"shape": {`, 400},
		{"empty body", "/v1/search", ``, 400},
		{"non-object body", "/v1/search", `[1,2`, 400},
		{"non-simple shape", "/v1/search", map[string]any{"shape": wireBowtie(), "k": 1}, 422},
		{"k zero", "/v1/search", map[string]any{"shape": wireSquare()}, 422},
		{"too few vertices", "/v1/search", map[string]any{"shape": WireShape{Points: [][2]float64{{0, 0}, {1, 1}}, Closed: true}, "k": 1}, 422},
		{"approximate bowtie", "/v1/search", map[string]any{"shape": wireBowtie(), "k": 1, "mode": "approximate"}, 422},
		{"unknown ann mode", "/v1/search", map[string]any{"shape": wireSquare(), "k": 1, "ann": "verify"}, 422},
		{"sketch empty", "/v1/search", map[string]any{"shapes": []WireShape{}, "k": 1, "mode": "sketch"}, 422},
		{"sketch bad shape", "/v1/search", map[string]any{"shapes": []WireShape{wireBowtie()}, "k": 1, "mode": "sketch"}, 422},
		{"topological empty query", "/v1/topological", map[string]any{"query": ""}, 422},
		{"topological bad bind", "/v1/topological", map[string]any{"query": "similar(q)", "binds": map[string]WireShape{"q": wireBowtie()}}, 422},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := post(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.want {
				t.Errorf("status %d, want %d: %s", resp.StatusCode, tc.want, raw)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
				t.Errorf("error body missing: %s", raw)
			}
		})
	}
	// Wrong method → 405 with Allow.
	resp, _ := get(t, ts.URL+"/v1/search")
	if resp.StatusCode != 405 || resp.Header.Get("Allow") != "POST" {
		t.Errorf("GET search: %d Allow=%q", resp.StatusCode, resp.Header.Get("Allow"))
	}
}

// compactingServing is a one-shard engine whose ingestion reports
// enabled and whose every compaction meets one already running.
type compactingServing struct{ Serving }

func (compactingServing) IngestEnabled() bool { return true }
func (compactingServing) Compact() error      { return geosir.ErrCompacting }

// TestStatusTable pins the pipeline's one error → status mapping. Each
// row is the status the endpoint that can meet the error answers — a
// search its argument and state sentinels, a write or a compaction the
// ingest ones, any admitted request its deadline and cancellation —
// bare or wrapped; an apiError keeps its own status, anything else is a
// 500. A compaction conflict also carries Retry-After, end to end.
func TestStatusTable(t *testing.T) {
	for _, tc := range []struct {
		err    error
		status int
		retry  bool
	}{
		{geosir.ErrBadK, http.StatusUnprocessableEntity, false},
		{geosir.ErrEmptyQuery, http.StatusUnprocessableEntity, false},
		{geosir.ErrFrozen, http.StatusUnprocessableEntity, false},
		{geosir.ErrNotFrozen, http.StatusServiceUnavailable, false},
		{geosir.ErrImageExists, http.StatusConflict, false},
		{geosir.ErrNoImage, http.StatusNotFound, false},
		{geosir.ErrCompacting, http.StatusConflict, true},
		{geosir.ErrIngestOff, http.StatusConflict, false},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, false},
		{context.Canceled, 499, false},
		{badRequest("bad"), http.StatusBadRequest, false},
		{errors.New("disk on fire"), http.StatusInternalServerError, false},
	} {
		for _, err := range []error{tc.err, fmt.Errorf("wrapped: %w", tc.err)} {
			if status, retry := statusOf(err); status != tc.status || retry != tc.retry {
				t.Errorf("statusOf(%v) = %d retry=%v, want %d retry=%v", err, status, retry, tc.status, tc.retry)
			}
		}
	}

	s := New(Config{})
	if err := s.SetServing(compactingServing{testSharded(t, 1)}, "(compacting)"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, raw := post(t, ts.URL+"/admin/compact", "")
	if resp.StatusCode != http.StatusConflict || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("compact during a compaction: %d Retry-After=%q %s, want 409 with Retry-After 1",
			resp.StatusCode, resp.Header.Get("Retry-After"), raw)
	}
	if ep := s.Statz().Endpoints["admin_compact"]; ep.Requests != 1 || ep.Status4x != 1 || ep.Shed != 0 {
		t.Fatalf("admin_compact counters = %+v, want one request answered 4xx", ep)
	}
}

func TestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	resp, _ := post(t, ts.URL+"/v1/search", map[string]any{"shape": wireSquare(), "k": 1})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: %d, want 413", resp.StatusCode)
	}
}

// TestLegacyEndpointsGone pins the query surface: the per-mode endpoints
// /v1/search subsumed answer 404, and /statz lists exactly the endpoints
// the route table registers.
func TestLegacyEndpointsGone(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/similar", "/v1/approximate", "/v1/sketch"} {
		body := map[string]any{"shape": wireSquare(), "shapes": []WireShape{wireSquare()}, "k": 1}
		if resp, raw := post(t, ts.URL+path, body); resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s: %d, want 404: %s", path, resp.StatusCode, raw)
		}
	}
	want := []string{"admin_compact", "admin_reload", "images_delete", "images_insert", "search", "topological"}
	var got []string
	for name := range s.Statz().Endpoints {
		got = append(got, name)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("statz endpoints = %v, want %v", got, want)
	}
}

func TestOverloadSheds429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 1, QueueWait: 20 * time.Millisecond})
	// Occupy the only in-flight slot and the only queue slot directly, so
	// the next HTTP arrival overflows the queue deterministically.
	if err := s.limiter.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.limiter.release()
	parked := make(chan error, 1)
	go func() { parked <- s.limiter.acquire(context.Background()) }()
	deadline := time.Now().Add(2 * time.Second)
	for s.limiter.queueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never parked")
		}
		time.Sleep(time.Millisecond)
	}
	resp, raw := post(t, ts.URL+"/v1/search", map[string]any{"shape": wireSquare(), "k": 1})
	if resp.StatusCode != 429 {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 must carry Retry-After")
	}
	<-parked // the queued waiter sheds with 503 after QueueWait
	// Shed counter moved.
	if got := s.metrics.endpoint("search").shed.Load(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
	// After load drains, the endpoint serves again.
	s.limiter.release()
	defer func() {
		if err := s.limiter.acquire(context.Background()); err != nil {
			t.Errorf("re-acquire for balanced deferred release: %v", err)
		}
	}()
	resp, raw = post(t, ts.URL+"/v1/search", map[string]any{"shape": wireSquare(), "k": 1})
	if resp.StatusCode != 200 {
		t.Fatalf("post-overload status %d: %s", resp.StatusCode, raw)
	}
}

func TestStatzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Drive one request of each kind so counters move.
	post(t, ts.URL+"/v1/search", map[string]any{"shape": wireSquare(), "k": 1})
	post(t, ts.URL+"/v1/search", `{"oops`)
	post(t, ts.URL+"/v1/search", map[string]any{"shapes": []WireShape{wireSquare(), wireL()}, "k": 1, "mode": "sketch"})

	resp, raw := get(t, ts.URL+"/statz")
	if resp.StatusCode != 200 {
		t.Fatalf("statz: %d", resp.StatusCode)
	}
	var st Statz
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("statz decode: %v in %s", err, raw)
	}
	if !st.Ready || st.Snapshot == nil || st.Snapshot.Shapes != 8 {
		t.Errorf("statz = %s", raw)
	}
	if st.Schema != StatzSchema {
		t.Errorf("statz schema = %d, want %d", st.Schema, StatzSchema)
	}
	// The sched section reports the engine's scheduler: the gauge is
	// idle between requests, and each of the two searches above planned
	// one execution (a one-shard engine is one part: its single-shape
	// search is a sequential plan).
	if st.Sched == nil {
		t.Fatalf("statz has no sched section: %s", raw)
	}
	if st.Sched.InFlight != 0 {
		t.Errorf("sched.in_flight = %d, want 0 between requests", st.Sched.InFlight)
	}
	if st.Sched.PlansFanout+st.Sched.PlansSequential != 2 || st.Sched.PlansSequential == 0 {
		t.Errorf("sched plans = %d fanout + %d sequential, want 2 total, the single-shape one sequential", st.Sched.PlansFanout, st.Sched.PlansSequential)
	}
	// Schema 3: the storage section reports how the snapshot is held.
	// The server serves a heap-built engine, so nothing is mapped.
	if st.Storage == nil || st.Storage.LoadMode != "heap" || st.Storage.MappedBytes != 0 {
		t.Errorf("storage section = %+v, want heap with no mapping", st.Storage)
	}
	sim, ok := st.Endpoints["search"]
	if !ok {
		t.Fatalf("no search endpoint in statz: %s", raw)
	}
	if sim.Requests != 3 || sim.Status4x != 1 {
		t.Errorf("search endpoint stats = %+v", sim)
	}
	// The successful searches evaluated candidates, so the block
	// accounting must have moved for the endpoint that ran them.
	if sim.BlockReads <= 0 {
		t.Errorf("search block_reads = %d, want > 0", sim.BlockReads)
	}
	if sim.P50Ms <= 0 || sim.P99Ms < sim.P50Ms {
		t.Errorf("latency quantiles implausible: %+v", sim)
	}
	// Every endpoint is registered even without traffic.
	for _, name := range []string{"topological", "admin_reload"} {
		if _, ok := st.Endpoints[name]; !ok {
			t.Errorf("endpoint %q missing from statz", name)
		}
	}

	// /metrics is a flat expvar-style JSON document embedding the same data.
	resp, raw = get(t, ts.URL+"/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	var vars struct {
		Geosird Statz `json:"geosird"`
		Process struct {
			Alloc      uint64 `json:"alloc"`
			Goroutines int    `json:"goroutines"`
		} `json:"process"`
	}
	if err := json.Unmarshal(raw, &vars); err != nil {
		t.Fatalf("metrics decode: %v in %s", err, raw)
	}
	if vars.Geosird.Endpoints["search"].Requests != 3 || vars.Process.Goroutines <= 0 {
		t.Errorf("metrics = %s", raw)
	}
}

func saveSnapshot(t *testing.T, eng *geosir.Engine, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := eng.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReloadEndpoint(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	snapA := saveSnapshot(t, testEngine(t), "a.gsir")

	// Reload with no previous snapshot and no path → 400.
	resp, _ := post(t, ts.URL+"/admin/reload", "")
	if resp.StatusCode != 400 {
		t.Errorf("pathless reload before boot: %d, want 400", resp.StatusCode)
	}
	// Load A explicitly.
	resp, raw := post(t, ts.URL+"/admin/reload", map[string]string{"path": snapA})
	if resp.StatusCode != 200 {
		t.Fatalf("reload: %d %s", resp.StatusCode, raw)
	}
	var out reloadResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Images != 5 || out.Shapes != 8 || out.Format != "GSIR3" {
		t.Errorf("reload response = %+v", out)
	}
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != 200 {
		t.Error("not ready after reload")
	}
	// Empty body now re-reads the active snapshot path.
	resp, raw = post(t, ts.URL+"/admin/reload", "")
	if resp.StatusCode != 200 {
		t.Fatalf("implicit reload: %d %s", resp.StatusCode, raw)
	}
	// A missing file fails the reload and leaves the old engine serving.
	resp, _ = post(t, ts.URL+"/admin/reload", map[string]string{"path": filepath.Join(t.TempDir(), "gone.gsir")})
	if resp.StatusCode != 422 {
		t.Errorf("missing snapshot reload: %d, want 422", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/v1/search", map[string]any{"shape": wireSquare(), "k": 1}); resp.StatusCode != 200 {
		t.Error("old engine must keep serving after failed reload")
	}
	// GET → 405.
	if resp, _ := get(t, ts.URL+"/admin/reload"); resp.StatusCode != 405 {
		t.Error("GET reload should 405")
	}
}

// TestReloadRejectsUnknownField: /admin/reload decodes its body as
// strictly as every other endpoint. A misspelt field answers 400 and
// reloads nothing, a body over the limit answers 413, and an empty body
// still reloads the current source.
func TestReloadRejectsUnknownField(t *testing.T) {
	s := New(Config{MaxBodyBytes: 256})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	snapA := saveSnapshot(t, testEngine(t), "a.gsir")
	snapB := saveSnapshot(t, testEngine(t), "b.gsir")
	if _, err := s.LoadSnapshot(snapA); err != nil {
		t.Fatal(err)
	}
	reloads := s.metrics.reloads.Load()
	if resp, raw := post(t, ts.URL+"/admin/reload", map[string]string{"paht": snapB}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("misspelt field: %d %s, want 400", resp.StatusCode, raw)
	}
	if got := s.metrics.reloads.Load(); got != reloads {
		t.Errorf("a rejected body reloaded: %d reloads, want %d", got, reloads)
	}
	if resp, raw := post(t, ts.URL+"/admin/reload", map[string]string{"path": strings.Repeat("x", 300)}); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: %d %s, want 413", resp.StatusCode, raw)
	}
	if resp, raw := post(t, ts.URL+"/admin/reload", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("empty body: %d %s, want 200", resp.StatusCode, raw)
	}
	if got := s.metrics.reloads.Load(); got != reloads+1 {
		t.Errorf("empty body: %d reloads, want %d", got, reloads+1)
	}
	if src := s.Statz().Snapshot.Source; src != snapA {
		t.Errorf("serving %s, want the current source %s", src, snapA)
	}
}

// TestReloadUnderTraffic hammers the query endpoints while snapshots swap
// repeatedly; no request may fail, and every response must come from a
// fully-loaded engine (the two bases answer with disjoint image-count
// signatures, never a mix).
func TestReloadUnderTraffic(t *testing.T) {
	s := New(Config{MaxInFlight: 32, MaxQueue: 1024, QueueWait: 5 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Base A: 5 images (testEngine). Base B: 3 images of squares only.
	engB := geosir.New(geosir.DefaultOptions())
	for id := 0; id < 3; id++ {
		if err := engB.AddImage(id, []geosir.Shape{sq(0, 0, float64(5+id))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := engB.Freeze(); err != nil {
		t.Fatal(err)
	}
	snapA := saveSnapshot(t, testEngine(t), "a.gsir")
	snapB := saveSnapshot(t, engB, "b.gsir")
	if _, err := s.LoadSnapshot(snapA); err != nil {
		t.Fatal(err)
	}

	const clients = 8
	var failures atomic.Int64
	var served atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(map[string]any{"shape": wireSquare(), "k": 3})
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
				if err != nil {
					failures.Add(1)
					continue
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("request failed during reload: %d %s", resp.StatusCode, raw)
					failures.Add(1)
					continue
				}
				var out struct {
					Matches []MatchJSON `json:"matches"`
				}
				if err := json.Unmarshal(raw, &out); err != nil || len(out.Matches) == 0 {
					t.Errorf("bad response during reload: %v %s", err, raw)
					failures.Add(1)
					continue
				}
				served.Add(1)
			}
		}()
	}
	// Swap snapshots back and forth while traffic flows.
	for i := 0; i < 10; i++ {
		path := snapA
		if i%2 == 0 {
			path = snapB
		}
		if _, err := s.LoadSnapshot(path); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d failed requests during reloads (%d served)", failures.Load(), served.Load())
	}
	if served.Load() == 0 {
		t.Fatal("no traffic served")
	}
	if got := s.metrics.reloads.Load(); got < 11 {
		t.Errorf("reload counter = %d, want ≥ 11", got)
	}
}
