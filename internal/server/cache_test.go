package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	geosir "repro"
	"repro/internal/qcache"
)

// cacheOn is the Config the cache tests serve under.
func cacheOn() Config {
	return Config{CacheBytes: 1 << 20, MaxInFlight: 64, MaxQueue: 1024, QueueWait: 5 * time.Second}
}

// postRaw is post without the test-failure coupling: it returns the
// response, body, and cache header for equivalence comparisons.
func postRaw(t *testing.T, url string, body any) (int, []byte, string) {
	t.Helper()
	resp, raw := post(t, url, body)
	return resp.StatusCode, raw, resp.Header.Get("X-Geosir-Cache")
}

// transformWire applies rotation/scale/translation to a wire shape —
// the similarity transforms the fingerprint must be invariant under.
func transformWire(ws WireShape, theta, scale, dx, dy float64) WireShape {
	c, s := math.Cos(theta), math.Sin(theta)
	out := ws
	out.Points = make([][2]float64, len(ws.Points))
	for i, p := range ws.Points {
		out.Points[i] = [2]float64{
			scale*(c*p[0]-s*p[1]) + dx,
			scale*(s*p[0]+c*p[1]) + dy,
		}
	}
	return out
}

// TestCacheEquivalence is the core acceptance property: for every mode ×
// k × ann combination, the cached server's responses (miss, then hit)
// are byte-identical to an uncached server's response over the same
// one-shard engine. Run under -race in CI.
func TestCacheEquivalence(t *testing.T) {
	eng := testSharded(t, 1)

	plain := New(Config{})
	if err := plain.SetServing(eng, "(plain)"); err != nil {
		t.Fatal(err)
	}
	tsPlain := httptest.NewServer(plain.Handler())
	defer tsPlain.Close()

	cached := New(cacheOn())
	if err := cached.SetServing(eng, "(cached)"); err != nil {
		t.Fatal(err)
	}
	tsCached := httptest.NewServer(cached.Handler())
	defer tsCached.Close()

	type probe struct {
		name string
		path string
		body map[string]any
	}
	var probes []probe
	for _, mode := range []string{"auto", "exact", "approximate"} {
		for _, k := range []int{1, 3} {
			for _, ann := range []string{"", "approx"} {
				probes = append(probes, probe{
					name: fmt.Sprintf("search/%s/k%d/ann=%s", mode, k, ann),
					path: "/v1/search",
					body: map[string]any{"shape": wireSquare(), "k": k, "mode": mode, "ann": ann},
				})
			}
		}
	}
	for _, k := range []int{1, 3} {
		probes = append(probes,
			probe{fmt.Sprintf("search/sketch/k%d", k), "/v1/search",
				map[string]any{"shapes": []WireShape{wireSquare(), wireL()}, "k": k, "mode": "sketch"}},
			probe{fmt.Sprintf("search/default/k%d", k), "/v1/search",
				map[string]any{"shape": wireL(), "k": k}},
		)
	}

	for _, p := range probes {
		t.Run(p.name, func(t *testing.T) {
			stP, bodyP, hdrP := postRaw(t, tsPlain.URL+p.path, p.body)
			if stP != 200 {
				t.Fatalf("uncached: %d %s", stP, bodyP)
			}
			if hdrP != "" {
				t.Fatalf("uncached server must not set the cache header, got %q", hdrP)
			}
			st1, body1, hdr1 := postRaw(t, tsCached.URL+p.path, p.body)
			st2, body2, hdr2 := postRaw(t, tsCached.URL+p.path, p.body)
			if st1 != 200 || st2 != 200 {
				t.Fatalf("cached: %d / %d", st1, st2)
			}
			if hdr1 != "miss" || hdr2 != "hit" {
				t.Fatalf("dispositions = %q, %q; want miss then hit", hdr1, hdr2)
			}
			if !bytes.Equal(bodyP, body1) {
				t.Fatalf("miss body differs from uncached:\n  plain:  %s\n  cached: %s", bodyP, body1)
			}
			if !bytes.Equal(body1, body2) {
				t.Fatalf("hit body differs from miss body:\n  miss: %s\n  hit:  %s", body1, body2)
			}
		})
	}
}

// TestCacheAffineEquivalence: over a one-shard engine,
// similarity-transformed placements of one query are one cache entry;
// genuinely different queries are not.
func TestCacheAffineEquivalence(t *testing.T) {
	s := New(cacheOn())
	if err := s.SetServing(testSharded(t, 1), "(test)"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	base := wireSquare()
	_, body0, hdr0 := postRaw(t, ts.URL+"/v1/search", map[string]any{"shape": base, "k": 3})
	if hdr0 != "miss" {
		t.Fatalf("first request = %q, want miss", hdr0)
	}
	variants := []WireShape{
		transformWire(base, 0.7, 2.5, 31.4, -7.9),
		transformWire(base, -2.1, 0.33, -400, 12),
		transformWire(base, math.Pi/3, 17, 0.001, 9999),
	}
	for i, v := range variants {
		_, body, hdr := postRaw(t, ts.URL+"/v1/search", map[string]any{"shape": v, "k": 3})
		if hdr != "hit" {
			t.Fatalf("affine variant %d = %q, want hit", i, hdr)
		}
		if !bytes.Equal(body, body0) {
			t.Fatalf("affine variant %d body differs:\n  base:    %s\n  variant: %s", i, body0, body)
		}
	}
	// A different shape must not alias.
	if _, _, hdr := postRaw(t, ts.URL+"/v1/search", map[string]any{"shape": wireL(), "k": 3}); hdr != "miss" {
		t.Fatalf("different shape = %q, want miss", hdr)
	}
	// Same shape, different k: separate entry.
	if _, _, hdr := postRaw(t, ts.URL+"/v1/search", map[string]any{"shape": base, "k": 2}); hdr != "miss" {
		t.Fatalf("different k = %q, want miss", hdr)
	}
	// Topological is never cached.
	if _, _, hdr := postRaw(t, ts.URL+"/v1/topological",
		map[string]any{"query": "similar(a)", "binds": map[string]WireShape{"a": base}}); hdr != "bypass" {
		t.Fatalf("topological = %q, want bypass", hdr)
	}
}

// countingServing wraps a one-shard engine, counting Search calls and
// (optionally) blocking them until released — the observable the
// coalescing test needs; everything else is the engine's own.
type countingServing struct {
	Serving
	calls atomic.Int64
	block chan struct{} // nil = don't block
}

func (c *countingServing) Search(ctx context.Context, req geosir.SearchRequest) (*geosir.SearchResponse, error) {
	c.calls.Add(1)
	if c.block != nil {
		select {
		case <-c.block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return c.Serving.Search(ctx, req)
}

// TestCacheCoalescing: M concurrent identical requests cause exactly one
// Search of the one-shard engine behind countingServing; every client
// receives the full, identical response.
func TestCacheCoalescing(t *testing.T) {
	stub := &countingServing{Serving: testSharded(t, 1), block: make(chan struct{})}
	s := New(cacheOn())
	if err := s.SetServing(stub, "(stub)"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const m = 12
	reqBody, _ := json.Marshal(map[string]any{"shape": wireSquare(), "k": 3})
	type result struct {
		status int
		body   []byte
		disp   string
		err    error
	}
	results := make([]result, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(reqBody))
			if err != nil {
				results[i].err = err
				return
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			results[i] = result{resp.StatusCode, raw, resp.Header.Get("X-Geosir-Cache"), nil}
		}(i)
	}
	// Wait for the leader to be inside Search and all followers parked on
	// its flight, then release.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if stub.calls.Load() == 1 && s.cache.Snapshot().Waiting == m-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never coalesced: calls=%d waiting=%d", stub.calls.Load(), s.cache.Snapshot().Waiting)
		}
		time.Sleep(time.Millisecond)
	}
	close(stub.block)
	wg.Wait()

	if got := stub.calls.Load(); got != 1 {
		t.Fatalf("engine Search ran %d times for %d identical requests, want 1", got, m)
	}
	var misses, coalesced int
	for i, r := range results {
		if r.err != nil || r.status != 200 {
			t.Fatalf("client %d: status=%d err=%v", i, r.status, r.err)
		}
		if !bytes.Equal(r.body, results[0].body) {
			t.Fatalf("client %d body differs from client 0", i)
		}
		switch r.disp {
		case "miss":
			misses++
		case "coalesced":
			coalesced++
		default:
			t.Fatalf("client %d disposition = %q", i, r.disp)
		}
	}
	if misses != 1 || coalesced != m-1 {
		t.Fatalf("misses=%d coalesced=%d, want 1 and %d", misses, coalesced, m-1)
	}
}

// TestCacheLeaderDisconnectDoesNotPoisonWaiters: the computing leader's
// client hangs up mid-search of the one-shard engine behind
// countingServing; the coalesced waiter must still receive the complete
// result (the compute context is detached from the leader's request).
func TestCacheLeaderDisconnectDoesNotPoisonWaiters(t *testing.T) {
	stub := &countingServing{Serving: testSharded(t, 1), block: make(chan struct{})}
	s := New(cacheOn())
	if err := s.SetServing(stub, "(stub)"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	reqBody, _ := json.Marshal(map[string]any{"shape": wireSquare(), "k": 3})

	// Leader: a request we will cancel while the engine is "working".
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		req, _ := http.NewRequestWithContext(leaderCtx, http.MethodPost,
			ts.URL+"/v1/search", bytes.NewReader(reqBody))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for stub.calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never reached the engine")
		}
		time.Sleep(time.Millisecond)
	}

	// Waiter: a patient client that coalesces onto the leader's flight.
	waiterDone := make(chan result2, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			waiterDone <- result2{err: err}
			return
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		waiterDone <- result2{status: resp.StatusCode, body: raw, disp: resp.Header.Get("X-Geosir-Cache")}
	}()
	for s.cache.Snapshot().Waiting == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never parked")
		}
		time.Sleep(time.Millisecond)
	}

	// Kill the leader's connection, then let the engine finish.
	cancelLeader()
	<-leaderDone
	close(stub.block)

	got := <-waiterDone
	if got.err != nil || got.status != 200 {
		t.Fatalf("waiter: status=%d err=%v — leader disconnect poisoned the flight", got.status, got.err)
	}
	var out struct {
		Matches []MatchJSON `json:"matches"`
	}
	if err := json.Unmarshal(got.body, &out); err != nil || len(out.Matches) == 0 {
		t.Fatalf("waiter got an empty/broken body: %v %s", err, got.body)
	}
	if got := stub.calls.Load(); got != 1 {
		t.Fatalf("engine Search ran %d times, want 1", got)
	}
	// The result was cached despite the leader's disconnect.
	if _, _, hdr := postRaw(t, ts.URL+"/v1/search", map[string]any{"shape": wireSquare(), "k": 3}); hdr != "hit" {
		t.Fatalf("follow-up = %q, want hit", hdr)
	}
}

type result2 struct {
	status int
	body   []byte
	disp   string
	err    error
}

// TestCacheInvalidationUnderReload hammers a cached server while
// snapshots hot-swap: every response must be byte-identical to one of
// the two snapshots' canonical answers, each served by an uncached
// server loading that snapshot file (no stale serving, no epoch mixing),
// and a failed reload must leave both the engine and the cache intact.
func TestCacheInvalidationUnderReload(t *testing.T) {
	engA := testEngine(t) // 5 images
	engB := geosir.New(geosir.DefaultOptions())
	for id := 0; id < 3; id++ {
		if err := engB.AddImage(id, []geosir.Shape{sq(0, 0, float64(5+id))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := engB.Freeze(); err != nil {
		t.Fatal(err)
	}
	snapA := saveSnapshot(t, engA, "a.gsir")
	snapB := saveSnapshot(t, engB, "b.gsir")

	// Canonical answers, computed once against dedicated plain servers.
	canonical := func(snap string) []byte {
		p := New(Config{})
		if _, err := p.LoadSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		ref := httptest.NewServer(p.Handler())
		defer ref.Close()
		st, body, _ := postRaw(t, ref.URL+"/v1/search", map[string]any{"shape": wireSquare(), "k": 3})
		if st != 200 {
			t.Fatalf("canonical answer: %d %s", st, body)
		}
		return body
	}
	bodyA := canonical(snapA)
	bodyB := canonical(snapB)
	if bytes.Equal(bodyA, bodyB) {
		t.Fatal("test engines must answer distinguishably")
	}

	s := New(cacheOn())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.LoadSnapshot(snapA); err != nil {
		t.Fatal(err)
	}

	const clients = 8
	var failures, served atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	reqBody, _ := json.Marshal(map[string]any{"shape": wireSquare(), "k": 3})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(reqBody))
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
				// The no-stale-serving contract, at byte granularity: every
				// response is exactly engine A's answer or exactly engine B's.
				if !bytes.Equal(raw, bodyA) && !bytes.Equal(raw, bodyB) {
					t.Errorf("response matches neither engine (stale or mixed): %s", raw)
					failures.Add(1)
					continue
				}
				served.Add(1)
			}
		}()
	}
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
		t.Fatalf("%d bad responses during reloads (%d ok)", failures.Load(), served.Load())
	}
	if served.Load() == 0 {
		t.Fatal("no traffic served")
	}

	// --- failed reload leaves engine AND cache intact -----------------

	// Warm the cache on the current engine (last loop load was snapA).
	_, warmBody, hdrWarm := postRaw(t, ts.URL+"/v1/search", map[string]any{"shape": wireL(), "k": 2})
	epochBefore := s.Statz().Epoch
	if hdrWarm == "bypass" {
		t.Fatalf("warm request bypassed the cache")
	}
	resp, _ := post(t, ts.URL+"/admin/reload", map[string]string{"path": filepath.Join(t.TempDir(), "missing.gsir")})
	if resp.StatusCode != 422 {
		t.Fatalf("missing snapshot reload: %d, want 422", resp.StatusCode)
	}
	if got := s.Statz().Epoch; got != epochBefore {
		t.Fatalf("failed reload bumped the epoch %d → %d; cache was invalidated for nothing", epochBefore, got)
	}
	st, body, hdr := postRaw(t, ts.URL+"/v1/search", map[string]any{"shape": wireL(), "k": 2})
	if st != 200 || hdr != "hit" {
		t.Fatalf("post-failed-reload request = %d %q, want a 200 hit (cache intact)", st, hdr)
	}
	if !bytes.Equal(body, warmBody) {
		t.Fatal("post-failed-reload body differs from the warmed entry")
	}
}

// TestCacheStatzAndMetrics: over a one-shard engine, the cache surfaces
// in /statz (stats + epoch) and per-endpoint counters.
func TestCacheStatzAndMetrics(t *testing.T) {
	s := New(cacheOn())
	if err := s.SetServing(testSharded(t, 1), "(test)"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := map[string]any{"shape": wireSquare(), "k": 3}
	postRaw(t, ts.URL+"/v1/search", body) // miss
	postRaw(t, ts.URL+"/v1/search", body) // hit
	postRaw(t, ts.URL+"/v1/search", body) // hit

	_, raw := get(t, ts.URL+"/statz")
	var statz struct {
		Epoch     uint64        `json:"epoch"`
		Cache     *qcache.Stats `json:"cache"`
		Endpoints map[string]struct {
			CacheHits   int64 `json:"cache_hits"`
			CacheMisses int64 `json:"cache_misses"`
		} `json:"endpoints"`
	}
	if err := json.Unmarshal(raw, &statz); err != nil {
		t.Fatal(err)
	}
	if statz.Cache == nil {
		t.Fatalf("statz lacks a cache section: %s", raw)
	}
	if statz.Cache.Hits != 2 || statz.Cache.Misses != 1 || statz.Cache.Entries != 1 {
		t.Fatalf("cache stats = %+v", statz.Cache)
	}
	if statz.Epoch == 0 {
		t.Fatal("statz lacks the snapshot epoch")
	}
	ep := statz.Endpoints["search"]
	if ep.CacheHits != 2 || ep.CacheMisses != 1 {
		t.Fatalf("endpoint cache counters = %+v", ep)
	}

	// A cache-off server reports no cache section and no header.
	off := New(Config{})
	if err := off.SetServing(testSharded(t, 1), "(off)"); err != nil {
		t.Fatal(err)
	}
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	_, _, hdr := postRaw(t, tsOff.URL+"/v1/search", body)
	if hdr != "" {
		t.Fatalf("cache-off server set header %q", hdr)
	}
	_, raw = get(t, tsOff.URL+"/statz")
	var offStatz struct {
		Cache *qcache.Stats `json:"cache"`
	}
	if err := json.Unmarshal(raw, &offStatz); err != nil {
		t.Fatal(err)
	}
	if offStatz.Cache != nil {
		t.Fatalf("cache-off statz reports a cache section: %+v", offStatz.Cache)
	}
}

// TestCacheHoldsServedBody: the cache stores the body the server writes.
// After a miss, the entry under the request's fingerprint is exactly the
// response body, trailing newline included, and the next hit answers the
// same bytes — for a single-shape mode and for a sketch.
func TestCacheHoldsServedBody(t *testing.T) {
	s := New(cacheOn())
	if err := s.SetServing(testSharded(t, 1), "(test)"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	square, err := wireSquare().Shape()
	if err != nil {
		t.Fatal(err)
	}
	l, err := wireL().Shape()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		body map[string]any
		req  geosir.SearchRequest
	}{
		{"exact", map[string]any{"shape": wireSquare(), "k": 3, "mode": "exact"},
			geosir.SearchRequest{Query: square, K: 3, Mode: geosir.ModeExact}},
		{"sketch", map[string]any{"shapes": []WireShape{wireSquare(), wireL()}, "k": 2, "mode": "sketch"},
			geosir.SearchRequest{Sketch: []geosir.Shape{square, l}, K: 2, Mode: geosir.ModeSketch}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st1, body1, hdr1 := postRaw(t, ts.URL+"/v1/search", tc.body)
			if st1 != 200 || hdr1 != "miss" {
				t.Fatalf("first search: %d %q %s", st1, hdr1, body1)
			}
			fp, ok := qcache.SearchFingerprint(tc.req, cacheEpoch(s.state.Load()))
			if !ok {
				t.Fatal("request has no fingerprint")
			}
			stored, ok := s.cache.Get(fp)
			if !ok {
				t.Fatal("the miss stored no entry under the request's fingerprint")
			}
			if !bytes.Equal(stored, body1) {
				t.Fatalf("stored entry is not the served body:\n  stored: %q\n  served: %q", stored, body1)
			}
			st2, body2, hdr2 := postRaw(t, ts.URL+"/v1/search", tc.body)
			if st2 != 200 || hdr2 != "hit" || !bytes.Equal(body2, body1) {
				t.Fatalf("hit: %d %q, body equal to the miss's: %v", st2, hdr2, bytes.Equal(body2, body1))
			}
		})
	}
}

// TestCacheChargesEngineWorkOnce: /statz's ANN and block counters count
// engine work, so one ann:approx miss and two hits of it read as the one
// search an uncached server runs.
func TestCacheChargesEngineWorkOnce(t *testing.T) {
	eng := testSharded(t, 1)
	body := map[string]any{"shape": wireL(), "k": 3, "ann": "approx"}
	statz := func(cfg Config, searches int) Statz {
		t.Helper()
		s := New(cfg)
		if err := s.SetServing(eng, "(test)"); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		for i := 0; i < searches; i++ {
			if st, raw, _ := postRaw(t, ts.URL+"/v1/search", body); st != 200 {
				t.Fatalf("search %d: %d %s", i, st, raw)
			}
		}
		return s.Statz()
	}
	plain, cached := statz(Config{}, 1), statz(cacheOn(), 3)

	if cached.Cache.Hits != 2 || cached.Cache.Misses != 1 {
		t.Fatalf("cache = %+v, want 1 miss and 2 hits", cached.Cache)
	}
	if plain.ANN == nil || cached.ANN == nil {
		t.Fatalf("ann sections: uncached %+v, cached %+v", plain.ANN, cached.ANN)
	}
	if cached.ANN.Queries != 1 || *cached.ANN != *plain.ANN {
		t.Errorf("cached ann = %+v, want the uncached server's %+v with 1 query", *cached.ANN, *plain.ANN)
	}
	want := plain.Endpoints["search"].BlockReads
	if got := cached.Endpoints["search"].BlockReads; want <= 0 || got != want {
		t.Errorf("search block_reads = %d cached, %d uncached; want equal and positive", got, want)
	}
}
