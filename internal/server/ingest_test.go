package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// newIngestTestServer saves a sharded base into a temp snapshot
// directory and serves it with live ingestion enabled (manual
// compaction, no WAL fsync).
func newIngestTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	if err := testSharded(t, 2).SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if cfg.Ingest == nil {
		cfg.Ingest = &IngestOptions{CompactThreshold: -1, NoSync: true}
	}
	s := New(cfg)
	if _, err := s.LoadSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = s.Serving().CloseIngest() })
	return s, ts, dir
}

// wirePentagon is geometrically unlike every shape in the test base, so
// an exact search for it can only hit the image that carries it.
func wirePentagon() WireShape {
	return WireShape{Points: [][2]float64{{0, 0}, {6, 0}, {7.5, 4}, {3, 7}, {-1.5, 4}}, Closed: true}
}

func del(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf [4096]byte
	n, _ := resp.Body.Read(buf[:])
	return resp, buf[:n]
}

// topImage runs an exact k=1 search for the given shape and returns the
// best match's image id (-1 when nothing matched).
func topImage(t *testing.T, ts *httptest.Server, shape WireShape) int {
	t.Helper()
	resp, raw := post(t, ts.URL+"/v1/search", map[string]any{"shape": shape, "k": 1, "mode": "exact"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: %d %s", resp.StatusCode, raw)
	}
	var sr struct {
		Matches []MatchJSON `json:"matches"`
	}
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Matches) == 0 {
		return -1
	}
	return sr.Matches[0].ImageID
}

// TestImagesCRUD is the end-to-end live-ingestion flow over HTTP:
// insert → immediately searchable, duplicate insert → 409, compact →
// still searchable, delete → gone, delete again → 404.
func TestImagesCRUD(t *testing.T) {
	s, ts, _ := newIngestTestServer(t, Config{})

	resp, raw := post(t, ts.URL+"/v1/images", map[string]any{"id": 9, "shapes": []WireShape{wirePentagon()}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %d %s", resp.StatusCode, raw)
	}
	if got := topImage(t, ts, wirePentagon()); got != 9 {
		t.Fatalf("inserted image not served: top match is image %d", got)
	}

	resp, raw = post(t, ts.URL+"/v1/images", map[string]any{"id": 9, "shapes": []WireShape{wirePentagon()}})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate insert: %d %s", resp.StatusCode, raw)
	}

	resp, raw = post(t, ts.URL+"/admin/compact", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact: %d %s", resp.StatusCode, raw)
	}
	var cr compactResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Ingest.Compactions != 1 || cr.Ingest.DeltaShapes != 0 {
		t.Fatalf("compact stats: %+v", cr.Ingest)
	}
	if got := topImage(t, ts, wirePentagon()); got != 9 {
		t.Fatalf("compacted image not served: top match is image %d", got)
	}

	resp, raw = del(t, ts.URL+"/v1/images/9")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d %s", resp.StatusCode, raw)
	}
	if got := topImage(t, ts, wirePentagon()); got == 9 {
		t.Fatal("deleted image still served")
	}
	resp, _ = del(t, ts.URL+"/v1/images/9")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: %d", resp.StatusCode)
	}
	resp, _ = del(t, ts.URL+"/v1/images/not-a-number")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-integer id: %d", resp.StatusCode)
	}

	// /statz reports the ingest section and the write counters.
	st := s.Statz()
	if st.Ingest == nil || !st.Ingest.Enabled {
		t.Fatalf("statz ingest section missing: %+v", st.Ingest)
	}
	if st.Inserts != 1 || st.Deletes != 1 {
		t.Fatalf("statz write counters: inserts=%d deletes=%d", st.Inserts, st.Deletes)
	}
	if st.Ingest.Compactions != 1 {
		t.Fatalf("statz compactions: %+v", st.Ingest)
	}
}

// TestImagesValidation covers the client-error mapping of the write
// path: malformed body, no shapes, non-simple shape.
func TestImagesValidation(t *testing.T) {
	_, ts, _ := newIngestTestServer(t, Config{})
	for _, tc := range []struct {
		name   string
		body   any
		status int
	}{
		{"malformed", `{"id": `, http.StatusBadRequest},
		{"no shapes", map[string]any{"id": 10}, http.StatusUnprocessableEntity},
		{"non-simple", map[string]any{"id": 10, "shapes": []WireShape{wireBowtie()}}, http.StatusUnprocessableEntity},
	} {
		resp, raw := post(t, ts.URL+"/v1/images", tc.body)
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: got %d want %d (%s)", tc.name, resp.StatusCode, tc.status, raw)
		}
	}
}

// TestImagesReadOnly verifies write endpoints refuse cleanly when the
// serving engine has no ingestion (single-file snapshots, or no
// Config.Ingest).
func TestImagesReadOnly(t *testing.T) {
	_, ts := newShardedTestServer(t, 2)
	resp, raw := post(t, ts.URL+"/v1/images", map[string]any{"id": 9, "shapes": []WireShape{wirePentagon()}})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("insert on read-only: %d %s", resp.StatusCode, raw)
	}
	resp, _ = del(t, ts.URL+"/v1/images/0")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("delete on read-only: %d", resp.StatusCode)
	}
	resp, _ = post(t, ts.URL+"/admin/compact", "")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("compact on read-only: %d", resp.StatusCode)
	}
}

// TestIngestOnSnapshotFileRefused: live ingestion needs a snapshot
// directory (its WAL lives beside the shard files), so a server with
// Config.Ingest refuses a snapshot file instead of serving it read-only
// behind a 409 on every write. The refusal comes before the serving
// engine is quiesced: a live directory keeps taking writes.
func TestIngestOnSnapshotFileRefused(t *testing.T) {
	file := saveSnapshot(t, testEngine(t), "base.gsir")
	fresh := New(Config{Ingest: &IngestOptions{CompactThreshold: -1, NoSync: true}})
	if _, err := fresh.LoadSnapshot(file); err == nil || !strings.Contains(err.Error(), "snapshot directory") {
		t.Fatalf("LoadSnapshot(file) with ingestion = %v, want an error naming a snapshot directory", err)
	}
	if fresh.Ready() {
		t.Fatal("a refused snapshot file was installed")
	}

	s, ts, dir := newIngestTestServer(t, Config{})
	resp, raw := post(t, ts.URL+"/admin/reload", map[string]string{"path": file})
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(raw), "snapshot directory") {
		t.Fatalf("reload to a file: %d %s, want 422 naming a snapshot directory", resp.StatusCode, raw)
	}
	if src := s.Statz().Snapshot.Source; src != dir {
		t.Fatalf("serving %s after a refused reload, want %s", src, dir)
	}
	if resp, raw := post(t, ts.URL+"/v1/images", map[string]any{"id": 9, "shapes": []WireShape{wirePentagon()}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert after a refused reload: %d %s", resp.StatusCode, raw)
	}
}

// TestWriteInvalidatesCache pins the cache-coherence contract: a cached
// search result must not survive a write that changes its answer. The
// second identical search hits the cache; after an insert the third
// search misses (new fingerprint epoch) and sees the new image.
func TestWriteInvalidatesCache(t *testing.T) {
	_, ts, _ := newIngestTestServer(t, Config{CacheBytes: 1 << 20})

	body := map[string]any{"shape": wirePentagon(), "k": 1, "mode": "exact"}
	resp, _ := post(t, ts.URL+"/v1/search", body)
	if got := resp.Header.Get(cacheHeader); got != "miss" {
		t.Fatalf("first search disposition: %q", got)
	}
	resp, _ = post(t, ts.URL+"/v1/search", body)
	if got := resp.Header.Get(cacheHeader); got != "hit" {
		t.Fatalf("second search disposition: %q", got)
	}

	if resp, raw := post(t, ts.URL+"/v1/images", map[string]any{"id": 42, "shapes": []WireShape{wirePentagon()}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %d %s", resp.StatusCode, raw)
	}
	resp, raw := post(t, ts.URL+"/v1/search", body)
	if got := resp.Header.Get(cacheHeader); got != "miss" {
		t.Fatalf("post-write search disposition: %q", got)
	}
	var sr struct {
		Matches []MatchJSON `json:"matches"`
	}
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Matches) == 0 || sr.Matches[0].ImageID != 42 {
		t.Fatalf("post-write search does not see the insert: %s", raw)
	}
}

// TestIngestSurvivesReload verifies the reload path re-attaches
// ingestion: writes land in the WAL, a reload of the same directory
// replays them, and the written image keeps serving.
func TestIngestSurvivesReload(t *testing.T) {
	_, ts, dir := newIngestTestServer(t, Config{})
	if resp, raw := post(t, ts.URL+"/v1/images", map[string]any{"id": 9, "shapes": []WireShape{wirePentagon()}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %d %s", resp.StatusCode, raw)
	}
	resp, raw := post(t, ts.URL+"/admin/reload", map[string]any{"path": dir})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d %s", resp.StatusCode, raw)
	}
	if got := topImage(t, ts, wirePentagon()); got != 9 {
		t.Fatalf("write lost across reload: top match is image %d", got)
	}
	// And the engine is writable again after the swap.
	if resp, raw := post(t, ts.URL+"/v1/images", map[string]any{"id": 11, "shapes": []WireShape{wireL()}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert after reload: %d %s", resp.StatusCode, raw)
	}
}

// TestMethodPatterns verifies the mux enforces methods by route pattern,
// and that a request no route serves — a wrong method (405, with the
// route's Allow header) or an unknown path (404) — is answered like any
// other failure: a JSON error body and one access-log line.
func TestMethodPatterns(t *testing.T) {
	var log lockedBuffer
	_, ts, _ := newIngestTestServer(t, Config{AccessLog: &log})
	for _, tc := range []struct {
		method, path string
		status       int
		allow        string
	}{
		{http.MethodGet, "/v1/images", http.StatusMethodNotAllowed, "POST"},
		{http.MethodPut, "/v1/images/3", http.StatusMethodNotAllowed, "DELETE"},
		{http.MethodGet, "/v1/search", http.StatusMethodNotAllowed, "POST"},
		{http.MethodGet, "/admin/reload", http.StatusMethodNotAllowed, "POST"},
		{http.MethodPost, "/v1/nowhere", http.StatusNotFound, ""},
	} {
		log.reset()
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		what := tc.method + " " + tc.path
		if resp.StatusCode != tc.status || resp.Header.Get("Allow") != tc.allow {
			t.Errorf("%s: %d Allow=%q, want %d Allow=%q", what, resp.StatusCode, resp.Header.Get("Allow"), tc.status, tc.allow)
		}
		var body struct {
			Error string `json:"error"`
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" || json.Unmarshal(raw, &body) != nil || body.Error == "" {
			t.Errorf("%s: %s body %q, want a JSON error", what, ct, raw)
		}
		var line struct {
			Method string `json:"method"`
			Path   string `json:"path"`
			Status int    `json:"status"`
		}
		lines := strings.Split(strings.TrimSpace(log.String()), "\n")
		if len(lines) != 1 || json.Unmarshal([]byte(lines[0]), &line) != nil ||
			line.Method != tc.method || line.Path != tc.path || line.Status != tc.status {
			t.Errorf("%s: access log %q, want one line of this request", what, log.String())
		}
	}
}

// lockedBuffer is an access-log sink safe to read while the server writes.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func (b *lockedBuffer) reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf.Reset()
}

// TestStatzShardRowsFollowCompaction: /statz lists one row per shard the
// engine serves now, so a compaction that adds a shard adds a row, and
// each row counts its shard's live images and shapes: with the delta's
// they sum to the section's before a compaction, alone after it, a
// deleted frozen image's excluded both times.
func TestStatzShardRowsFollowCompaction(t *testing.T) {
	s, ts, _ := newIngestTestServer(t, Config{})
	resp, raw := post(t, ts.URL+"/v1/images", map[string]any{"id": 9, "shapes": []WireShape{wirePentagon()}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %d %s", resp.StatusCode, raw)
	}
	// Image 0 is frozen, with two shapes: its copies stay stored, and
	// its shard's row must stop counting it.
	if resp, raw = del(t, ts.URL+"/v1/images/0"); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d %s", resp.StatusCode, raw)
	}
	rowSums := func(st Statz) (images, shapes int) {
		if n := s.Serving().NumShards(); len(st.Snapshot.Shards) != n {
			t.Fatalf("statz lists %d shard rows, engine serves %d shards", len(st.Snapshot.Shards), n)
		}
		for _, row := range st.Snapshot.Shards {
			images, shapes = images+row.Images, shapes+row.Shapes
		}
		return images, shapes
	}

	st := s.Statz()
	images, shapes := rowSums(st)
	images, shapes = images+st.Ingest.DeltaImages, shapes+st.Ingest.DeltaShapes
	if images != st.Snapshot.Images || shapes != st.Snapshot.Shapes {
		t.Fatalf("before compaction: rows + delta = %d images, %d shapes; section reports %d, %d",
			images, shapes, st.Snapshot.Images, st.Snapshot.Shapes)
	}

	if resp, raw = post(t, ts.URL+"/admin/compact", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("compact: %d %s", resp.StatusCode, raw)
	}
	st = s.Statz()
	if images, shapes = rowSums(st); images != st.Snapshot.Images || shapes != st.Snapshot.Shapes {
		t.Fatalf("after compaction: rows = %d images, %d shapes; section reports %d, %d",
			images, shapes, st.Snapshot.Images, st.Snapshot.Shapes)
	}
}
