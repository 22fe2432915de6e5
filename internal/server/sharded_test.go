package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	geosir "repro"
)

// testSharded builds the same base as testEngine, partitioned.
func testSharded(t *testing.T, shards int) *geosir.ShardedEngine {
	t.Helper()
	se := geosir.NewSharded(geosir.DefaultOptions(), shards)
	images := [][]geosir.Shape{
		{sq(0, 0, 20), tri(5, 5, 3)},
		{sq(0, 0, 10), sq(8, 8, 6)},
		{tri(0, 0, 4)},
		{lsh(0, 0, 2)},
		{sq(0, 0, 20), lsh(3, 3, 1.5)},
	}
	for id, shapes := range images {
		if err := se.AddImage(id, shapes); err != nil {
			t.Fatalf("AddImage(%d): %v", id, err)
		}
	}
	if err := se.Freeze(); err != nil {
		t.Fatal(err)
	}
	return se
}

func newShardedTestServer(t *testing.T, shards int) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{})
	if err := s.SetServing(testSharded(t, shards), "(sharded-test)"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestShardedServesAllEndpoints drives every query endpoint against a
// sharded engine and checks the answers equal the single-engine
// server's, wire byte for wire byte.
func TestShardedServesAllEndpoints(t *testing.T) {
	_, single := newTestServer(t, Config{})
	_, sharded := newShardedTestServer(t, 3)

	for _, tc := range []struct {
		path string
		body any
	}{
		{"/v1/search", map[string]any{"shape": wireSquare(), "k": 3}},
		{"/v1/search", map[string]any{"shape": wireSquare(), "k": 3, "mode": "approximate"}},
		{"/v1/search", map[string]any{"shape": wireSquare(), "k": 3, "mode": "exact"}},
		{"/v1/search", map[string]any{"shape": wireSquare(), "k": 3, "mode": "auto"}},
		{"/v1/search", map[string]any{"shapes": []WireShape{wireSquare(), wireL()}, "k": 3, "mode": "sketch"}},
		// The execution policy schedules work; it must never change the
		// wire answer.
		{"/v1/search", map[string]any{"shape": wireSquare(), "k": 3, "mode": "exact", "exec": "sequential"}},
		{"/v1/search", map[string]any{"shape": wireSquare(), "k": 3, "mode": "exact", "exec": "fanout", "max_workers": 2}},
		{"/v1/topological", map[string]any{"query": "similar(a)", "binds": map[string]WireShape{"a": wireSquare()}}},
	} {
		respS, bodyS := post(t, single.URL+tc.path, tc.body)
		respP, bodyP := post(t, sharded.URL+tc.path, tc.body)
		if respS.StatusCode != http.StatusOK || respP.StatusCode != http.StatusOK {
			t.Fatalf("%s: statuses %d vs %d (%s / %s)", tc.path, respS.StatusCode, respP.StatusCode, bodyS, bodyP)
		}
		var a, b map[string]any
		if err := json.Unmarshal(bodyS, &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(bodyP, &b); err != nil {
			t.Fatal(err)
		}
		// Stats and plan renderings legitimately differ across
		// partitionings (per-shard iteration counts and selectivity
		// estimates); results must not.
		delete(a, "stats")
		delete(b, "stats")
		delete(a, "plan")
		delete(b, "plan")
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: single and sharded servers disagree\nsingle:  %s\nsharded: %s", tc.path, bodyS, bodyP)
		}
	}

	// The removed "workers" alias is an unknown field like any other.
	for _, ts := range []*httptest.Server{single, sharded} {
		resp, body := post(t, ts.URL+"/v1/search", map[string]any{"shape": wireSquare(), "k": 3, "mode": "exact", "workers": 2})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("\"workers\": status %d (%s), want 400", resp.StatusCode, body)
		}
	}
}

// TestSentinelStatusMapping pins the errors.Is → HTTP status mapping on
// both engine kinds: bad k and empty sketches are the client's fault
// (422), regardless of which engine is serving.
func TestSentinelStatusMapping(t *testing.T) {
	_, single := newTestServer(t, Config{})
	_, sharded := newShardedTestServer(t, 2)
	for _, base := range []string{single.URL, sharded.URL} {
		for _, tc := range []struct {
			path string
			body any
		}{
			{"/v1/search", map[string]any{"shape": wireSquare(), "k": 0}},
			{"/v1/search", map[string]any{"k": 3}},
			{"/v1/search", map[string]any{"shapes": []WireShape{}, "k": 3, "mode": "sketch"}},
			{"/v1/search", map[string]any{"shape": wireSquare(), "k": -1}},
		} {
			resp, body := post(t, base+tc.path, tc.body)
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("%s %v: status %d (%s), want 422", tc.path, tc.body, resp.StatusCode, body)
			}
		}
		resp, body := post(t, base+"/v1/search", map[string]any{"shape": wireSquare(), "k": 3, "mode": "nope"})
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("unknown mode: status %d (%s), want 422", resp.StatusCode, body)
		}
		resp, body = post(t, base+"/v1/search", map[string]any{"shape": wireSquare(), "k": 3, "exec": "nope"})
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("unknown exec: status %d (%s), want 422", resp.StatusCode, body)
		}
	}
}

// TestShardedSnapshotReloadAndStatz saves a sharded snapshot directory,
// reloads it over /admin/reload, and checks that the reload and /statz
// report the format its shard files hold (GSIR3-SHARDED for SaveDir's)
// and that /statz gains per-shard rows — including a dropped row after a
// shard file is destroyed.
func TestShardedSnapshotReloadAndStatz(t *testing.T) {
	se := testSharded(t, 3)
	dir := filepath.Join(t.TempDir(), "snap")
	if err := se.SaveDir(dir); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/admin/reload", map[string]string{"path": dir})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d (%s)", resp.StatusCode, body)
	}
	var rl reloadResponse
	if err := json.Unmarshal(body, &rl); err != nil {
		t.Fatal(err)
	}
	if rl.Shards != 3 || rl.Shapes != se.NumShapes() || rl.Format != "GSIR3-SHARDED" {
		t.Fatalf("reload response: %+v", rl)
	}
	if f := s.state.Load().info.Format; f != geosir.FormatGSIR3 {
		t.Fatalf("serving format %d, want FormatGSIR3", f)
	}

	stz := s.Statz()
	if stz.Snapshot == nil || len(stz.Snapshot.Shards) != 3 {
		t.Fatalf("statz lacks per-shard rows: %+v", stz.Snapshot)
	}
	if stz.Snapshot.Format != "GSIR3-SHARDED" {
		t.Fatalf("statz format %q, want GSIR3-SHARDED", stz.Snapshot.Format)
	}
	for _, row := range stz.Snapshot.Shards {
		if row.Dropped || (row.Shapes > 0 && !row.Live) {
			t.Fatalf("healthy snapshot reported damage: %+v", row)
		}
	}
	// The swapped-in engine serves queries.
	if resp, body := post(t, ts.URL+"/v1/search", map[string]any{"shape": wireSquare(), "k": 2}); resp.StatusCode != http.StatusOK {
		t.Fatalf("search after sharded reload: %d (%s)", resp.StatusCode, body)
	}

	// Destroy one shard file: the reload must degrade, not fail, and
	// /statz must say which shard died.
	if err := os.WriteFile(filepath.Join(dir, "shard-001.gsir2"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, body = post(t, ts.URL+"/admin/reload", map[string]string{"path": dir})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded reload: %d (%s)", resp.StatusCode, body)
	}
	stz = s.Statz()
	if stz.Snapshot == nil || len(stz.Snapshot.Shards) != 3 {
		t.Fatalf("statz lacks per-shard rows after degraded reload: %+v", stz.Snapshot)
	}
	if row := stz.Snapshot.Shards[1]; !row.Dropped || row.Error == "" || row.Live {
		t.Fatalf("dead shard not reported: %+v", row)
	}
	if resp, body := post(t, ts.URL+"/v1/search", map[string]any{"shape": wireSquare(), "k": 2}); resp.StatusCode != http.StatusOK {
		t.Fatalf("search on degraded snapshot: %d (%s)", resp.StatusCode, body)
	}
}
