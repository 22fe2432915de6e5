package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	geosir "repro"
	"repro/internal/sectable"
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
		{"/v1/search", map[string]any{"shape": wireSquare(), "k": 3, "mode": "exact", "exec": "auto"}},
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

	// The removed "workers" alias and "max_workers" cap are unknown fields
	// like any other.
	for _, ts := range []*httptest.Server{single, sharded} {
		for _, field := range []string{"workers", "max_workers"} {
			resp, body := post(t, ts.URL+"/v1/search", map[string]any{"shape": wireSquare(), "k": 3, "mode": "exact", field: 2})
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%q: status %d (%s), want 400", field, resp.StatusCode, body)
			}
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
		for _, exec := range []string{"nope", "fanout"} {
			resp, body = post(t, base+"/v1/search", map[string]any{"shape": wireSquare(), "k": 3, "exec": exec})
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("exec %q: status %d (%s), want 422", exec, resp.StatusCode, body)
			}
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

// TestSingleFileServesAsOneShard: a snapshot file serves as a one-shard
// engine. One base is saved as a file and as a one-shard directory, and
// each is installed through LoadSnapshot, heap and mapped: every search
// mode answers byte-identical bodies (stats included), the topological
// read the same ids and plan, and /statz lists one live shard row for
// each — format GSIR3 for the file, GSIR3-SHARDED for the directory. A
// flipped byte in a derived section is still refused in the file, which
// serves only complete, while the directory degrades: its shard is
// rebuilt from the raw sections and serves.
func TestSingleFileServesAsOneShard(t *testing.T) {
	tmp := t.TempDir()
	file := filepath.Join(tmp, "base.gsir")
	if err := testEngine(t).SaveFile(file); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(tmp, "snap")
	if err := testSharded(t, 1).SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	probes := []struct {
		path string
		body any
	}{
		{"/v1/search", map[string]any{"shape": wireSquare(), "k": 3, "mode": "auto"}},
		{"/v1/search", map[string]any{"shape": wireSquare(), "k": 3, "mode": "exact"}},
		{"/v1/search", map[string]any{"shape": wireL(), "k": 3, "mode": "approximate"}},
		{"/v1/search", map[string]any{"shape": wireL(), "k": 3, "ann": "approx"}},
		{"/v1/search", map[string]any{"shapes": []WireShape{wireSquare(), wireL()}, "k": 3, "mode": "sketch"}},
		{"/v1/topological", map[string]any{"query": "similar(q) OR contain(sq, q, any)",
			"binds": map[string]WireShape{"q": wireL(), "sq": wireSquare()}}},
	}
	modes := []geosir.LoadMode{geosir.LoadModeHeap, geosir.LoadModeMmap}
	var exact string // the undamaged base's exact search body
	serve := func(t *testing.T, mode geosir.LoadMode, path string) (*Server, *httptest.Server, error) {
		t.Helper()
		s := New(Config{LoadMode: mode})
		if _, err := s.LoadSnapshot(path); err != nil {
			return nil, nil, err
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return s, ts, nil
	}
	for _, mode := range modes {
		var bodies [2][]string
		for i, path := range []string{file, dir} {
			s, ts, err := serve(t, mode, path)
			if err != nil {
				t.Fatalf("%v %s: %v", mode, path, err)
			}
			for _, p := range probes {
				resp, raw := post(t, ts.URL+p.path, p.body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%v %s %s: %d %s", mode, path, p.path, resp.StatusCode, raw)
				}
				bodies[i] = append(bodies[i], string(raw))
			}
			stz := s.Statz().Snapshot
			if want := []string{"GSIR3", "GSIR3-SHARDED"}[i]; stz == nil || stz.Format != want {
				t.Fatalf("%v %s: statz snapshot %+v, want format %s", mode, path, stz, want)
			}
			if rows := stz.Shards; len(rows) != 1 || !rows[0].Live || rows[0].Dropped || rows[0].Images != 5 || rows[0].Shapes != 8 {
				t.Fatalf("%v %s: shard rows %+v, want one live row of 5 images and 8 shapes", mode, path, rows)
			}
		}
		exact = bodies[1][1]
		for j, p := range probes {
			if bodies[0][j] != bodies[1][j] {
				t.Errorf("%v %s %v: file and one-shard directory answer differently\nfile: %s\ndir:  %s",
					mode, p.path, p.body, bodies[0][j], bodies[1][j])
			}
		}
	}

	// One flipped byte in the hash quadruples, a derived section.
	for _, path := range []string{file, filepath.Join(dir, "shard-000.gsir2")} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := sectable.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		i := slices.IndexFunc(rows, func(s sectable.Section) bool { return s.Tag == "QUAD" })
		if i < 0 || rows[i].Len == 0 {
			t.Fatalf("%s: no QUAD payload", path)
		}
		data[rows[i].Off+rows[i].Len/2] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, mode := range modes {
		if _, _, err := serve(t, mode, file); err == nil {
			t.Errorf("%v: a damaged snapshot file was installed", mode)
		}
		s, ts, err := serve(t, mode, dir)
		if err != nil {
			t.Fatalf("%v: the damaged one-shard directory was refused: %v", mode, err)
		}
		if rows := s.Statz().Snapshot.Shards; len(rows) != 1 || !rows[0].Live {
			t.Errorf("%v: damaged one-shard directory rows %+v, want one live row", mode, rows)
		}
		if resp, raw := post(t, ts.URL+"/v1/search", probes[1].body); resp.StatusCode != http.StatusOK || string(raw) != exact {
			t.Errorf("%v: damaged one-shard directory answers %d %s, want %s", mode, resp.StatusCode, raw, exact)
		}
	}
}
