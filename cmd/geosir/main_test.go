package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
)

func TestParseShape(t *testing.T) {
	sh, err := parseShape("0,0 1,0 1,1 0,1", true)
	if err != nil {
		t.Fatal(err)
	}
	if !sh.Closed || sh.NumVertices() != 4 {
		t.Errorf("shape = %+v", sh)
	}
	open, err := parseShape("0,0 2,3", false)
	if err != nil {
		t.Fatal(err)
	}
	if open.Closed || open.NumVertices() != 2 {
		t.Errorf("polyline = %+v", open)
	}
	bad := []string{
		"",                // no vertices
		"0,0",             // single vertex
		"0,0 1",           // malformed token
		"0,0 x,1",         // bad number
		"0,0 1,y",         // bad number
		"0,0 2,2 2,0 0,2", // self-intersecting when closed
	}
	for _, src := range bad {
		if _, err := parseShape(src, true); err == nil {
			t.Errorf("parseShape(%q) should fail", src)
		}
	}
}

func TestParseBindings(t *testing.T) {
	b, err := parseBindings("q=0,0 1,0 1,1; p~=0,0 5,5")
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 2 {
		t.Fatalf("bindings = %v", b)
	}
	if !b["q"].Closed || b["q"].NumVertices() != 3 {
		t.Errorf("q = %+v", b["q"])
	}
	if b["p"].Closed || b["p"].NumVertices() != 2 {
		t.Errorf("p should be an open polyline: %+v", b["p"])
	}
	if got, err := parseBindings("  "); err != nil || len(got) != 0 {
		t.Errorf("empty bindings: %v %v", got, err)
	}
	if _, err := parseBindings("noequals"); err == nil {
		t.Error("missing '=' should fail")
	}
	if _, err := parseBindings("q=0,0"); err == nil {
		t.Error("degenerate bound shape should fail")
	}
}

func TestLoadBase(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shapes.txt")
	content := `# comment line
0 closed 0,0 4,0 4,4 0,4
0 open 5,5 9,9
1 closed 0,0 3,0 0,3

2 closed 10,10 14,10 14,14 10,14
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	eng := geosir.New(geosir.DefaultOptions())
	if err := loadBase(eng, path); err != nil {
		t.Fatal(err)
	}
	if err := eng.Freeze(); err != nil {
		t.Fatal(err)
	}
	if eng.NumImages() != 3 || eng.NumShapes() != 4 {
		t.Errorf("loaded %d images / %d shapes", eng.NumImages(), eng.NumShapes())
	}
	// Retrieval works on the loaded base.
	q, _ := parseShape("0,0 4,0 4,4 0,4", true)
	resp, err := eng.Search(context.Background(), geosir.SearchRequest{Query: q, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ms := resp.Matches; len(ms) != 1 || ms[0].ImageID != 0 {
		t.Errorf("query = %v", ms)
	}
}

func TestLoadBaseErrors(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"short-line": "0 closed\n",
		"bad-id":     "x closed 0,0 1,0 1,1\n",
		"bad-mode":   "0 sideways 0,0 1,0 1,1\n",
		"bad-shape":  "0 closed 0,0 1,0\n",
	}
	for name, content := range cases {
		path := filepath.Join(dir, name+".txt")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		eng := geosir.New(geosir.DefaultOptions())
		if err := loadBase(eng, path); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	eng := geosir.New(geosir.DefaultOptions())
	if err := loadBase(eng, filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestRunDemoPath(t *testing.T) {
	// End-to-end: demo base, query by stored shape id n over 1 and 3 shards,
	// n the first shape off shard 0 of 3 whose local id there is not n.
	single := geosir.New(geosir.DefaultOptions())
	if err := fillBase(single, "", 15, 3); err != nil {
		t.Fatal(err)
	}
	n, local := -1, make([]int, 3)
	for id, s := range single.Base().Shapes() {
		shard := core.ShardFor(s.Image, 3)
		if n < 0 && shard != 0 && local[shard] != id {
			n = id
		}
		local[shard]++
	}
	for _, shards := range []int{1, 3} {
		out := captureStdout(t, func() error { return run("", 15, 3, "", false, n, 2, "", "", false, shards, "off") })
		if !strings.Contains(out, fmt.Sprintf("#1 shape %d ", n)) {
			t.Fatalf("-query-shape %d over %d shards: top match is not shape %d:\n%s", n, shards, n, out)
		}
	}
	// Stats mode, both engine kinds: the GSIR3 section table lists the cell
	// row, and no copy's vertices, offsets or transforms, and no ANN
	// signatures (the index is derived at its first probe).
	for _, shards := range []int{1, 2} {
		out := captureStdout(t, func() error { return run("", 10, 3, "", false, -1, 1, "", "", true, shards, "off") })
		if !strings.Contains(out, "\n  ECEL ") || !strings.Contains(out, "\n  ENTM ") {
			t.Fatalf("stats run (%d shards) lists no ECEL or ENTM section:\n%s", shards, out)
		}
		for _, tag := range []string{"EVTX", "EOFF", "ENTT", "ANNP", "ANNS"} {
			if strings.Contains(out, tag) {
				t.Fatalf("stats run (%d shards) lists %s:\n%s", shards, tag, out)
			}
		}
	}
	// Stats over more shards than images: the empty shards have no hash
	// table, and are left out of both tables.
	if err := run("", 3, 3, "", false, -1, 1, "", "", true, 8, "off"); err != nil {
		t.Fatalf("stats run over empty shards: %v", err)
	}
	// Topological query.
	if err := run("", 10, 3, "", false, -1, 1,
		"similar(q)", "q=0,0 1,0 1,1 0,1", false, 1, "off"); err != nil {
		t.Fatalf("topo run: %v", err)
	}
	if err := run("", 10, 3, "", false, -1, 1,
		"similar(q)", "q=0,0 1,0 1,1 0,1", false, 2, "off"); err != nil {
		t.Fatalf("sharded topo run: %v", err)
	}
	// ANN candidate tier, both engine kinds.
	if err := run("", 15, 3, "", false, 2, 2, "", "", false, 1, "approx"); err != nil {
		t.Fatalf("ann approx run: %v", err)
	}
	if err := run("", 15, 3, "", false, 2, 2, "", "", false, 2, "approx"); err != nil {
		t.Fatalf("sharded ann approx run: %v", err)
	}
	for _, bad := range []string{"bogus", "verify"} {
		if err := run("", 15, 3, "", false, 2, 2, "", "", false, 1, bad); err == nil {
			t.Errorf("ann mode %q should fail", bad)
		}
	}
	// Error cases.
	if err := run("", 0, 1, "", false, -1, 1, "", "", false, 1, "off"); err == nil {
		t.Error("no base source should fail")
	}
	if err := run("", 5, 1, "", false, 10000, 1, "", "", false, 1, "off"); err == nil {
		t.Error("out-of-range query shape should fail")
	}
	if err := run("", 5, 1, "", false, -1, 1, "", "", false, 1, "off"); err == nil {
		t.Error("no query should fail")
	}
}

// TestRunSnapshotSharded: -shards 3 writes a directory that loads as three
// shards; -shards 1 writes one file, byte for byte the one a single Engine
// over the base saves, which loads completely as one shard.
func TestRunSnapshotSharded(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "snapdir")
	if err := runSnapshot("", 12, 3, 3, out); err != nil {
		t.Fatal(err)
	}
	s, rec, err := geosir.LoadAnyMode(out, geosir.LoadModeHeap)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Complete() {
		t.Fatalf("fresh sharded snapshot incomplete: %+v", rec)
	}
	if se := s.(*geosir.ShardedEngine); se.NumShards() != 3 || se.NumImages() == 0 {
		t.Fatalf("loaded %d shards / %d images", se.NumShards(), se.NumImages())
	}

	// Single-file snapshots still work through the same path.
	file := filepath.Join(dir, "snap.gsir2")
	if err := runSnapshot("", 12, 3, 1, file); err != nil {
		t.Fatal(err)
	}
	single := geosir.New(geosir.DefaultOptions())
	if err := fillBase(single, "", 12, 3); err != nil {
		t.Fatal(err)
	}
	if err := single.Freeze(); err != nil {
		t.Fatal(err)
	}
	ref := filepath.Join(dir, "ref.gsir")
	if err := single.SaveFile(ref); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("-shards 1 wrote %d bytes, not the %d a single Engine saves", len(got), len(want))
	}
	if _, rec, err := geosir.LoadAnyMode(file, geosir.LoadModeHeap); err != nil {
		t.Fatal(err)
	} else if !rec.Complete() || len(rec.Shards) != 1 || rec.ImagesLoaded != single.NumImages() {
		t.Fatalf("LoadAnyMode(file) recovery %+v, want one complete shard of %d images", rec, single.NumImages())
	}
}

func TestDumpRoundTrip(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "dumped.txt")
	if err := runDump("", 8, 3, out); err != nil {
		t.Fatal(err)
	}
	// The dump re-loads into an identical base.
	eng := geosir.New(geosir.DefaultOptions())
	if err := loadBase(eng, out); err != nil {
		t.Fatal(err)
	}
	if err := eng.Freeze(); err != nil {
		t.Fatal(err)
	}
	if eng.NumShapes() == 0 {
		t.Fatal("dump round trip lost all shapes")
	}
	// Re-dump and compare shape counts.
	out2 := filepath.Join(dir, "dumped2.txt")
	if err := runDump(out, 0, 3, out2); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("empty dumps")
	}
	if err := runDump("", 0, 1, filepath.Join(dir, "x")); err == nil {
		t.Error("no source should fail")
	}
}

// captureStdout runs f with os.Stdout sent to a pipe and returns what it
// printed; f's error fails the test.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	err = f()
	os.Stdout = stdout
	w.Close()
	out := string(<-done)
	if err != nil {
		t.Fatalf("%v; printed:\n%s", err, out)
	}
	return out
}
