package geosir

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	orig := buildEngine(t)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumImages() != orig.NumImages() ||
		loaded.NumShapes() != orig.NumShapes() ||
		loaded.NumEntries() != orig.NumEntries() {
		t.Fatalf("counts differ: %d/%d/%d vs %d/%d/%d",
			loaded.NumImages(), loaded.NumShapes(), loaded.NumEntries(),
			orig.NumImages(), orig.NumShapes(), orig.NumEntries())
	}
	// Queries must answer identically.
	q := lshape(0, 0, 3).Transform(Similarity(1.4, 0.5, Pt(40, 40)))
	r1 := mustSearch(t, orig, SearchRequest{Query: q, K: 3})
	r2 := mustSearch(t, loaded, SearchRequest{Query: q, K: 3})
	if r1.Stats != r2.Stats {
		t.Fatalf("stats differ: %+v vs %+v", r1.Stats, r2.Stats)
	}
	assertMatchesEqual(t, "reloaded", r1.Matches, r2.Matches)
	// Topological queries too.
	binds := map[string]Shape{"sq": square(0, 0, 7), "tri": triangle(0, 0, 5)}
	ids1, _, err := orig.Query(context.Background(), "contain(sq, tri, any)", binds)
	if err != nil {
		t.Fatal(err)
	}
	ids2, _, err := loaded.Query(context.Background(), "contain(sq, tri, any)", binds)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids1) != len(ids2) {
		t.Fatalf("query results differ: %v vs %v", ids1, ids2)
	}
	for i := range ids1 {
		if ids1[i] != ids2[i] {
			t.Fatalf("query results differ: %v vs %v", ids1, ids2)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	orig := buildEngine(t)
	path := filepath.Join(t.TempDir(), "base.gsir")
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumShapes() != orig.NumShapes() {
		t.Errorf("shapes: %d vs %d", loaded.NumShapes(), orig.NumShapes())
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file should fail")
	}
}

// TestSaveLoadSaveByteIdentity proves the encoding is canonical: saving,
// loading, and saving again reproduces the stream byte for byte.
func TestSaveLoadSaveByteIdentity(t *testing.T) {
	orig := buildEngine(t)
	b1 := snapshotBytes(t, orig)
	loaded, err := Load(bytes.NewReader(b1))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if loaded.Options() != orig.Options() {
		t.Errorf("options drifted: %+v vs %+v", loaded.Options(), orig.Options())
	}
	if b2 := snapshotBytes(t, loaded); !bytes.Equal(b1, b2) {
		t.Errorf("save→load→save is not byte-identical (%d vs %d bytes)", len(b1), len(b2))
	}
}

// TestReloadedQueryEquivalence proves a reloaded engine returns
// identical rankings for every query family.
func TestReloadedQueryEquivalence(t *testing.T) {
	orig := buildEngine(t)
	queries := []Shape{
		lshape(0, 0, 3).Transform(Similarity(1.4, 0.5, Pt(40, 40))),
		triangle(0, 0, 4).Transform(Similarity(0.8, 2.1, Pt(-5, 12))),
		square(0, 0, 9).Transform(Similarity(2.0, -0.7, Pt(3, -8))),
	}
	sketch := []Shape{square(0, 0, 10), triangle(2, 2, 3)}
	loaded, err := Load(bytes.NewReader(snapshotBytes(t, orig)))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	for qi, q := range queries {
		for _, mode := range []Mode{ModeAuto, ModeApproximate} {
			req := SearchRequest{Query: q, K: 4, Mode: mode}
			r1, r2 := mustSearch(t, orig, req), mustSearch(t, loaded, req)
			label := fmt.Sprintf("query %d %v", qi, mode)
			if r1.Stats != r2.Stats {
				t.Fatalf("%s: stats differ: %+v vs %+v", label, r1.Stats, r2.Stats)
			}
			assertMatchesEqual(t, label, r1.Matches, r2.Matches)
		}
	}
	req := SearchRequest{Sketch: sketch, K: 3, Mode: ModeSketch}
	assertSketchEqual(t, "sketch",
		mustSearch(t, orig, req).SketchMatches, mustSearch(t, loaded, req).SketchMatches)
}

// gsir1Golden is a GSIR1 snapshot of buildEngine's base, written by the
// last GSIR1 writer this repo had. The format is read-only now, so these
// bytes are what keeps its readers under test.
func gsir1Golden(tb testing.TB) []byte {
	return testdataBytes(tb, filepath.Join("testdata", "gsir1", "base.gsir1"))
}

// gsir2Golden is a GSIR2 snapshot of the same base, with its ANN1
// section (which the reader skips), written by the last GSIR2 writer this
// repo had: what keeps the GSIR2 reader under test now that nothing writes
// the format.
func gsir2Golden(tb testing.TB) []byte {
	return testdataBytes(tb, filepath.Join("testdata", "gsir2", "base.gsir2"))
}

func testdataBytes(tb testing.TB, path string) []byte {
	tb.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestLoadGSIR1Golden reads the legacy format from the golden file: Load
// recovers exactly buildEngine's base (it re-saves to the original's
// bytes, and answers like the original's round trip, its copies in
// half-turn pairs), Peek reads the header. (LoadPartial:
// TestLoadPartialGSIR1Prefix, on the same bytes.)
func TestLoadGSIR1Golden(t *testing.T) {
	orig := buildEngine(t)
	data := gsir1Golden(t)
	v1, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Load(golden): %v", err)
	}
	want := snapshotBytes(t, orig)
	if !bytes.Equal(snapshotBytes(t, v1), want) {
		t.Fatal("the golden GSIR1 snapshot does not decode to buildEngine's base")
	}
	v3, err := Load(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	checkEngineEquivalence(t, v3, v1)
	checkMirroredPairs(t, v1)

	info, err := Peek(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Peek(golden): %v", err)
	}
	if info.Format != FormatGSIR1 || info.FormatName != "GSIR1" ||
		info.Images != orig.NumImages() || info.Options != orig.Options() {
		t.Errorf("Peek(golden) = %+v", info)
	}
}

// TestLoadGSIR2Golden reads the GSIR2 golden: Load recovers exactly
// buildEngine's base — it answers as buildEngine does, and its re-save is
// a GSIR3 file, byte for byte the one buildEngine saves — and Peek reads
// the header. (The GSIR2 salvage paths: TestLoadPartialSalvagesVerifiedImages,
// TestLoadPartialTruncatedTail and TestCorruptionFlipSweep, on the same
// bytes.)
func TestLoadGSIR2Golden(t *testing.T) {
	orig := buildEngine(t)
	data := gsir2Golden(t)
	v2, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Load(golden): %v", err)
	}
	checkEngineEquivalence(t, orig, v2)
	checkMirroredPairs(t, v2)
	resaved := snapshotBytes(t, v2)
	if !bytes.Equal(resaved, snapshotBytes(t, orig)) {
		t.Fatal("the golden GSIR2 snapshot does not re-save to buildEngine's bytes")
	}
	if info, err := Peek(bytes.NewReader(resaved)); err != nil || info.Format != FormatGSIR3 {
		t.Fatalf("Peek(re-save) = %+v, %v; want GSIR3", info, err)
	}

	info, err := Peek(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Peek(golden): %v", err)
	}
	if info.Format != FormatGSIR2 || info.FormatName != "GSIR2" ||
		info.Images != orig.NumImages() || info.Options != orig.Options() {
		t.Errorf("Peek(golden) = %+v", info)
	}
}

// TestPersistCompleteMeansLoad holds every decoder to one rule: LoadPartial
// reports Complete() exactly when Load succeeds — an error from LoadPartial
// counts as not complete — and where both succeed the two engines answer
// alike. It runs over a file of each format read (the GSIR1 and GSIR2
// goldens, a fresh GSIR3 file and the older writer's GSIR3 golden), each
// clean, with 4 trailing bytes, with one payload byte flipped (the 5th
// from the end: inside the last payload of every format), and cut in half.
func TestPersistCompleteMeansLoad(t *testing.T) {
	files := []struct {
		name string
		data []byte
	}{
		{"GSIR1", gsir1Golden(t)},
		{"GSIR2", gsir2Golden(t)},
		{"GSIR3", snapshotBytes(t, buildEngine(t))},
		{"GSIR3 golden", gsir3KDTreeGolden(t)},
	}
	for _, f := range files {
		flipped := bytes.Clone(f.data)
		flipped[len(flipped)-5] ^= 0x10
		for _, c := range []struct {
			name string
			data []byte
		}{
			{"clean", f.data},
			{"trailing", append(bytes.Clone(f.data), 0, 0, 0, 0)},
			{"flipped", flipped},
			{"half", f.data[:len(f.data)/2]},
		} {
			t.Run(f.name+"/"+c.name, func(t *testing.T) {
				loaded, lerr := Load(bytes.NewReader(c.data))
				partial, rec, perr := LoadPartial(bytes.NewReader(c.data))
				complete := perr == nil && rec.Complete()
				if complete != (lerr == nil) {
					t.Fatalf("LoadPartial complete = %v (err %v, report %+v), Load error %v", complete, perr, rec, lerr)
				}
				if complete {
					checkEngineEquivalence(t, loaded, partial)
				}
			})
		}
	}
}

// TestPersistEmptyEngine round-trips an engine with no images.
func TestPersistEmptyEngine(t *testing.T) {
	eng := New(DefaultOptions())
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumImages() != 0 || loaded.NumShapes() != 0 {
		t.Errorf("empty engine gained content: %d images, %d shapes",
			loaded.NumImages(), loaded.NumShapes())
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := Load(bytes.NewReader([]byte("NOTGS\n"))); err == nil {
		t.Error("bad magic should fail")
	}
	// Truncated body.
	orig := buildEngine(t)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Load(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("truncated input should fail")
	}
}

func TestPeek(t *testing.T) {
	eng := buildEngine(t)
	info, err := Peek(bytes.NewReader(snapshotBytes(t, eng)))
	if err != nil {
		t.Fatalf("Peek: %v", err)
	}
	if info.Format != FormatGSIR3 {
		t.Errorf("format = %v, want %v", info.Format, FormatGSIR3)
	}
	if info.Images != eng.NumImages() {
		t.Errorf("images = %d, want %d", info.Images, eng.NumImages())
	}
	if info.Options != eng.Options() {
		t.Errorf("options = %+v, want %+v", info.Options, eng.Options())
	}
	if _, err := Peek(bytes.NewReader([]byte("NOPE!\n rest"))); err == nil {
		t.Error("bad magic should fail Peek")
	}
}

func TestPeekFile(t *testing.T) {
	eng := buildEngine(t)
	path := filepath.Join(t.TempDir(), "snap.gsir")
	if err := eng.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	info, err := PeekFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.FormatName != "GSIR3" || info.Images != eng.NumImages() || info.Size <= 0 {
		t.Errorf("info = %+v", info)
	}
	// A flipped byte inside the options section must fail the peek (CRC).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[v3SectionEnd(t, raw, "OPTS")-8] ^= 0xFF
	bad := filepath.Join(t.TempDir(), "bad.gsir")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := PeekFile(bad); err == nil {
		t.Error("corrupt options section should fail PeekFile")
	}
}
