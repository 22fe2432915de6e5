package geosir

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mmap"
)

// loadComplete decodes data with LoadPartial and returns the engine only
// when its recovery is complete; otherwise the error is LoadPartial's or
// the first damage it met (Recovery.Err). A test that holds the decoder
// to refusing damage holds it to !Complete() through this, so it never
// accepts a smaller base.
func loadComplete(data []byte) (*Engine, error) {
	eng, rec, err := LoadPartial(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	if !rec.Complete() {
		return nil, rec.Err
	}
	return eng, nil
}

// openComplete opens the snapshot file at path as LoadAnyMode opens each
// file (loadShardFile) and returns the engine only when its recovery is
// complete.
func openComplete(path string, mode LoadMode) (*Engine, error) {
	eng, rec, err := loadShardFile(path, mode)
	if err != nil {
		return nil, err
	}
	if !rec.Complete() {
		eng.Close()
		return nil, rec.Err
	}
	return eng, nil
}

// servedLoadMode is what StorageStats().LoadMode reports for a complete,
// frozen GSIR3 file opened under mode: "mmap" exactly where the platform
// and build can map and cast, "heap" everywhere else.
func servedLoadMode(mode LoadMode) string {
	if mode == LoadModeMmap && mmap.Supported() && mmap.CanCast() {
		return "mmap"
	}
	return "heap"
}

func TestSaveLoadRoundTrip(t *testing.T) {
	orig := buildEngine(t)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadComplete(buf.Bytes())
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

// TestSaveLoadFile: a SaveFile snapshot opens complete under either load
// mode, served mapped exactly where mmap can serve it, and answers as the
// engine saved; a missing file fails either open.
func TestSaveLoadFile(t *testing.T) {
	orig := buildEngine(t)
	path := filepath.Join(t.TempDir(), "base.gsir")
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []LoadMode{LoadModeHeap, LoadModeMmap} {
		loaded, err := openComplete(path, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got, want := loaded.StorageStats().LoadMode, servedLoadMode(mode); got != want {
			t.Errorf("%v: served from %s, want %s", mode, got, want)
		}
		checkEngineEquivalence(t, orig, loaded)
		loaded.Close()
		if _, _, err := loadShardFile(filepath.Join(t.TempDir(), "missing"), mode); err == nil {
			t.Errorf("%v: missing file should fail", mode)
		}
	}
}

// TestSaveLoadSaveByteIdentity proves the encoding is canonical: saving,
// loading, and saving again reproduces the stream byte for byte.
func TestSaveLoadSaveByteIdentity(t *testing.T) {
	orig := buildEngine(t)
	b1 := snapshotBytes(t, orig)
	loaded, err := loadComplete(b1)
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
	loaded, err := loadComplete(snapshotBytes(t, orig))
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

// TestLoadGSIR1Golden reads the legacy format from the golden file: the
// decoder recovers exactly buildEngine's base, completely (it re-saves to
// the original's bytes, and answers like the original's round trip, its
// copies in half-turn pairs), and its report names the format, the
// declared image count and the options. (The salvage:
// TestLoadPartialGSIR1Prefix, on the same bytes.)
func TestLoadGSIR1Golden(t *testing.T) {
	orig := buildEngine(t)
	v1, rec, err := LoadPartial(bytes.NewReader(gsir1Golden(t)))
	if err != nil || !rec.Complete() {
		t.Fatalf("LoadPartial(golden) = %+v, %v; want complete", rec, err)
	}
	if rec.Format != "GSIR1" || rec.ImagesExpected != orig.NumImages() || v1.Options() != orig.Options() {
		t.Errorf("golden read as %s of %d images under %+v", rec.Format, rec.ImagesExpected, v1.Options())
	}
	want := snapshotBytes(t, orig)
	if !bytes.Equal(snapshotBytes(t, v1), want) {
		t.Fatal("the golden GSIR1 snapshot does not decode to buildEngine's base")
	}
	v3, err := loadComplete(want)
	if err != nil {
		t.Fatal(err)
	}
	checkEngineEquivalence(t, v3, v1)
	checkMirroredPairs(t, v1)
}

// TestLoadGSIR2Golden reads the GSIR2 golden: the decoder recovers
// exactly buildEngine's base, completely — it answers as buildEngine
// does, and its re-save is a GSIR3 file, byte for byte the one
// buildEngine saves — and its report names the format, the declared
// image count and the options. (The GSIR2 salvage paths:
// TestLoadPartialSalvagesVerifiedImages, TestLoadPartialTruncatedTail and
// TestCorruptionFlipSweep, on the same bytes.)
func TestLoadGSIR2Golden(t *testing.T) {
	orig := buildEngine(t)
	v2, rec, err := LoadPartial(bytes.NewReader(gsir2Golden(t)))
	if err != nil || !rec.Complete() {
		t.Fatalf("LoadPartial(golden) = %+v, %v; want complete", rec, err)
	}
	if rec.Format != "GSIR2" || rec.ImagesExpected != orig.NumImages() || v2.Options() != orig.Options() {
		t.Errorf("golden read as %s of %d images under %+v", rec.Format, rec.ImagesExpected, v2.Options())
	}
	checkEngineEquivalence(t, orig, v2)
	checkMirroredPairs(t, v2)
	resaved := snapshotBytes(t, v2)
	if !bytes.Equal(resaved, snapshotBytes(t, orig)) {
		t.Fatal("the golden GSIR2 snapshot does not re-save to buildEngine's bytes")
	}
	if _, rec, err := LoadPartial(bytes.NewReader(resaved)); err != nil || rec.Format != "GSIR3" {
		t.Fatalf("LoadPartial(re-save) = %+v, %v; want GSIR3", rec, err)
	}
}

// TestPersistCompleteMeansLoad holds every way in to one rule: the
// stream decoder (LoadPartial) and the file open under either load mode
// (loadShardFile, what LoadAnyMode runs per file) report Complete() on
// the same bytes or on none — an error counts as not complete — the clean
// file is complete, and where they all are their engines answer alike. It runs over a file of each format read (the GSIR1 and GSIR2
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
				partial, rec, perr := LoadPartial(bytes.NewReader(c.data))
				complete := perr == nil && rec.Complete()
				if c.name == "clean" && !complete {
					t.Fatalf("clean file not complete (err %v, report %+v)", perr, rec)
				}
				path := filepath.Join(t.TempDir(), "snap")
				if err := os.WriteFile(path, c.data, 0o644); err != nil {
					t.Fatal(err)
				}
				for _, mode := range []LoadMode{LoadModeHeap, LoadModeMmap} {
					opened, oerr := openComplete(path, mode)
					if complete != (oerr == nil) {
						t.Fatalf("%v: LoadPartial complete = %v, the file open's error %v", mode, complete, oerr)
					}
					if complete {
						checkEngineEquivalence(t, partial, opened)
						opened.Close()
					}
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
	loaded, err := loadComplete(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumImages() != 0 || loaded.NumShapes() != 0 {
		t.Errorf("empty engine gained content: %d images, %d shapes",
			loaded.NumImages(), loaded.NumShapes())
	}
}

// TestLoadRejectsCorrupt: the decoder refuses no input and a bad magic
// outright, and a snapshot cut in half never reads as complete.
func TestLoadRejectsCorrupt(t *testing.T) {
	if _, _, err := LoadPartial(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should fail")
	}
	if _, _, err := LoadPartial(bytes.NewReader([]byte("NOTGS\n"))); err == nil {
		t.Error("bad magic should fail")
	}
	// Truncated body.
	orig := buildEngine(t)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := loadComplete(data[:len(data)/2]); err == nil {
		t.Error("truncated input should not read as complete")
	}
}
