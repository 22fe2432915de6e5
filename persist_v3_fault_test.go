package geosir

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/atomicfile"
	"repro/internal/iofault"
)

// dirNames lists the entries of dir, for the temp-litter checks.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestGSIR3SaveAtomicUnderWriteFaults upgrades a GSIR2 snapshot in place:
// the GSIR3 writer is killed at every grid offset over the golden GSIR2
// file, which must survive byte-identical, still read as GSIR2 and load,
// without temp-file litter. A clean save then replaces it with GSIR3.
func TestGSIR3SaveAtomicUnderWriteFaults(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.gsir")
	prior := gsir2Golden(t)
	if err := os.WriteFile(path, prior, 0o644); err != nil {
		t.Fatal(err)
	}
	next := buildEngine(t)
	size := len(snapshotBytes(t, next))
	for _, off := range faultOffsets(size) {
		err := atomicfile.Write(path, func(w io.Writer) io.Writer {
			return iofault.FailWriter(w, int64(off))
		}, next.Save)
		if !errors.Is(err, iofault.ErrInjected) {
			t.Fatalf("offset %d: save with injected fault returned %v", off, err)
		}
		cur, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("offset %d: prior snapshot unreadable: %v", off, err)
		}
		if !bytes.Equal(cur, prior) {
			t.Fatalf("offset %d: prior snapshot modified by failed save", off)
		}
		if names := dirNames(t, dir); len(names) != 1 {
			t.Fatalf("offset %d: temp litter left behind: %v", off, names)
		}
	}
	old, rec, err := loadShardFile(path, LoadModeHeap)
	if err != nil || !rec.Complete() || rec.Format != "GSIR2" {
		t.Fatalf("prior snapshot loads as %+v, %v; want a complete GSIR2 file", rec, err)
	}
	checkEngineEquivalence(t, next, old)
	// A clean save finally replaces it, as GSIR3.
	if err := next.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	cur, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cur, snapshotBytes(t, next)) {
		t.Fatal("clean save did not publish the new snapshot")
	}
	if _, rec, err := loadShardFile(path, LoadModeHeap); err != nil || !rec.Complete() || rec.Format != "GSIR3" {
		t.Fatalf("clean save loads as %+v, %v; want a complete GSIR3 file", rec, err)
	}
}

// TestGSIR3SaveFileAsAtomicity: SaveFile publishes GSIR3 — for a frozen
// engine and for one with no shapes — and leaves no temp file behind. An
// unfrozen engine with shapes is refused with ErrNotFrozen before
// anything is published: the prior file stays as it was, again without
// litter.
func TestGSIR3SaveFileAsAtomicity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	for _, eng := range []*Engine{New(DefaultOptions()), buildEngine(t)} {
		if err := eng.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		if names := dirNames(t, dir); len(names) != 1 {
			t.Fatalf("directory holds %v, want the snapshot only", names)
		}
		_, rec, err := loadShardFile(path, LoadModeHeap)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Complete() || rec.Format != "GSIR3" || rec.ImagesExpected != eng.NumImages() {
			t.Fatalf("SaveFile of %d images loads as %+v, want a complete GSIR3 file", eng.NumImages(), rec)
		}
	}
	prior, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	unfrozen := New(DefaultOptions())
	if err := unfrozen.AddImage(0, []Shape{square(0, 0, 5)}); err != nil {
		t.Fatal(err)
	}
	if err := unfrozen.SaveFile(path); !errors.Is(err, ErrNotFrozen) {
		t.Fatalf("SaveFile of an unfrozen engine = %v, want ErrNotFrozen", err)
	}
	cur, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cur, prior) {
		t.Fatal("a refused save modified the prior snapshot")
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Fatalf("a refused save left %v behind", names)
	}
}

// TestGSIR3TornWriteDetected publishes a torn GSIR3 file — the writer
// claims success but stops at every grid offset — of a second base,
// altEngine's. The file open, heap and mmap, reads no cut as complete.
// The decoder refuses every cut inside the raw sections, and from every
// cut past them recovers the base itself: every image, answering as the
// original, the torn derived sections counted. Never a silently different
// base.
func TestGSIR3TornWriteDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.gsir")
	eng := altEngine(t)
	full := snapshotBytes(t, eng)
	rawEnd := v3SectionEnd(t, full, "RAWV")
	for _, off := range faultOffsets(len(full)) {
		err := atomicfile.Write(path, func(w io.Writer) io.Writer {
			return iofault.TruncWriter(w, int64(off))
		}, eng.Save)
		if err != nil {
			t.Fatalf("offset %d: torn save surfaced an error: %v", off, err)
		}
		for _, mode := range []LoadMode{LoadModeHeap, LoadModeMmap} {
			if _, err := openComplete(path, mode); err == nil {
				t.Fatalf("offset %d: %v: truncated GSIR3 snapshot read as complete", off, mode)
			}
		}
		eng2, rec, err := loadShardFile(path, LoadModeHeap)
		if (err != nil) != (off < rawEnd) {
			t.Fatalf("offset %d (raw sections end at %d): LoadPartial error %v", off, rawEnd, err)
		}
		if err != nil {
			continue
		}
		if rec.Complete() || rec.AuxDropped == 0 || rec.ImagesLoaded != eng.NumImages() {
			t.Fatalf("offset %d: report %+v, want all %d images and the torn sections counted",
				off, rec, eng.NumImages())
		}
		checkEngineEquivalence(t, eng, eng2)
	}
}
