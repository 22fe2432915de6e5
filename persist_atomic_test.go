package geosir

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/atomicfile"
	"repro/internal/ingest"
	"repro/internal/iofault"
)

// altEngine builds a frozen engine whose snapshot differs from
// buildEngine's, so an atomicity violation (new bytes leaking into the old
// snapshot) cannot go unnoticed.
func altEngine(t *testing.T) *Engine {
	t.Helper()
	eng := New(DefaultOptions())
	images := [][]Shape{
		{triangle(1, 1, 6)},
		{lshape(0, 0, 4), square(2, 2, 5)},
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

// snapshotBytes returns the canonical encoding of eng: what Save writes.
func snapshotBytes(t *testing.T, eng *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// faultOffsets returns the crash-point grid for a stream of the given
// size: every byte of the first 64 (framing & options live there), every
// seventh byte after, and the exact end-of-stream boundary offsets.
func faultOffsets(size int) []int {
	var offs []int
	for o := 0; o < size && o < 64; o++ {
		offs = append(offs, o)
	}
	for o := 64; o < size; o += 7 {
		offs = append(offs, o)
	}
	if size > 0 {
		offs = append(offs, size-1)
	}
	return offs
}

// TestSaveFileAtomicUnderWriteFaults kills SaveFile at every grid offset
// and checks the previous snapshot survives byte-identical, loadable (heap
// and mapped), and without temp-file litter.
func TestSaveFileAtomicUnderWriteFaults(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.gsir")
	old := buildEngine(t)
	if err := old.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	prior, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	next := altEngine(t)
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
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			var names []string
			for _, e := range entries {
				names = append(names, e.Name())
			}
			t.Fatalf("offset %d: temp litter left behind: %v", off, names)
		}
	}
	// The prior snapshot must still load complete — in both modes, mapped
	// where mmap can serve it.
	for _, mode := range []LoadMode{LoadModeHeap, LoadModeMmap} {
		m, err := openComplete(path, mode)
		if err != nil {
			t.Fatalf("%v: prior snapshot no longer loads: %v", mode, err)
		}
		if got, want := m.StorageStats().LoadMode, servedLoadMode(mode); got != want {
			t.Fatalf("%v: prior snapshot served from %s, want %s", mode, got, want)
		}
		m.Close()
	}
	// A clean save finally replaces it.
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
}

// TestSaveFileTornWriteDetected models the one failure rename-based
// atomicity cannot prevent: the writer lies about success (lost page
// cache without the fsync taking effect), publishing a truncated
// snapshot. The format must then detect the damage on load — the file
// open, heap and mmap, never reads a cut as complete, so never as a
// silently smaller image base — and the decoder, which needs the raw
// sections whole, must refuse every cut inside them and salvage every
// image from every cut past them, the torn derived sections counted in
// AuxDropped.
func TestSaveFileTornWriteDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.gsir")
	eng := buildEngine(t)
	full := snapshotBytes(t, eng)
	rawEnd := v3SectionEnd(t, full, "RAWV")
	nimg := eng.NumImages()
	for _, off := range faultOffsets(len(full)) {
		err := atomicfile.Write(path, func(w io.Writer) io.Writer {
			return iofault.TruncWriter(w, int64(off))
		}, eng.Save)
		if err != nil {
			// The torn writer claims success all the way; Sync/rename
			// should too.
			t.Fatalf("offset %d: torn save surfaced an error: %v", off, err)
		}
		for _, mode := range []LoadMode{LoadModeHeap, LoadModeMmap} {
			if _, err := openComplete(path, mode); err == nil {
				t.Fatalf("offset %d: %v: truncated snapshot read as complete", off, mode)
			}
		}
		eng2, rec, err := loadShardFile(path, LoadModeHeap)
		if (err != nil) != (off < rawEnd) {
			t.Fatalf("offset %d (raw sections end at %d): LoadPartial error %v", off, rawEnd, err)
		}
		if err != nil {
			continue
		}
		if rec.Complete() || rec.AuxDropped == 0 {
			t.Fatalf("offset %d: truncated snapshot reported %+v, want the torn sections counted", off, rec)
		}
		if rec.ImagesLoaded != nimg || eng2.NumImages() != nimg {
			t.Fatalf("offset %d: engine has %d images, report says %d, want %d",
				off, eng2.NumImages(), rec.ImagesLoaded, nimg)
		}
	}
}

// TestCorruptionFlipSweep flips every byte of the GSIR2 golden (two bit
// patterns) and checks the acceptance contract: the decoder refuses the
// flip, reports the loss, or recovers completely exactly the pristine
// base (it re-saves to the bytes the pristine golden's does). Never a
// silently different image base.
func TestCorruptionFlipSweep(t *testing.T) {
	golden := gsir2Golden(t)
	eng, err := loadComplete(golden)
	if err != nil {
		t.Fatal(err)
	}
	pristine := snapshotBytes(t, eng)
	for _, xor := range []byte{0xFF, 0x01} {
		for off := 0; off < len(golden); off++ {
			mut := bytes.Clone(golden)
			mut[off] ^= xor
			pe, rec, err := LoadPartial(bytes.NewReader(mut))
			if err != nil {
				continue // refused outright: detection, not silence
			}
			if rec.Complete() {
				resaved := snapshotBytes(t, pe)
				if !bytes.Equal(resaved, pristine) {
					t.Fatalf("offset %d xor %#x: LoadPartial claimed complete recovery of a different base", off, xor)
				}
			} else if len(rec.Dropped) == 0 && rec.ImagesUnread == 0 && rec.AuxDropped == 0 {
				t.Fatalf("offset %d xor %#x: incomplete recovery (%v) with no loss reported", off, xor, rec.Err)
			}
		}
	}
}

// sectionOffsets walks a GSIR2 stream and returns the byte offset of each
// section's length prefix (options first, then one per image).
func sectionOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	if string(data[:magicLen]) != magicGSIR2 {
		t.Fatal("not a GSIR2 stream")
	}
	var offs []int
	off := magicLen
	for off < len(data) {
		offs = append(offs, off)
		n := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4 + n + 4
	}
	if off != len(data) {
		t.Fatalf("section walk overran the stream: %d vs %d", off, len(data))
	}
	return offs
}

// TestLoadPartialSalvagesVerifiedImages corrupts exactly one image
// section of the GSIR2 golden and checks every other image survives, with
// the damage reported and the recovery not complete.
func TestLoadPartialSalvagesVerifiedImages(t *testing.T) {
	eng := buildEngine(t)
	data := gsir2Golden(t)
	offs := sectionOffsets(t, data)
	nimg := eng.NumImages()
	// Options, one per image, and the trailing ANN auxiliary section.
	if len(offs) != 1+nimg+1 {
		t.Fatalf("expected %d sections, found %d", 1+nimg+1, len(offs))
	}
	// Flip one payload byte in the second image's section.
	mut := append([]byte(nil), data...)
	target := offs[2] + 4 + 5 // inside the payload
	mut[target] ^= 0xFF
	eng2, rec, err := LoadPartial(bytes.NewReader(mut))
	if err != nil {
		t.Fatalf("LoadPartial: %v", err)
	}
	if rec.Complete() || !errors.Is(rec.Err, errBadCRC) {
		t.Fatalf("first damage %v, want the image's checksum mismatch", rec.Err)
	}
	if rec.Format != "GSIR2" || rec.Truncated {
		t.Fatalf("unexpected report: %+v", rec)
	}
	if rec.ImagesLoaded != nimg-1 || len(rec.Dropped) != 1 {
		t.Fatalf("salvaged %d, dropped %d; want %d and 1", rec.ImagesLoaded, len(rec.Dropped), nimg)
	}
	d := rec.Dropped[0]
	if d.Section != 2 || d.ImageID != 1 || d.Offset != int64(offs[2]) || !errors.Is(d.Err, errBadCRC) {
		t.Fatalf("dropped report wrong: %+v", d)
	}
	if eng2.NumImages() != nimg-1 {
		t.Fatalf("engine has %d images, want %d", eng2.NumImages(), nimg-1)
	}
	// The salvaged engine must answer queries.
	q := lshape(0, 0, 3).Transform(Similarity(1.4, 0.5, Pt(40, 40)))
	mustSearch(t, eng2, SearchRequest{Query: q, K: 3})
}

// TestLoadPartialTruncatedTail truncates the GSIR2 golden mid-stream: the
// verified prefix is salvaged, the remainder is reported dropped with
// Truncated set.
func TestLoadPartialTruncatedTail(t *testing.T) {
	eng := buildEngine(t)
	data := gsir2Golden(t)
	offs := sectionOffsets(t, data)
	nimg := eng.NumImages()
	cut := offs[3] + 6 // mid-way through the third image's section
	_, rec, err := LoadPartial(bytes.NewReader(data[:cut]))
	if err != nil {
		t.Fatalf("LoadPartial: %v", err)
	}
	if !rec.Truncated {
		t.Fatal("truncation not reported")
	}
	if rec.ImagesLoaded != 2 || len(rec.Dropped) != 1 || rec.ImagesUnread != nimg-3 {
		t.Fatalf("salvaged %d, dropped %d, unread %d; want 2, 1, %d",
			rec.ImagesLoaded, len(rec.Dropped), rec.ImagesUnread, nimg-3)
	}
	if rec.Dropped[0].Offset != int64(offs[3]) {
		t.Fatalf("dropped offset %d, want %d", rec.Dropped[0].Offset, offs[3])
	}
}

// TestLoadPartialGSIR1Prefix salvages the undamaged prefix of a legacy
// stream (no checksums: recovery stops at the first parse error).
func TestLoadPartialGSIR1Prefix(t *testing.T) {
	eng := buildEngine(t)
	data := gsir1Golden(t)
	eng2, rec, err := LoadPartial(bytes.NewReader(data[:len(data)-20]))
	if err != nil {
		t.Fatalf("LoadPartial: %v", err)
	}
	if rec.Format != "GSIR1" || !rec.Truncated {
		t.Fatalf("unexpected report: %+v", rec)
	}
	if rec.ImagesLoaded+len(rec.Dropped)+rec.ImagesUnread != eng.NumImages() {
		t.Fatalf("accounting broken: %d + %d + %d ≠ %d",
			rec.ImagesLoaded, len(rec.Dropped), rec.ImagesUnread, eng.NumImages())
	}
	if rec.ImagesLoaded == 0 || eng2.NumImages() != rec.ImagesLoaded {
		t.Fatalf("salvage mismatch: engine %d vs report %d", eng2.NumImages(), rec.ImagesLoaded)
	}
	// An intact stream reports complete recovery and matches plain Load.
	eng3, rec3, err := LoadPartial(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !rec3.Complete() || eng3.NumImages() != eng.NumImages() {
		t.Fatalf("intact stream not fully recovered: %+v", rec3)
	}
}

// TestLoadPartialReadErrorIsACut holds a read error to the rule of a
// stream cut where it struck: over a file of each format, LoadPartial
// through a reader that fails at an offset (the file's length included)
// loads the images the same bytes cut there load, and never reads as
// complete.
func TestLoadPartialReadErrorIsACut(t *testing.T) {
	files := map[string][]byte{"GSIR1": gsir1Golden(t), "GSIR2": gsir2Golden(t), "GSIR3": snapshotBytes(t, buildEngine(t))}
	for format, data := range files {
		for _, off := range append(faultOffsets(len(data)), len(data)) {
			cut, crec, cerr := LoadPartial(iofault.TruncReader(bytes.NewReader(data), int64(off)))
			got, rec, err := LoadPartial(iofault.FailReader(bytes.NewReader(data), int64(off)))
			if err != nil || cerr != nil {
				if err == nil || cerr == nil || !errors.Is(err, iofault.ErrInjected) {
					t.Fatalf("%s at %d: read error %v, cut %v", format, off, err, cerr)
				}
			} else if rec.Complete() || !errors.Is(rec.Err, iofault.ErrInjected) {
				t.Fatalf("%s at %d: read error not recorded as damage: %v", format, off, rec.Err)
			} else if rec.Format != format || rec.ImagesLoaded != crec.ImagesLoaded || rec.ImagesUnread != crec.ImagesUnread ||
				!bytes.Equal(snapshotBytes(t, got), snapshotBytes(t, cut)) {
				t.Fatalf("%s at %d: read error loaded %d images, the cut %d", format, off, rec.ImagesLoaded, crec.ImagesLoaded)
			}
		}
	}
}

// TestSaveFileKeepsMode checks that a replaced file keeps its mode — a
// snapshot SaveFile writes over, the WAL a compaction rewrites — and that
// a new snapshot is published 0644, the mode OpenWAL creates the WAL with.
func TestSaveFileKeepsMode(t *testing.T) {
	dir := t.TempDir()
	mode := func(path string) os.FileMode {
		t.Helper()
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return st.Mode().Perm()
	}
	path, eng := filepath.Join(dir, "snap.gsir3"), buildEngine(t)
	if err := eng.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if m := mode(path); m != 0o644 {
		t.Fatalf("new snapshot published %v, want 0644", m)
	}
	if err := os.Chmod(path, 0o640); err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if m := mode(path); m != 0o640 {
		t.Fatalf("snapshot saved over a 0640 file is %v", m)
	}
	w, _, _, err := ingest.OpenWAL(filepath.Join(dir, walName), ingest.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	before := mode(w.Path())
	if err := w.Rewrite(nil); err != nil {
		t.Fatal(err)
	}
	if m := mode(w.Path()); m != before {
		t.Fatalf("WAL rewrite turned %v into %v", before, m)
	}
}

// TestLoadPartialUnrecoverableOptions verifies the documented failure
// mode: a destroyed options section of the GSIR2 golden cannot be
// recovered from.
func TestLoadPartialUnrecoverableOptions(t *testing.T) {
	mut := gsir2Golden(t)
	mut[magicLen+4+3] ^= 0xFF // inside the options payload
	_, _, err := LoadPartial(bytes.NewReader(mut))
	if err == nil || !strings.Contains(err.Error(), "options") {
		t.Fatalf("want unrecoverable-options error, got %v", err)
	}
}
