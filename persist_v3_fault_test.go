package geosir

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/iofault"
)

// gsir3Bytes returns the canonical GSIR3 encoding of eng.
func gsir3Bytes(t *testing.T, eng *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := eng.SaveAs(&buf, FormatGSIR3); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGSIR3SaveAtomicUnderWriteFaults kills the GSIR3 writer at every
// grid offset and checks the previous snapshot survives byte-identical,
// loadable, and without temp-file litter — the same guarantee the GSIR2
// atomic writer gives, now through the section writer.
func TestGSIR3SaveAtomicUnderWriteFaults(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.gsir3")
	old := buildEngine(t)
	if err := old.SaveFileAs(path, FormatGSIR3); err != nil {
		t.Fatal(err)
	}
	prior, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	next := altEngine(t)
	if err := next.Freeze(); err != nil {
		t.Fatal(err)
	}
	size := len(gsir3Bytes(t, next))
	for _, off := range faultOffsets(size) {
		err := next.saveFileAtomic(path, FormatGSIR3, func(w io.Writer) io.Writer {
			return iofault.FailWriter(w, int64(off))
		})
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
	// The prior snapshot must still load — in both modes.
	if _, err := LoadFile(path); err != nil {
		t.Fatalf("prior snapshot no longer loads: %v", err)
	}
	// A clean save finally replaces it.
	if err := next.SaveFileAs(path, FormatGSIR3); err != nil {
		t.Fatal(err)
	}
	cur, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cur, gsir3Bytes(t, next)) {
		t.Fatal("clean save did not publish the new snapshot")
	}
}

// TestGSIR3TornWriteDetected models the failure rename-based atomicity
// cannot prevent: the writer lies about success and publishes a
// truncated GSIR3 file. The section table's exact-coverage rule must
// catch every cut — strict Load always fails, and LoadPartial either
// refuses outright or salvages with the loss reported. Never a silently
// smaller or different base.
func TestGSIR3TornWriteDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.gsir3")
	eng := buildEngine(t)
	full := gsir3Bytes(t, eng)
	for _, off := range faultOffsets(len(full)) {
		err := eng.saveFileAtomic(path, FormatGSIR3, func(w io.Writer) io.Writer {
			return iofault.TruncWriter(w, int64(off))
		})
		if err != nil {
			t.Fatalf("offset %d: torn save surfaced an error: %v", off, err)
		}
		if _, err := LoadFile(path); err == nil {
			t.Fatalf("offset %d: truncated GSIR3 snapshot loaded without error", off)
		}
		if _, err := LoadFileMmap(path); err == nil {
			t.Fatalf("offset %d: truncated GSIR3 snapshot mmap-loaded without error", off)
		}
		eng2, rec, err := LoadPartialFile(path)
		if err != nil {
			continue // refused outright: detection, not silence
		}
		if rec.Complete() {
			t.Fatalf("offset %d: truncated snapshot reported complete", off)
		}
		if eng2.NumImages() != rec.ImagesLoaded {
			t.Fatalf("offset %d: engine has %d images, report says %d",
				off, eng2.NumImages(), rec.ImagesLoaded)
		}
	}
}
