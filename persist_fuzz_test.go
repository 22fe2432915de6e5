package geosir

import (
	"bytes"
	"testing"

	"repro/internal/sectable"
)

// fuzzSeedEngine builds a small engine without a *testing.T (f.Add runs
// before the fuzz worker has one).
func fuzzSeedEngine() *Engine {
	eng := New(DefaultOptions())
	_ = eng.AddImage(0, []Shape{
		NewPolygon(Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4)),
		NewPolyline(Pt(1, 1), Pt(2, 3), Pt(3, 1)),
	})
	_ = eng.AddImage(7, []Shape{
		NewPolygon(Pt(0, 0), Pt(3, 0), Pt(0, 5)),
	})
	return eng
}

// checkLoad is the fuzz targets' shared rule over the one stream decoder:
// LoadPartial never panics or over-allocates; its accounting covers every
// declared image; and what it reads as Complete() re-saves canonically —
// the re-save reads back complete, and save → load → save is a byte fixed
// point, so no stream read as complete can describe an ambiguous base.
func checkLoad(t *testing.T, data []byte) {
	t.Helper()
	le, rec, err := LoadPartial(bytes.NewReader(data))
	if err != nil {
		return
	}
	if got := rec.ImagesLoaded + len(rec.Dropped) + rec.ImagesUnread; got != rec.ImagesExpected {
		t.Fatalf("recovery accounting: %d loaded + %d dropped + %d unread ≠ %d expected",
			rec.ImagesLoaded, len(rec.Dropped), rec.ImagesUnread, rec.ImagesExpected)
	}
	if !rec.Complete() {
		return
	}
	var b1 bytes.Buffer
	if err := le.Save(&b1); err != nil {
		t.Fatalf("complete stream failed to re-save: %v", err)
	}
	le2, err := loadComplete(b1.Bytes())
	if err != nil {
		t.Fatalf("canonical re-save does not read back complete: %v", err)
	}
	var b2 bytes.Buffer
	if err := le2.Save(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("save→load→save is not a byte fixed point (%d vs %d bytes)", b1.Len(), b2.Len())
	}
	if le2.NumImages() != le.NumImages() || le2.NumShapes() != le.NumShapes() || le2.NumEntries() != le.NumEntries() {
		t.Fatalf("reloaded counts differ: %d/%d/%d vs %d/%d/%d",
			le2.NumImages(), le2.NumShapes(), le2.NumEntries(),
			le.NumImages(), le.NumShapes(), le.NumEntries())
	}
}

// FuzzLoad feeds arbitrary bytes to the snapshot decoder, seeded from the
// GSIR1 and GSIR2 goldens, under checkLoad's invariants.
func FuzzLoad(f *testing.F) {
	v1, v2 := gsir1Golden(f), gsir2Golden(f)
	f.Add(v1)
	f.Add(v2)
	f.Add(v1[:len(v1)/2])
	f.Add(v2[:len(v2)/2])
	f.Add([]byte(magicGSIR1))
	f.Add([]byte(magicGSIR2))
	f.Add([]byte("GSIR2\n\xff\xff\xff\xff"))
	f.Add([]byte{})
	f.Fuzz(checkLoad)
}

// FuzzLoadV3 feeds arbitrary bytes to the decoder, seeded from GSIR3
// files, under checkLoad's invariants — salvage-or-refuse, never a
// silently wrong base.
func FuzzLoadV3(f *testing.F) {
	eng := fuzzSeedEngine()
	if err := eng.Freeze(); err != nil {
		f.Fatal(err)
	}
	var v3 bytes.Buffer
	if err := eng.Save(&v3); err != nil {
		f.Fatal(err)
	}
	f.Add(v3.Bytes())
	f.Add(v3.Bytes()[:v3.Len()/2])
	f.Add(v3.Bytes()[:magicLen+sectable.HeaderLen])
	f.Add([]byte(magicGSIR3))
	// Header claiming an absurd section count.
	f.Add([]byte("GSIR3\n\x01\x00\xff\xff\xff\xff\x00\x00\x00\x00"))
	f.Add([]byte{})
	// An older writer's file, with sections the loader now ignores.
	f.Add(gsir3KDTreeGolden(f))
	f.Fuzz(checkLoad)
}
