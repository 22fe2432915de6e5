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

// FuzzLoad feeds arbitrary bytes to the snapshot readers. Invariants:
// neither Load nor LoadPartial may panic or over-allocate, and anything
// Load accepts must re-save canonically (save → load → save is a byte
// fixed point, so no accepted stream can describe an ambiguous base).
func FuzzLoad(f *testing.F) {
	eng := fuzzSeedEngine()
	v1 := gsir1Golden(f)
	var v2 bytes.Buffer
	if err := eng.SaveAs(&v2, FormatGSIR2); err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	f.Add(v2.Bytes())
	f.Add(v1[:len(v1)/2])
	f.Add(v2.Bytes()[:v2.Len()/2])
	f.Add([]byte(magicGSIR1))
	f.Add([]byte(magicGSIR2))
	f.Add([]byte("GSIR2\n\xff\xff\xff\xff"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if le, err := Load(bytes.NewReader(data)); err == nil {
			var b1 bytes.Buffer
			if err := le.Save(&b1); err != nil {
				t.Fatalf("accepted stream failed to re-save: %v", err)
			}
			le2, err := Load(bytes.NewReader(b1.Bytes()))
			if err != nil {
				t.Fatalf("canonical re-save failed to load: %v", err)
			}
			var b2 bytes.Buffer
			if err := le2.Save(&b2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
				t.Fatalf("save→load→save is not a byte fixed point (%d vs %d bytes)", b1.Len(), b2.Len())
			}
			if le2.NumImages() != le.NumImages() || le2.NumShapes() != le.NumShapes() {
				t.Fatalf("reloaded counts differ: %d/%d vs %d/%d",
					le2.NumImages(), le2.NumShapes(), le.NumImages(), le.NumShapes())
			}
		}
		// The salvage path must hold the same no-panic guarantee, and its
		// accounting must cover every declared image.
		if _, rec, err := LoadPartial(bytes.NewReader(data)); err == nil {
			if got := rec.ImagesLoaded + len(rec.Dropped) + rec.ImagesUnread; got != rec.ImagesExpected {
				t.Fatalf("recovery accounting: %d loaded + %d dropped + %d unread ≠ %d expected",
					rec.ImagesLoaded, len(rec.Dropped), rec.ImagesUnread, rec.ImagesExpected)
			}
		}
	})
}

// FuzzLoadV3 feeds arbitrary bytes to the GSIR3 section readers (strict
// and salvage). Invariants: no panic, no over-allocation, anything the
// strict loader accepts re-saves canonically as GSIR3 (save → load →
// save is a byte fixed point), and the salvage accounting covers every
// declared image — salvage-or-refuse, never a silently wrong base.
func FuzzLoadV3(f *testing.F) {
	eng := fuzzSeedEngine()
	if err := eng.Freeze(); err != nil {
		f.Fatal(err)
	}
	var v3 bytes.Buffer
	if err := eng.SaveAs(&v3, FormatGSIR3); err != nil {
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
	f.Fuzz(func(t *testing.T, data []byte) {
		le, err := Load(bytes.NewReader(data))
		if err == nil && bytes.HasPrefix(data, []byte(magicGSIR3)) {
			// A GSIR3 stream always assembles a frozen engine, so it must
			// round-trip through the canonical v3 writer.
			var b1 bytes.Buffer
			if err := le.SaveAs(&b1, FormatGSIR3); err != nil {
				t.Fatalf("accepted GSIR3 stream failed to re-save: %v", err)
			}
			le2, err := Load(bytes.NewReader(b1.Bytes()))
			if err != nil {
				t.Fatalf("canonical re-save failed to load: %v", err)
			}
			var b2 bytes.Buffer
			if err := le2.SaveAs(&b2, FormatGSIR3); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
				t.Fatalf("GSIR3 save→load→save is not a byte fixed point (%d vs %d bytes)", b1.Len(), b2.Len())
			}
			if le2.NumImages() != le.NumImages() || le2.NumShapes() != le.NumShapes() || le2.NumEntries() != le.NumEntries() {
				t.Fatalf("reloaded counts differ: %d/%d/%d vs %d/%d/%d",
					le2.NumImages(), le2.NumShapes(), le2.NumEntries(),
					le.NumImages(), le.NumShapes(), le.NumEntries())
			}
		}
		if _, rec, err := LoadPartial(bytes.NewReader(data)); err == nil {
			if got := rec.ImagesLoaded + len(rec.Dropped) + rec.ImagesUnread; got != rec.ImagesExpected {
				t.Fatalf("recovery accounting: %d loaded + %d dropped + %d unread ≠ %d expected",
					rec.ImagesLoaded, len(rec.Dropped), rec.ImagesUnread, rec.ImagesExpected)
			}
		}
	})
}
