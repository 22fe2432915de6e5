package qcache

import (
	"encoding/binary"
	"math"
	"testing"

	geosir "repro"
)

// FuzzFingerprint decodes arbitrary bytes into a search request and
// asserts the fingerprint's structural invariants: it never panics, it
// is deterministic (same request → same bytes, call after call), ok
// requests stay ok, and the refusal cases (NaN/Inf coordinates,
// degenerate or empty queries) refuse rather than alias. Affine-
// duplicate collision is deliberately NOT asserted here — arbitrary
// fuzz inputs can straddle the quantization grid, which is a documented
// cache miss, not a bug; the deterministic property tests in
// fingerprint_test.go cover collision with fixed seeds.
//
// Input encoding (all little-endian, permissive — short input just
// yields fewer points):
//
//	byte 0:      mode (mod 5 — one value past the valid modes)
//	byte 1:      k (int8)
//	byte 2:      ann (mod 4)
//	byte 3:      flags (bit0: closed, bit1: sketch split point)
//	bytes 4..:   float64 pairs → vertices
func FuzzFingerprint(f *testing.F) {
	mk := func(mode, k, ann, flags byte, coords ...float64) []byte {
		in := []byte{mode, k, ann, flags}
		for _, c := range coords {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(c))
			in = append(in, b[:]...)
		}
		return in
	}
	// A healthy square, the engine's own modes.
	f.Add(mk(0, 3, 0, 1, 0, 0, 12, 0, 12, 12, 0, 12))
	f.Add(mk(1, 5, 1, 1, 0, 0, 12, 0, 12, 12, 0, 12))
	f.Add(mk(2, 1, 2, 0, 0, 0, 4, 0, 0, 8))
	// Sketch mode with a split.
	f.Add(mk(3, 3, 0, 3, 0, 0, 12, 0, 12, 12, 0, 0, 3, 0, 3, 3))
	// Refusal seeds: NaN, Inf, degenerate, empty.
	f.Add(mk(0, 3, 0, 1, math.NaN(), 0, 1, 1, 2, 2))
	f.Add(mk(0, 3, 0, 1, math.Inf(1), 0, 1, 1, 2, 2))
	f.Add(mk(0, 3, 0, 1, 5, 5, 5, 5, 5, 5))
	f.Add(mk(0, 3, 0, 0))
	// Huge coordinates probing the quantizer's int64 range.
	f.Add(mk(0, 3, 0, 1, 1e300, 0, -1e300, 1, 0, 1e300))

	f.Fuzz(func(t *testing.T, in []byte) {
		req, epoch := decodeFuzzRequest(in)

		fp1, ok1 := SearchFingerprint(req, epoch)
		fp2, ok2 := SearchFingerprint(req, epoch)
		if ok1 != ok2 || (ok1 && fp1 != fp2) {
			t.Fatalf("fingerprint not deterministic: (%x,%v) vs (%x,%v)", fp1, ok1, fp2, ok2)
		}
		if !ok1 {
			return
		}
		if fp1 == (Fingerprint{}) {
			t.Fatal("ok fingerprint is the zero value")
		}
		// The epoch must separate: the same request against the next
		// snapshot generation can never alias.
		if fp3, ok3 := SearchFingerprint(req, epoch+1); ok3 && fp3 == fp1 {
			t.Fatal("epoch bump did not change the fingerprint")
		}
		// The scheduling policy must not separate: it schedules, it never
		// changes results.
		wreq := req
		wreq.Exec = geosir.ExecSequential
		if fpW, okW := SearchFingerprint(wreq, epoch); !okW || fpW != fp1 {
			t.Fatal("the scheduling policy perturbed the fingerprint")
		}
		// Round-trip stability: a request rebuilt from the same wire bytes
		// (the save/load path a client would take) fingerprints the same.
		req2, epoch2 := decodeFuzzRequest(in)
		if fpR, okR := SearchFingerprint(req2, epoch2); !okR || fpR != fp1 {
			t.Fatal("rebuilt request fingerprints differently")
		}
	})
}

// decodeFuzzRequest maps fuzz bytes onto a SearchRequest + epoch. It is
// deterministic in its input — the round-trip assertion above depends
// on that.
func decodeFuzzRequest(in []byte) (geosir.SearchRequest, uint64) {
	var req geosir.SearchRequest
	if len(in) < 4 {
		return req, 1
	}
	req.Mode = geosir.Mode(int(in[0]) % 5)
	req.K = int(int8(in[1]))
	req.Ann = geosir.AnnMode(int(in[2]) % 4)
	flags := in[3]
	closed := flags&1 != 0

	var pts []geosir.Point
	for rest := in[4:]; len(rest) >= 16; rest = rest[16:] {
		x := math.Float64frombits(binary.LittleEndian.Uint64(rest[:8]))
		y := math.Float64frombits(binary.LittleEndian.Uint64(rest[8:16]))
		pts = append(pts, geosir.Pt(x, y))
	}
	mkShape := func(pts []geosir.Point) geosir.Shape {
		if closed {
			return geosir.NewPolygon(pts...)
		}
		return geosir.NewPolyline(pts...)
	}
	if req.Mode == geosir.ModeSketch {
		// Split the points into up to two sketch shapes.
		if flags&2 != 0 && len(pts) >= 6 {
			half := len(pts) / 2
			req.Sketch = []geosir.Shape{mkShape(pts[:half]), mkShape(pts[half:])}
		} else if len(pts) > 0 {
			req.Sketch = []geosir.Shape{mkShape(pts)}
		}
	} else if len(pts) > 0 {
		req.Query = mkShape(pts)
	}
	epoch := uint64(1)
	if len(in) >= 12 {
		epoch = binary.LittleEndian.Uint64(in[4:12]) % 1000
	}
	return req, epoch
}
