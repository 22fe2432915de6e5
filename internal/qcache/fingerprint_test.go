package qcache

import (
	"math"
	"math/rand"
	"testing"

	geosir "repro"
)

// square returns a closed unit-side square anchored at (x, y), scaled by
// side.
func square(x, y, side float64) geosir.Shape {
	return geosir.NewPolygon(geosir.Pt(x, y), geosir.Pt(x+side, y),
		geosir.Pt(x+side, y+side), geosir.Pt(x, y+side))
}

func lshape(x, y, s float64) geosir.Shape {
	return geosir.NewPolygon(
		geosir.Pt(x, y), geosir.Pt(x+2*s, y), geosir.Pt(x+2*s, y+s),
		geosir.Pt(x+s, y+s), geosir.Pt(x+s, y+3*s), geosir.Pt(x, y+3*s))
}

// transform applies rotation by theta, uniform scale, then translation —
// the similarity group the retrieval (and hence the fingerprint) must be
// invariant under.
func transform(q geosir.Shape, theta, scale, dx, dy float64) geosir.Shape {
	c, s := math.Cos(theta), math.Sin(theta)
	out := q
	out.Pts = make([]geosir.Point, len(q.Pts))
	for i, p := range q.Pts {
		x := scale*(c*p.X-s*p.Y) + dx
		y := scale*(s*p.X+c*p.Y) + dy
		out.Pts[i] = geosir.Pt(x, y)
	}
	return out
}

func mustFP(t *testing.T, req geosir.SearchRequest, epoch uint64) Fingerprint {
	t.Helper()
	fp, ok := SearchFingerprint(req, epoch)
	if !ok {
		t.Fatalf("SearchFingerprint(%+v) not fingerprintable", req)
	}
	return fp
}

// TestFingerprintAffineInvariance is the core property the cache keys
// on: every similarity-transformed placement of one query collides onto
// one fingerprint, across modes, k, and ann settings. The seed is fixed
// so the transform parameters never wander near a quantization boundary
// flake.
func TestFingerprintAffineInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []geosir.Shape{square(0, 0, 12), lshape(0, 0, 2)}
	modes := []geosir.Mode{geosir.ModeAuto, geosir.ModeExact, geosir.ModeApproximate}
	anns := []geosir.AnnMode{geosir.AnnOff, geosir.AnnApprox}
	for _, base := range shapes {
		for _, mode := range modes {
			for _, ann := range anns {
				for _, k := range []int{1, 3, 10} {
					req := geosir.SearchRequest{Query: base, K: k, Mode: mode, Ann: ann}
					want := mustFP(t, req, 1)
					for trial := 0; trial < 25; trial++ {
						theta := rng.Float64() * 2 * math.Pi
						scale := 0.25 + rng.Float64()*8
						dx := (rng.Float64() - 0.5) * 2000
						dy := (rng.Float64() - 0.5) * 2000
						req.Query = transform(base, theta, scale, dx, dy)
						got := mustFP(t, req, 1)
						if got != want {
							t.Fatalf("mode=%v ann=%v k=%d trial %d (θ=%.3f s=%.3f d=(%.1f,%.1f)): fingerprint diverged",
								mode, ann, k, trial, theta, scale, dx, dy)
						}
					}
				}
			}
		}
	}
}

// TestFingerprintSeparation: anything that can change the response bytes
// must change the fingerprint.
func TestFingerprintSeparation(t *testing.T) {
	base := geosir.SearchRequest{Query: square(0, 0, 12), K: 3, Mode: geosir.ModeAuto}
	fp := mustFP(t, base, 1)

	cases := []struct {
		name string
		req  geosir.SearchRequest
		ep   uint64
	}{
		{"different shape", geosir.SearchRequest{Query: lshape(0, 0, 2), K: 3, Mode: geosir.ModeAuto}, 1},
		{"different k", geosir.SearchRequest{Query: square(0, 0, 12), K: 4, Mode: geosir.ModeAuto}, 1},
		{"different mode", geosir.SearchRequest{Query: square(0, 0, 12), K: 3, Mode: geosir.ModeExact}, 1},
		{"different ann", geosir.SearchRequest{Query: square(0, 0, 12), K: 3, Mode: geosir.ModeAuto, Ann: geosir.AnnApprox}, 1},
		{"different epoch", base, 2},
	}
	for _, tc := range cases {
		if got := mustFP(t, tc.req, tc.ep); got == fp {
			t.Errorf("%s: fingerprint did not separate", tc.name)
		}
	}

	// The scheduling policy is scheduling, not semantics: it may not
	// separate.
	x := base
	x.Exec = geosir.ExecSequential
	if got := mustFP(t, x, 1); got != fp {
		t.Error("Exec changed the fingerprint; it must not (it never changes results)")
	}
}

// TestFingerprintSketch: sketch fingerprints cover every shape in
// request order (PerShape distances come back positionally).
func TestFingerprintSketch(t *testing.T) {
	a, b := square(0, 0, 12), lshape(0, 0, 2)
	mk := func(sketch ...geosir.Shape) geosir.SearchRequest {
		return geosir.SearchRequest{Sketch: sketch, K: 3, Mode: geosir.ModeSketch}
	}
	ab := mustFP(t, mk(a, b), 1)
	ba := mustFP(t, mk(b, a), 1)
	if ab == ba {
		t.Error("sketch shape order must be significant")
	}
	if aa := mustFP(t, mk(a, a), 1); aa == ab {
		t.Error("different sketch contents must separate")
	}
	// Affine-equivalent sketches collide.
	a2 := transform(a, 1.1, 3, 40, -17)
	b2 := transform(b, -0.6, 0.5, -3, 9)
	if got := mustFP(t, mk(a2, b2), 1); got != ab {
		t.Error("affine-equivalent sketch diverged")
	}
	// The single-shape Query field is ignored in sketch mode.
	withQ := mk(a, b)
	withQ.Query = b
	if got := mustFP(t, withQ, 1); got != ab {
		t.Error("sketch fingerprint must not depend on the unused Query field")
	}
}

// TestFingerprintRefusals: requests the engine would reject (or that
// cannot be canonicalized) refuse to fingerprint rather than risk
// aliasing.
func TestFingerprintRefusals(t *testing.T) {
	nan := geosir.NewPolygon(geosir.Pt(0, 0), geosir.Pt(math.NaN(), 1), geosir.Pt(1, 1))
	inf := geosir.NewPolygon(geosir.Pt(0, 0), geosir.Pt(math.Inf(1), 1), geosir.Pt(1, 1))
	degenerate := geosir.NewPolygon(geosir.Pt(0, 0), geosir.Pt(0, 0), geosir.Pt(0, 0))
	cases := []struct {
		name string
		req  geosir.SearchRequest
	}{
		{"empty query", geosir.SearchRequest{K: 3, Mode: geosir.ModeAuto}},
		{"NaN vertex", geosir.SearchRequest{Query: nan, K: 3}},
		{"Inf vertex", geosir.SearchRequest{Query: inf, K: 3}},
		{"degenerate (zero diameter)", geosir.SearchRequest{Query: degenerate, K: 3}},
		{"empty sketch", geosir.SearchRequest{K: 3, Mode: geosir.ModeSketch}},
		{"NaN sketch member", geosir.SearchRequest{Sketch: []geosir.Shape{square(0, 0, 12), nan}, K: 3, Mode: geosir.ModeSketch}},
		{"unknown mode", geosir.SearchRequest{Query: square(0, 0, 12), K: 3, Mode: geosir.Mode(99)}},
	}
	for _, tc := range cases {
		if _, ok := SearchFingerprint(tc.req, 1); ok {
			t.Errorf("%s: expected refusal", tc.name)
		}
	}
}

// TestFingerprintDeterminism: same request, same bytes — across repeated
// calls and across polyline/polygon closedness.
func TestFingerprintDeterminism(t *testing.T) {
	req := geosir.SearchRequest{Query: square(3, 4, 5), K: 2, Mode: geosir.ModeApproximate}
	fp := mustFP(t, req, 9)
	for i := 0; i < 100; i++ {
		if got := mustFP(t, req, 9); got != fp {
			t.Fatalf("call %d: fingerprint not deterministic", i)
		}
	}
	// An open polyline tracing the same vertices is a different shape.
	open := geosir.NewPolyline(req.Query.Pts...)
	oreq := req
	oreq.Query = open
	if got := mustFP(t, oreq, 9); got == fp {
		t.Error("open polyline must not collide with the closed polygon")
	}
}
