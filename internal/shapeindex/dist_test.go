package shapeindex_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/shapeindex"
	"repro/internal/synth"
)

// bruteDist2 is the walk's oracle: the minimum, over every indexed segment,
// of the squared distance computed with the kernel's own operation
// sequence on the grid's own arrays — so equality is equality of bits.
func bruteDist2(parts shapeindex.GridParts, p geom.Point) float64 {
	best2 := math.Inf(1)
	for id := range parts.Ax {
		wx, wy := p.X-parts.Ax[id], p.Y-parts.Ay[id]
		t := min(max((wx*parts.Dx[id]+wy*parts.Dy[id])*parts.InvL2[id], 0), 1)
		ex, ey := wx-t*parts.Dx[id], wy-t*parts.Dy[id]
		best2 = min(best2, ex*ex+ey*ey)
	}
	if math.IsNaN(best2) {
		return math.Inf(1) // a non-finite p
	}
	return best2
}

// checkDistBits compares Dist and Nearest at p with the brute-force
// minimum, bit for bit.
func checkDistBits(t testing.TB, g *shapeindex.SegmentGrid, p geom.Point) {
	t.Helper()
	parts := g.Parts()
	want := math.Sqrt(bruteDist2(parts, p))
	got := g.Dist(p)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%v at %v: Dist = %v (%#x), brute force %v (%#x)",
			g, p, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	i, d := g.Nearest(p)
	if math.Float64bits(d) != math.Float64bits(want) {
		t.Fatalf("%v at %v: Nearest = %v, Dist %v", g, p, d, got)
	}
	if math.IsInf(want, 1) != (i < 0) || i >= g.NumSegments() {
		t.Fatalf("%v at %v: Nearest index %d at distance %v", g, p, i, d)
	}
	if i >= 0 {
		one := shapeindex.GridParts{Ax: parts.Ax[i : i+1], Ay: parts.Ay[i : i+1],
			Dx: parts.Dx[i : i+1], Dy: parts.Dy[i : i+1], InvL2: parts.InvL2[i : i+1]}
		if math.Sqrt(bruteDist2(one, p)) != want {
			t.Fatalf("%v at %v: Nearest index %d is not at the distance %v it reports", g, p, i, d)
		}
	}
}

// gridProbes are the points a grid is probed at: random ones inside and
// around its box, every cell's corner and edge midpoints an ulp to either
// side, every segment's ends and middle, and points far outside.
func gridProbes(rng *rand.Rand, g *shapeindex.SegmentGrid) []geom.Point {
	parts := g.Parts()
	b := parts.Bounds
	w, h := float64(parts.Nx)*parts.Cw, float64(parts.Ny)*parts.Ch
	var out []geom.Point
	for i := 0; i < 64; i++ {
		out = append(out,
			geom.Pt(b.Min.X+rng.Float64()*w, b.Min.Y+rng.Float64()*h),
			geom.Pt(b.Min.X+(3*rng.Float64()-1)*w, b.Min.Y+(3*rng.Float64()-1)*h))
	}
	for cy := 0; cy <= parts.Ny; cy++ {
		for cx := 0; cx <= parts.Nx; cx++ {
			x, y := b.Min.X+float64(cx)*parts.Cw, b.Min.Y+float64(cy)*parts.Ch
			for _, px := range []float64{x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)), x + parts.Cw/2} {
				for _, py := range []float64{y, math.Nextafter(y, math.Inf(-1)), math.Nextafter(y, math.Inf(1)), y + parts.Ch/2} {
					out = append(out, geom.Pt(px, py))
				}
			}
		}
	}
	for i := 0; i < g.NumSegments(); i++ {
		s := g.Segment(i)
		out = append(out, s.A, s.B, s.A.Lerp(s.B, 0.5))
	}
	far := 100 * (1 + w + h)
	return append(out,
		geom.Pt(b.Min.X-far, b.Min.Y-far), geom.Pt(b.Max.X+far, b.Min.Y+h/2),
		geom.Pt(b.Min.X+w/2, b.Max.Y+far), geom.Pt(b.Min.X-far, b.Max.Y+1e6*far))
}

// TestSegmentGridDistBits pins that the walk only chooses which segments
// to evaluate, never what a distance is: at every probe of random segment
// sets and polygon boundaries, and at every stored-copy vertex of a
// demo-20 base against 32 query oracles — the calls a search makes — Dist
// is the brute-force minimum of the same kernel, bit for bit.
func TestSegmentGridDistBits(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 24; trial++ {
		var segs []geom.Segment
		switch trial % 3 {
		case 0: // scattered short segments, many cells empty
			for i, n := 0, 1+rng.Intn(60); i < n; i++ {
				a := geom.Pt(rng.Float64()*4, rng.Float64()*4)
				segs = append(segs, geom.Seg(a, a.Add(geom.Pt(rng.NormFloat64(), rng.NormFloat64()).Scale(0.2))))
			}
		case 1: // a connected boundary, the engine's case
			segs = synth.Prototype(rng, trial, 5+rng.Intn(40), trial%2 == 0).Edges()
		case 2: // axis-aligned edges on cell borders
			segs = geom.NewPolygon(geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 2), geom.Pt(2, 2), geom.Pt(2, 4), geom.Pt(0, 4)).Edges()
		}
		g := shapeindex.NewSegmentGrid(segs)
		for _, p := range gridProbes(rng, g) {
			checkDistBits(t, g, p)
		}
	}

	spec := synth.PaperSpec(20.0/10000, 1)
	spec.Images = 20
	images := synth.GenerateBase(spec)
	var copies []geom.Poly
	for _, img := range images {
		for _, s := range img.Shapes {
			entries, err := core.Normalize(s, 0.1)
			if err != nil {
				continue
			}
			for _, e := range entries {
				copies = append(copies, e.Poly)
			}
		}
	}
	calls := 0
	for _, q := range synth.Queries(rng, images, 32, 0.02) {
		qe, err := core.NormalizeCanonical(q)
		if err != nil {
			continue
		}
		g := shapeindex.NewSegmentGrid(qe.Poly.Edges())
		parts := g.Parts()
		for _, cp := range copies {
			for _, p := range cp.Pts {
				calls++
				if got, want := g.Dist(p), math.Sqrt(bruteDist2(parts, p)); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v at stored vertex %v: Dist = %v, brute force %v", g, p, got, want)
				}
			}
		}
	}
	if calls < 100000 {
		t.Fatalf("only %d stored-vertex probes", calls)
	}
}

// TestSegmentGridDistEdgeCases pins what the walk returns where a ring
// search is easiest to get wrong, and that it returns at all: it ends by
// its box covering the grid, whatever the point.
func TestSegmentGridDistEdgeCases(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	square := geom.NewPolygon(geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4), geom.Pt(0, 4)).Edges()
	// 16 short segments along the bottom and left of [0,8]²: a 4×4 grid whose
	// upper-right cells are all empty.
	var corner []geom.Segment
	for i := 0; i < 8; i++ {
		corner = append(corner,
			geom.Seg(geom.Pt(float64(i), 0), geom.Pt(float64(i)+1, 0)),
			geom.Seg(geom.Pt(0, float64(i)), geom.Pt(0, float64(i)+1)))
	}
	cases := []struct {
		name string
		segs []geom.Segment
		p    geom.Point
		want float64
	}{
		{"NaN x", square, geom.Pt(nan, 1), inf},
		{"NaN y", square, geom.Pt(1, nan), inf},
		{"NaN both", square, geom.Pt(nan, nan), inf},
		{"+Inf x", square, geom.Pt(inf, 1), inf},
		{"-Inf x", square, geom.Pt(-inf, 1), inf},
		{"+Inf y", square, geom.Pt(1, inf), inf},
		{"-Inf both", square, geom.Pt(-inf, -inf), inf},
		{"far outside bounds", square, geom.Pt(4+3e8, 4+4e8), 5e8},
		{"far outside, huge", square, geom.Pt(-math.Ldexp(1, 500), 2), math.Ldexp(1, 500)},
		{"1x1 grid", square[:1], geom.Pt(2, 3), 3},
		{"1x1 grid, outside", square[:1], geom.Pt(-3, -4), 5},
		{"degenerate segment", []geom.Segment{geom.Seg(geom.Pt(3, 3), geom.Pt(3, 3))}, geom.Pt(0, 7), 5},
		{"degenerate among others", append([]geom.Segment{geom.Seg(geom.Pt(2, 2), geom.Pt(2, 2))}, square...), geom.Pt(2, 2.5), 0.5},
		// A grid 8e-9 tall: the middle row's cells are crossed by the
		// segment at y = 0, which a tolerance in absolute units missed.
		{"thin grid", geom.NewPolygon(geom.Pt(0, -4e-9), geom.Pt(16, 0), geom.Pt(0, 0), geom.Pt(0, 4e-9), geom.Pt(0, 0)).Edges(), geom.Pt(8, 0), 0},
		// 1/|d|² overflows: measured at its start, not as a NaN.
		{"too short to invert", []geom.Segment{geom.Seg(geom.Pt(0, 0), geom.Pt(1e-160, 0))}, geom.Pt(0, 3), 3},
		{"empty own cell", corner, geom.Pt(7, 7), 7},
		{"empty own cell, tie", corner, geom.Pt(5, 5), 5},
		{"on a segment", corner, geom.Pt(3.5, 0), 0},
	}
	for _, tc := range cases {
		g := shapeindex.NewSegmentGrid(tc.segs)
		if got := g.Dist(tc.p); got != tc.want {
			t.Errorf("%s: %v Dist(%v) = %v, want %v", tc.name, g, tc.p, got, tc.want)
		}
		i, d := g.Nearest(tc.p)
		if d != tc.want || (i < 0) != math.IsInf(tc.want, 1) {
			t.Errorf("%s: %v Nearest(%v) = (%d, %v), want distance %v", tc.name, g, tc.p, i, d, tc.want)
		}
	}
}

// fuzzSegments decodes up to 24 segments and one probe point from data:
// float64 quadruples, then a pair. Non-finite segment coordinates are not
// a grid the engine builds (shapes are validated) and are skipped.
func fuzzSegments(data []byte) ([]geom.Segment, geom.Point, bool) {
	if len(data) < 16+32 {
		return nil, geom.Point{}, false
	}
	f := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:])) }
	p := geom.Pt(f(0), f(1))
	var segs []geom.Segment
	for i := 2; 8*(i+4) <= len(data) && len(segs) < 24; i += 4 {
		for j := i; j < i+4; j++ {
			if v := f(j); math.IsNaN(v) || math.Abs(v) > 1e100 {
				return nil, geom.Point{}, false
			}
		}
		segs = append(segs, geom.Seg(geom.Pt(f(i), f(i+1)), geom.Pt(f(i+2), f(i+3))))
	}
	return segs, p, true
}

// FuzzSegmentGridDist holds the walk to TestSegmentGridDistBits's oracle on
// arbitrary segment sets and probe points, non-finite probes included.
func FuzzSegmentGridDist(f *testing.F) {
	enc := func(vs ...float64) []byte {
		out := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	f.Add(enc(0.5, 0.5, 0, 0, 1, 0, 1, 0, 1, 1))
	f.Add(enc(math.NaN(), 1, 0, 0, 4, 0, 4, 0, 4, 4, 4, 4, 0, 4, 0, 4, 0, 0))
	f.Add(enc(-1e9, 1e-9, 3, 3, 3, 3))
	f.Add(enc(2, 2, 0, 0, 1, 0, 1, 0, 2, 0, 2, 0, 3, 0, 0, 0, 0, 1, 0, 1, 0, 2, 0, 2, 0, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		segs, p, ok := fuzzSegments(data)
		if !ok {
			return
		}
		checkDistBits(t, shapeindex.NewSegmentGrid(segs), p)
	})
}

// BenchmarkSegmentGridDist times the oracle call a search makes ~13,000
// times, on a query-sized boundary (20 edges): near probes sit within a
// hundredth of the boundary (a stored copy's vertices against a similar
// query), far ones anywhere in the grid's box (the distance field's build),
// outside ones up to a box away from it. segs/op is how many segment
// evaluations the walk needed per call, duplicates included.
func BenchmarkSegmentGridDist(b *testing.B) {
	rng := rand.New(rand.NewSource(223))
	qe, err := core.NormalizeCanonical(synth.Prototype(rng, 3, 20, false))
	if err != nil {
		b.Fatal(err)
	}
	g := shapeindex.NewSegmentGrid(qe.Poly.Edges())
	box := qe.Poly.Bounds()
	w, h := box.Width(), box.Height()
	probes := map[string][]geom.Point{}
	for i := 0; i < 1024; i++ {
		s := g.Segment(rng.Intn(g.NumSegments()))
		probes["near"] = append(probes["near"],
			s.A.Lerp(s.B, rng.Float64()).Add(geom.Pt(rng.NormFloat64(), rng.NormFloat64()).Scale(0.005)))
		probes["far"] = append(probes["far"], geom.Pt(box.Min.X+rng.Float64()*w, box.Min.Y+rng.Float64()*h))
		probes["outside"] = append(probes["outside"],
			geom.Pt(box.Min.X-w+3*rng.Float64()*w, box.Max.Y+rng.Float64()*h))
	}
	for _, name := range []string{"near", "far", "outside"} {
		pts := probes[name]
		b.Run(name, func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += g.Dist(pts[i%len(pts)])
			}
			if math.IsNaN(sink) {
				b.Fatal("NaN distance")
			}
			evals := 0
			for _, p := range pts {
				evals += shapeindex.WalkEvaluations(g, p)
			}
			b.ReportMetric(float64(evals)/float64(len(pts)), "segs/op")
		})
	}
}
