package core

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/shapeindex"
)

// fuzzFloats encodes float64s the way the fuzz targets below decode them.
func fuzzFloats(vs ...float64) []byte {
	out := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// fieldFuzzLimit bounds the segment coordinates FuzzDistField builds a field
// over: the segment kernel rounds at ~2⁻⁵² of its operands, so at 1e4 — far
// outside the table's box, which is ~2 across — its error is ~1e-12,
// under geomBoundSlack (1e-9) as it is at a normalized query's magnitudes.
const fieldFuzzLimit = 1e4

// FuzzDistField holds the rasterized field to its one proof obligation on
// arbitrary segment sets — non-normalized ones, segments far outside the box
// and across it, degenerate ones — decoded from data as FuzzSegmentGridDist
// decodes them (a probe point, then up to 24 segments as float64
// quadruples): at the probe, and at the four corners of every cell with a
// positive bound nudged one ulp into it (a cell's farthest points from the
// centre it was measured at), the field read through fieldCell is at most
// the brute-force distance to the segments; at a non-finite probe it is 0.
// And the cell lists hold a nearest segment wherever the float cell index can
// put a point of their cell: at the centre of every listed cell and at its
// four corners, each nudged one ulp in and one ulp out, the least kernel
// value over the list is the least over every segment, bit for bit, and the
// dir pass's read through the cell is the walk's.
//
// The high halves are held to the half turn R(x, y) = (1−x, −y) the same
// way: mirrorCell is an involution that fixes only fieldOff and takes a
// cell's centre to the cell R takes it to, every high half is the low half
// of the mirror cell, and at the probe — also snapped onto a cell border
// and nudged one ulp either side of it — at the pinned points (0,0) and
// (1,0), and at the corners of every cell with a positive bound, the high
// half read through the point's cell is at most the distance at R of the
// point.
func FuzzDistField(f *testing.F) {
	f.Add(fuzzFloats(0.5, 0.5, 0, 0, 1, 0, 1, 0, 0.5, 0.8, 0.5, 0.8, 0, 0))
	f.Add(fuzzFloats(math.NaN(), 1, 0, 0, 1, 0))
	f.Add(fuzzFloats(0.3, -0.2, 1e3, 1e3, 1e3+1, 1e3, -7, 2, 9, -3))
	f.Add(fuzzFloats(1.24, 1.12, 0.2, 0.2, 0.2, 0.2, -0.25, -1.125, 1.25, 1.125))
	f.Add(fuzzFloats(0, 0, -9999, 0.01, 9999, -0.01, 0.5, 3, 0.5, 3.5))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 16+32 {
			return
		}
		v := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:])) }
		p := geom.Pt(v(0), v(1))
		var segs []geom.Segment
		for i := 2; 8*(i+4) <= len(data) && len(segs) < 24; i += 4 {
			for j := i; j < i+4; j++ {
				if !(math.Abs(v(j)) <= fieldFuzzLimit) {
					return
				}
			}
			segs = append(segs, geom.Seg(geom.Pt(v(i), v(i+1)), geom.Pt(v(i+2), v(i+3))))
		}
		oracle := &BoundaryDist{grid: shapeindex.NewSegmentGrid(segs)}
		field := newDistField(oracle)
		if field.lb[fieldOff] != 0 {
			t.Fatalf("the slot of points outside the box holds %d", field.lb[fieldOff])
		}
		for c := uint16(0); c <= fieldOff; c++ {
			m := mirrorCell(c)
			if mirrorCell(m) != c || (m == fieldOff) != (c == fieldOff) {
				t.Fatalf("mirrorCell takes %d to %d and that to %d", c, m, mirrorCell(m))
			}
			if field.lb[c]>>32 != field.lb[m]&math.MaxUint32 {
				t.Fatalf("cell %d's high half %d is not its mirror %d's low half %d", c, field.lb[c]>>32, m, field.lb[m]&math.MaxUint32)
			}
			if c == fieldOff {
				continue
			}
			ix, iy := int(c)%fieldNX, int(c)/fieldNX
			centre := geom.Pt(fieldX0+(float64(ix)+0.5)/fieldRes, fieldY0+(float64(iy)+0.5)/fieldRes)
			if got := fieldCell(geom.Pt(1-centre.X, -centre.Y)); got != m {
				t.Fatalf("R takes cell %d's centre %v to cell %d, mirrorCell to %d", c, centre, got, m)
			}
		}
		dist := func(q geom.Point) float64 {
			d := math.Inf(1)
			for _, s := range segs {
				d = min(d, s.DistToPoint(q))
			}
			return d
		}
		check := func(q geom.Point) {
			t.Helper()
			c := fieldCell(q)
			lb, twin := fieldValue(field, c), float64(field.lb[c]>>32)*fieldUnit
			if !q.IsFinite() {
				if lb != 0 || twin != 0 {
					t.Fatalf("field at %v = %v and %v, want 0", q, lb, twin)
				}
				return
			}
			if d := dist(q); lb > d {
				t.Fatalf("field at %v (cell %d) = %v exceeds the distance %v to %v", q, c, lb, d, segs)
			}
			if r := geom.Pt(1-q.X, -q.Y); twin > dist(r) {
				t.Fatalf("the high half at %v (cell %d) = %v exceeds the distance %v at its half turn %v to %v", q, c, twin, dist(r), r, segs)
			}
		}
		// The probe, and the probe snapped onto the nearest cell border in
		// each coordinate and nudged one ulp to either side of it.
		bx := fieldX0 + math.Round((p.X-fieldX0)*fieldRes)/fieldRes
		by := fieldY0 + math.Round((p.Y-fieldY0)*fieldRes)/fieldRes
		for _, x := range []float64{p.X, bx, math.Nextafter(bx, math.Inf(-1)), math.Nextafter(bx, math.Inf(1))} {
			for _, y := range []float64{p.Y, by, math.Nextafter(by, math.Inf(-1)), math.Nextafter(by, math.Inf(1))} {
				check(geom.Pt(x, y))
			}
		}
		check(geom.Pt(0, 0))
		check(geom.Pt(1, 0))
		for iy := 0; iy < fieldNY; iy++ {
			y0, y1 := fieldY0+float64(iy)/fieldRes, fieldY0+float64(iy+1)/fieldRes
			for ix := 0; ix < fieldNX; ix++ {
				if field.lb[iy*fieldNX+ix] == 0 {
					continue // claims nothing
				}
				x0, x1 := fieldX0+float64(ix)/fieldRes, fieldX0+float64(ix+1)/fieldRes
				for _, x := range []float64{math.Nextafter(x0, x1), math.Nextafter(x1, x0)} {
					for _, y := range []float64{math.Nextafter(y0, y1), math.Nextafter(y1, y0)} {
						check(geom.Pt(x, y))
					}
				}
			}
		}
		g := oracle.grid.Parts()
		least2 := func(q geom.Point, ids []uint8) float64 {
			d2 := math.Inf(1)
			for _, s := range ids {
				d2 = min(d2, shapeindex.SegDist2(q.X, q.Y, g.Ax[s], g.Ay[s], g.Dx[s], g.Dy[s], g.InvL2[s]))
			}
			return d2
		}
		all := make([]uint8, len(segs))
		for i := range all {
			all[i] = uint8(i)
		}
		for iy := 0; iy < fieldNY; iy++ {
			y0, y1 := fieldY0+float64(iy)/fieldRes, fieldY0+float64(iy+1)/fieldRes
			for ix := 0; ix < fieldNX; ix++ {
				c := uint16(iy*fieldNX + ix)
				l := field.lists[c]
				if l.n == 0 {
					continue
				}
				x0, x1 := fieldX0+float64(ix)/fieldRes, fieldX0+float64(ix+1)/fieldRes
				probes := []geom.Point{geom.Pt((x0+x1)/2, (y0+y1)/2)}
				for _, x := range [][2]float64{{x0, x1}, {x1, x0}} {
					for _, y := range [][2]float64{{y0, y1}, {y1, y0}} {
						// One ulp into the cell and one out of it.
						probes = append(probes,
							geom.Pt(math.Nextafter(x[0], x[1]), math.Nextafter(y[0], y[1])),
							geom.Pt(math.Nextafter(x[0], 2*x[0]-x[1]), math.Nextafter(y[0], 2*y[0]-y[1])))
					}
				}
				for _, q := range probes {
					if got, want := least2(q, l.seg[:l.n]), least2(q, all); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("cell %d lists %v: at %v their least is %v, every segment's %v (%v)", c, l.seg[:l.n], q, got, want, segs)
					}
					if got, want := field.dist(oracle, q, c), oracle.Dist(q); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("cell %d at %v: %v through the list, %v by the walk", c, q, got, want)
					}
				}
			}
		}
	})
}

// fuzzShape decodes one chain of 2 to 16 vertices from data at *at: a
// header byte (its low bit closes the chain, the rest counts vertices),
// then an int16 pair per vertex in units of 2⁻¹⁰. It reports false once
// data runs out.
func fuzzShape(data []byte, at *int) (geom.Poly, bool) {
	if *at >= len(data) {
		return geom.Poly{}, false
	}
	h := data[*at]
	n := 2 + int(h>>1)%15
	*at++
	if *at+4*n > len(data) {
		return geom.Poly{}, false
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		x := int16(binary.LittleEndian.Uint16(data[*at:]))
		y := int16(binary.LittleEndian.Uint16(data[*at+2:]))
		pts[i] = geom.Pt(float64(x)/1024, float64(y)/1024)
		*at += 4
	}
	return geom.Poly{Pts: pts, Closed: h&1 == 1 && n >= 3}, true
}

// bruteHavg is the symmetric vertex-averaged measure by brute force: every
// vertex of each chain against every edge of the other.
func bruteHavg(a, b geom.Poly) float64 {
	dir := func(from, to geom.Poly) float64 {
		var sum float64
		for _, p := range from.Pts {
			d := math.Inf(1)
			for _, s := range to.Edges() {
				d = min(d, s.DistToPoint(p))
			}
			sum += d
		}
		return sum / float64(len(from.Pts))
	}
	return (dir(a, b) + dir(b, a)) / 2
}

// FuzzDistWithin holds the composed evaluator — the field's reject in front
// of the two bounded directed passes — to a brute-force symmetric h_avg on
// two arbitrary shapes: the query, canonically normalized, and one
// α-diameter copy of the other (the copy chosen by data). Unbounded, the
// evaluator agrees with the brute force to rounding. Under every cutoff
// drawn — the copy's own distance, one ulp either side, a fraction and a
// multiple of it from data, 0 — a copy at or below the cutoff comes back
// with the unbounded value's bytes, and whatever comes back has them.
func FuzzDistWithin(f *testing.F) {
	shape := func(closed bool, xy ...int16) []byte {
		h := byte(2 * (len(xy)/2 - 2))
		if closed {
			h |= 1
		}
		out := []byte{h}
		for _, v := range xy {
			out = binary.LittleEndian.AppendUint16(out, uint16(v))
		}
		return out
	}
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	square := shape(true, 0, 0, 1024, 0, 1024, 1024, 0, 1024)
	f.Add(cat([]byte{0, 128}, square, square))
	f.Add(cat([]byte{3, 255}, square, shape(true, 0, 0, 2048, 0, 1024, 900)))
	f.Add(cat([]byte{1, 10}, shape(false, 0, 0, 500, 300, 1000, 0), shape(true, -300, 0, 0, 2000, 300, 0, 0, -50)))
	f.Add(cat([]byte{7, 64}, shape(true, 0, 0, 4096, 0, 2048, 10), shape(false, 0, 0, 3000, 1, 6000, 0, 9000, -2)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		pick, frac := int(data[0]), float64(data[1])/64
		at := 2
		q, ok := fuzzShape(data, &at)
		if !ok {
			return
		}
		s, ok := fuzzShape(data, &at)
		if !ok {
			return
		}
		pq, err := PrepareQuery(q)
		if err != nil {
			return
		}
		copies, err := Normalize(s, DefaultOptions().Alpha)
		if err != nil {
			return
		}
		cp := copies[pick%len(copies)].Poly
		if len(cp.Edges()) == 0 || len(pq.entry.Poly.Edges()) == 0 {
			return
		}
		back := NewBoundaryDist(cp)
		want, _ := unfielded(pq, cp, back, math.Inf(1))
		if brute := bruteHavg(cp, pq.entry.Poly); !(math.Abs(want-brute) <= 1e-9*(1+brute)) {
			t.Fatalf("unbounded evaluator %v, brute force %v", want, brute)
		}
		cells := appendFieldCells(nil, cp.Pts)
		fsum := pq.distField().sum(cells)
		if lb := fieldFloor(fsum, len(cp.Pts)); lb > want {
			t.Fatalf("the field's floor %v exceeds the distance %v", lb, want)
		}
		for _, cut := range []float64{want, math.Nextafter(want, math.Inf(1)), math.Nextafter(want, -1), want * frac, want * (1 + frac), 0} {
			if cut < 0 {
				continue
			}
			got, ok, _ := pq.distWithin(cp, cells, fsum, cut)
			if ok && math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cutoff %v: %v came back, the unbounded evaluator says %v", cut, got, want)
			}
			if want <= cut && !ok {
				t.Fatalf("cutoff %v: the copy at %v was rejected", cut, want)
			}
		}
	})
}

// edgeFuzzLimit bounds the vertex coordinates FuzzEdgeDist builds chains
// from; probes are not bounded.
const edgeFuzzLimit = 1e6

// FuzzEdgeDist holds the back pass's distance — the kernel's minimum over
// a copy's own edges, shapeindex.Edges — to the grid oracle's, bit for bit,
// on arbitrary chains: open or closed (the low bit of the first byte), 2 to
// 24 vertices as float64 pairs within ±edgeFuzzLimit, repeated vertices
// (zero-length edges) and edges too short for 1/|d|² included; probed at
// an arbitrary point — far and non-finite ones included — and at every
// vertex and edge midpoint.
func FuzzEdgeDist(f *testing.F) {
	f.Add(append([]byte{1}, fuzzFloats(0.5, 0.5, 0, 0, 1, 0, 1, 1, 0, 1)...))
	f.Add(append([]byte{0}, fuzzFloats(math.Inf(-1), 2, 0, 0, 3, 0, 3, 0, 3, 4)...))
	f.Add(append([]byte{1}, fuzzFloats(1e300, -1e300, -1e6, 1e6, 1e6, -1e6, 2, 2)...))
	f.Add(append([]byte{0}, fuzzFloats(math.NaN(), 0, 5, 5, 5, 5)...))
	// An edge of length 1e-160, whose 1/|d|² overflows, probed square to
	// it from beyond its grid cell.
	f.Add(append([]byte{0}, fuzzFloats(0, 5, 0, 0, 1e-160, 0, 1, 1)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1+16+32 {
			return
		}
		v := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(data[1+8*i:])) }
		probes := []geom.Point{geom.Pt(v(0), v(1))}
		poly := geom.Poly{Closed: data[0]&1 == 1}
		for i := 2; 1+8*(i+2) <= len(data) && len(poly.Pts) < 24; i += 2 {
			p := geom.Pt(v(i), v(i+1))
			if !(math.Abs(p.X) <= edgeFuzzLimit && math.Abs(p.Y) <= edgeFuzzLimit) {
				return
			}
			poly.Pts = append(poly.Pts, p)
		}
		for i := 0; i < poly.NumEdges(); i++ {
			s := poly.Edge(i)
			probes = append(probes, s.A, s.A.Lerp(s.B, 0.5))
		}
		grid, edges := NewBoundaryDist(poly), shapeindex.AppendEdges(nil, poly)
		for _, p := range probes {
			if got, want := edges.Dist(p), grid.Dist(p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v at %v: the edges say %v (%#x), the grid %v (%#x)",
					poly, p, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	})
}
