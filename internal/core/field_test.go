package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
	"repro/internal/mmap"
	"repro/internal/synth"
)

// fieldValue is the one fixed-point accessor of the tests: cell id's bound
// as a distance (every table value times 2⁻¹⁵ is exact in a float64, and so
// is every sum of fewer than 2³⁸ of them).
func fieldValue(f *distField, id uint16) float64 {
	return float64(f.lb[id]&math.MaxUint32) * fieldUnit
}

// fieldAtPoint reads the field at p the way the search did before the cell
// ids existed — the table index from the point's two float64s, 0 outside the
// box — and fieldLoopPoints is the reject as the search ran it before the
// sum form: a float loop over those reads that stops at the first partial
// sum above the trigger. fieldSumPoints is the full float sum of those
// reads. They are the references the cell-id, integer, one-comparison form
// is held to, bit for bit.
func fieldAtPoint(f *distField, p geom.Point) float64 {
	fx, fy := (p.X-fieldX0)*fieldRes, (p.Y-fieldY0)*fieldRes
	if !(fx >= 0 && fx < fieldNX && fy >= 0 && fy < fieldNY) {
		return 0
	}
	return fieldValue(f, uint16(int(fy)*fieldNX+int(fx)))
}

// fieldStopped is the copy's own half of sumPast under trigger.
func fieldStopped(f *distField, cells []uint16, trigger uint64) uint64 {
	own, _ := f.sumPast(cells, trigger)
	return own
}

func fieldLoopPoints(f *distField, pts []geom.Point, cut float64) bool {
	trigger := 2 * cut * float64(len(pts)) * (1 + fieldGuard)
	var sum float64
	for _, p := range pts {
		if sum += fieldAtPoint(f, p); sum > trigger {
			return true
		}
	}
	return false
}

func fieldSumPoints(f *distField, pts []geom.Point) (sum float64) {
	for _, p := range pts {
		sum += fieldAtPoint(f, p)
	}
	return sum
}

// fieldTestShapes are the query boundaries the distance-field properties
// are checked against: random polygons and open polylines, and the
// degenerate ends of the range — a 2-vertex segment and needle-thin
// slivers, where a cell centre's distance changes fastest.
func fieldTestShapes(rng *rand.Rand) []geom.Poly {
	shapes := []geom.Poly{
		geom.NewPolyline(geom.Pt(0, 0), geom.Pt(1, 0)),
		geom.NewPolygon(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0.5, 1e-4)),
		geom.NewPolyline(geom.Pt(0, 0), geom.Pt(0.5, -1e-6), geom.Pt(1, 0)),
		unitSquare(),
	}
	for i := 0; i < 12; i++ {
		p := synth.Prototype(rng, i, 5+rng.Intn(30), i%3 == 0)
		if qe, err := NormalizeCanonical(p); err == nil {
			shapes = append(shapes, qe.Poly)
		}
	}
	return shapes
}

// TestDistFieldAdmissible is the field's one proof obligation: at every
// point — inside the box, on cell borders and corners, outside the box,
// at non-finite coordinates — its value is a lower bound on the oracle's
// distance, and 0 wherever it has nothing to say.
func TestDistFieldAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	const xMax, yMax = fieldX0 + float64(fieldNX)/fieldRes, fieldY0 + float64(fieldNY)/fieldRes
	for si, shape := range fieldTestShapes(rng) {
		oracle := NewBoundaryDist(shape)
		f := newDistField(oracle)
		if f.lb[fieldOff] != 0 {
			t.Fatalf("shape %d: the slot of points outside the box holds %v", si, f.lb[fieldOff])
		}
		at := func(p geom.Point) float64 { return fieldValue(f, fieldCell(p)) }
		check := func(p geom.Point) {
			t.Helper()
			lb := at(p)
			if ref := fieldAtPoint(f, p); lb != ref {
				t.Fatalf("shape %d: field at %v = %v through cell %d, %v from the point", si, p, lb, fieldCell(p), ref)
			}
			if !(lb >= 0) || math.IsInf(lb, 0) {
				t.Fatalf("shape %d: field at %v = %v", si, p, lb)
			}
			// Within rounding of the box's edge either answer is right; past
			// it the field has nothing to say.
			const edge = 1e-9
			if outside := p.X < fieldX0-edge || p.X > xMax+edge || p.Y < fieldY0-edge || p.Y > yMax+edge; outside && lb != 0 {
				t.Fatalf("shape %d: field at %v outside the box = %v, want 0", si, p, lb)
			}
			if d := oracle.Dist(p); lb > d {
				t.Fatalf("shape %d: field at %v = %v exceeds the distance %v", si, p, lb, d)
			}
		}
		positive := 0
		for i := 0; i < 4000; i++ {
			p := geom.Pt(fieldX0+rng.Float64()*(xMax-fieldX0), fieldY0+rng.Float64()*(yMax-fieldY0))
			if at(p) > 0 {
				positive++
			}
			check(p)
			// The same point snapped onto a cell border, a cell corner, and
			// one ulp to either side of them.
			bx := fieldX0 + math.Round((p.X-fieldX0)*fieldRes)/fieldRes
			by := fieldY0 + math.Round((p.Y-fieldY0)*fieldRes)/fieldRes
			for _, x := range []float64{p.X, bx, math.Nextafter(bx, -1), math.Nextafter(bx, 2)} {
				for _, y := range []float64{p.Y, by, math.Nextafter(by, -2), math.Nextafter(by, 2)} {
					check(geom.Pt(x, y))
				}
			}
			// Outside the box, near and far.
			check(geom.Pt(p.X+xMax-fieldX0, p.Y))
			check(geom.Pt(p.X, p.Y-(yMax-fieldY0)))
			check(geom.Pt(-1e9*p.X-1, 1e300*p.Y))
		}
		if positive < 2000 {
			t.Fatalf("shape %d: only %d/4000 points read a positive bound; the field says nothing", si, positive)
		}
		for _, x := range []float64{0.5, math.Inf(1), math.Inf(-1), math.NaN()} {
			for _, y := range []float64{0.5, math.Inf(1), math.Inf(-1), math.NaN()} {
				if x != 0.5 || y != 0.5 {
					if id := fieldCell(geom.Pt(x, y)); id != fieldOff {
						t.Fatalf("shape %d: (%v,%v) falls in cell %d, want none (%d)", si, x, y, id, fieldOff)
					}
				}
			}
		}
	}
}

// TestFieldBoxHoldsEveryCopy pins the field's box against a resize. It is
// symmetric under the half turn R(x, y) = (1−x, −y), which the pair reads
// rest on (mirrorCell), and it holds every copy at the default α: a copy's
// pinned points are (1−α)·diameter or more apart, so its vertices lie
// within r = 1/(1−α) of both, |y| ≤ √(r² − ¼) and 1 − r ≤ x ≤ r. No stored
// vertex of the 200-image paper base, nor of the 1000-image pool the
// benchmark's ingest workload inserts from, falls outside it.
func TestFieldBoxHoldsEveryCopy(t *testing.T) {
	const xMax, yMax = fieldX0 + float64(fieldNX)/fieldRes, fieldY0 + float64(fieldNY)/fieldRes
	if fieldX0+xMax != 1 || fieldY0+yMax != 0 {
		t.Fatalf("the box [%v, %v] × [%v, %v] is not symmetric about (½, 0)", fieldX0, xMax, fieldY0, yMax)
	}
	r := 1 / (1 - DefaultOptions().Alpha)
	if y := math.Sqrt(r*r - 0.25); !(fieldX0 < 1-r && r < xMax && fieldY0 < -y && y < yMax) {
		t.Fatalf("copies at α = %v reach [%v, %v] × ±%v, outside the box [%v, %v] × [%v, %v]",
			DefaultOptions().Alpha, 1-r, r, y, fieldX0, xMax, fieldY0, yMax)
	}
	for _, spec := range []synth.BaseSpec{
		synth.PaperSpec(0.02, 1),
		{Images: 1000, MeanShapes: 5, MeanVertices: 20, Prototypes: 16, Distortion: 0.015, OpenFraction: 0.25, Seed: 2},
	} {
		vertices := 0
		for _, img := range synth.GenerateBase(spec) {
			for _, s := range img.Shapes {
				es, err := Normalize(s, DefaultOptions().Alpha)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range es {
					for _, p := range e.Poly.Pts {
						if fieldCell(p) == fieldOff {
							t.Fatalf("%d images: image %d's vertex %v is outside the box", spec.Images, img.ID, p)
						}
					}
					vertices += len(e.Poly.Pts)
				}
			}
		}
		t.Logf("%d images: %d stored vertices, all inside the box", spec.Images, vertices)
	}
}

// boundedOverPoints is the bounded directed pass over a's vertices, each
// measured by dist.
func boundedOverPoints(a geom.Poly, dist func(geom.Point) float64, base, cut float64) (float64, bool) {
	return avgMinDistVerticesBoundedAffine(len(a.Pts), func(i int) float64 { return dist(a.Pts[i]) }, base, cut)
}

// unfielded is the bounded evaluator without the field in front: the two
// directed passes distWithin runs once the field lets a copy through, the
// back one through back, a grid oracle over the copy — so that distWithin,
// which reads the copy's own edges, is held to the grid's bits.
func unfielded(pq *PreparedQuery, cp geom.Poly, back *BoundaryDist, cut float64) (float64, bool) {
	dir, ok := boundedOverPoints(cp, pq.oracle.Dist, 0, cut)
	if !ok {
		return 0, false
	}
	bk, ok := boundedOverPoints(pq.entry.Poly, back.Dist, dir, cut)
	if !ok {
		return 0, false
	}
	return (dir + bk) / 2, true
}

// fieldSliverBase is a small base at α = 0.6 holding a sliver: copies
// normalized about pairs as short as 0.4 of the diameter leave the lune,
// and the sliver's far corner lands at x ≈ 2, outside the field's box.
func fieldSliverBase(t *testing.T) *Base {
	t.Helper()
	opts := DefaultOptions()
	opts.Alpha = 0.6
	b := NewBase(opts)
	shapes := []geom.Poly{geom.NewPolygon(geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 1))}
	for _, img := range synth.GenerateBase(synth.BaseSpec{
		Images: 8, MeanShapes: 2, MeanVertices: 9, Prototypes: 4,
		Distortion: 0.02, OpenFraction: 0.3, Seed: 19}) {
		shapes = append(shapes, img.Shapes...)
	}
	for i, s := range shapes {
		if _, err := b.AddShape(i, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Freeze(); err != nil {
		t.Fatal(err)
	}
	return b
}

// checkCellReject holds the reject over b's stored cell ids to the reject
// over the vertices themselves for one query — slot by slot, then the sum,
// and the one comparison's decision against the early-exit loop's at 0.5×,
// 1× and 2× the true k-th best (wants are the entries' exact distances) —
// and returns how many copies were rejected.
func checkCellReject(t *testing.T, b *Base, pq *PreparedQuery, wants []float64) (rejects int) {
	t.Helper()
	f := pq.distField()
	for vid, p := range copyVerts(b) {
		if got, want := fieldValue(f, b.fieldCells[vid]), fieldAtPoint(f, p); got != want {
			t.Fatalf("vertex %d %v: cell %d holds %v, the point reads %v", vid, p, b.fieldCells[vid], got, want)
		}
	}
	const k = 3
	byShape := make([]float64, 0, b.NumShapes())
	for sid := 0; sid < b.NumShapes(); sid++ {
		best := math.Inf(1)
		for _, ei := range b.EntriesOfShape(sid) {
			best = math.Min(best, wants[ei])
		}
		byShape = append(byShape, best)
	}
	sort.Float64s(byShape)
	for _, scale := range []float64{0.5, 1, 2} {
		cut := scale * byShape[k-1]
		for ei := range b.meta {
			cells, pts := b.entryCells(int32(ei)), b.copyPoly(ei, nil).Pts
			sum := f.sum(cells)
			if got, ref := float64(sum)*fieldUnit, fieldSumPoints(f, pts); math.Float64bits(got) != math.Float64bits(ref) {
				t.Fatalf("entry %d: the cells sum to %v, the points to %v", ei, got, ref)
			}
			if trig := fieldTrigger(len(cells), fieldRate(cut)); fieldStopped(f, cells, trig) > trig != fieldRejects(sum, len(cells), cut) || fieldStopped(f, cells, trig) > sum {
				t.Fatalf("entry %d cut %v: the early-stopping sum %d decides otherwise than the full sum %d", ei, cut, fieldStopped(f, cells, trig), sum)
			}
			rej := fieldRejects(sum, len(cells), cut)
			if ref := fieldLoopPoints(f, pts, cut); rej != ref {
				t.Fatalf("entry %d cut %v: the sum rejects = %v, the early-exit loop over the points %v", ei, cut, rej, ref)
			}
			if rej {
				rejects++
			}
		}
	}
	return rejects
}

// TestFieldRejectIsExact pins that the field only ever anticipates the
// exact evaluator: whatever it rejects the two directed passes reject
// too, whatever it lets through comes back with the same bytes, and the
// reject is strict — a copy whose distance is exactly the cutoff (a tie
// at the k-th) survives, as it does one ulp above; one ulp below, the field
// still only follows the exact passes. And the reject reads the table
// through the stored vertices' cell ids exactly as it would through the
// vertices themselves — the same slot per vertex, the slot of "outside the
// box" included, hence the same sum — and comparing the full integer sum
// once, or the sum that stops early past the trigger, decides what the
// float loop that stopped at the first partial sum above the trigger
// decided: at half, once and twice the true k-th best, where a search's
// cutoffs lie.
func TestFieldRejectIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	b := pruneTestBase(t, synth.BaseSpec{
		Images: 25, MeanShapes: 3, MeanVertices: 14, Prototypes: 6,
		Distortion: 0.05, OpenFraction: 0.3, Seed: 107,
	})
	rejected, passed, cellRejects := 0, 0, 0
	for trial := 0; trial < 12; trial++ {
		q := synth.Distort(rng, b.Shape(rng.Intn(b.NumShapes())).Poly, 0.03)
		if q.Validate() != nil {
			continue
		}
		pq, err := PrepareQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		wants := make([]float64, len(b.meta))
		for ei := range b.meta {
			cp, back := b.copyPoly(ei, nil), b.EntryOracle(ei)
			wants[ei], _ = unfielded(pq, cp, back, math.Inf(1))
			// No finite cutoff: no sum, however large, rejects.
			if got, ok, scored := pq.distWithin(cp, b.entryCells(int32(ei)), math.MaxUint64, math.Inf(1)); !ok || !scored || got != wants[ei] {
				t.Fatalf("trial %d entry %d: no cutoff: (%v, %v, %v), want %v", trial, ei, got, ok, scored, wants[ei])
			}
		}
		cellRejects += checkCellReject(t, b, pq, wants)
		for ei, want := range wants {
			cp, back := b.copyPoly(ei, nil), b.EntryOracle(ei)
			cuts := []float64{want, math.Nextafter(want, 2), math.Nextafter(want, -1),
				want * rng.Float64(), want * (1 + rng.Float64()), 0.02 + 0.05*rng.Float64(), 0}
			for ci, cut := range cuts {
				if cut < 0 {
					continue
				}
				got, ok, scored := pq.distWithin(cp, b.entryCells(int32(ei)), pq.distField().sum(b.entryCells(int32(ei))), cut)
				ref, refOK := unfielded(pq, cp, back, cut)
				if ok != refOK || (ok && got != ref) {
					t.Fatalf("trial %d entry %d cut %v: (%v, %v), un-fielded (%v, %v)", trial, ei, cut, got, ok, ref, refOK)
				}
				if !scored {
					rejected++
					if refOK || want <= cut {
						t.Fatalf("trial %d entry %d: the field rejected a copy at distance %v under cutoff %v", trial, ei, want, cut)
					}
				} else {
					passed++
				}
				// Strictness: at the copy's own distance (cuts[0]) and above it
				// the copy comes back, bytes intact.
				if cut >= want && (!ok || got != want) {
					t.Fatalf("trial %d entry %d (cut %d): cutoff %v ≥ distance %v lost the copy: (%v, %v)", trial, ei, ci, cut, want, got, ok)
				}
			}
		}
	}
	// Vertices outside the table's box — a sliver's far corner under a wide α
	// — read the slot that holds 0.
	wide, outside := fieldSliverBase(t), 0
	for _, id := range wide.fieldCells {
		if id == fieldOff {
			outside++
		}
	}
	if outside == 0 {
		t.Fatal("no stored vertex leaves the distance field's box")
	}
	pq, err := PrepareQuery(wide.Shape(0).Poly)
	if err != nil {
		t.Fatal(err)
	}
	wants := make([]float64, len(wide.meta))
	for ei := range wide.meta {
		wants[ei], _ = unfielded(pq, wide.copyPoly(ei, nil), wide.EntryOracle(ei), math.Inf(1))
	}
	checkCellReject(t, wide, pq, wants)
	if rejected < 1000 || passed < 1000 || cellRejects < 1000 {
		t.Fatalf("the field rejected %d and passed %d evaluations, %d rejects around the k-th; the test wants plenty of each",
			rejected, passed, cellRejects)
	}
}

// TestFloorAdmissible is the proof obligation of the best-first bucket pass
// (DESIGN.md §4.9): a shape's floor never exceeds its exact distance — for
// every (query, shape) of a 20-image base under 32 queries, and of the
// sliver base, whose off-table vertices contribute nothing — so a shape the
// pass stops in front of (floor above the cutoff, at half, once and twice
// the true k-th) is one the bounded scorer rejects at that cutoff. The
// floor is read through half-turn pairs, so each half of a pair's read is
// held to its own copy too: the floor of copy 2k's sum and of copy 2k+1's,
// read through copy 2k's cells, is at most that copy's exact distance. A
// shape's floor in a base grown by Append, as a live delta's is, is the
// frozen one's, bit for bit, and an id out of range claims nothing.
func TestFloorAdmissible(t *testing.T) {
	spec := synth.PaperSpec(0.002, 137)
	images := synth.GenerateBase(spec)
	demo := pruneTestBase(t, spec)
	wide := fieldSliverBase(t)
	wideQueries := []geom.Poly{wide.Shape(0).Poly}
	for sid := 1; sid < wide.NumShapes(); sid += 3 {
		wideQueries = append(wideQueries, wide.Shape(sid).Poly)
	}
	positive, stopped := 0, 0
	for _, tc := range []struct {
		name    string
		b       *Base
		queries []geom.Poly
	}{
		{"demo-20", demo, synth.Queries(rand.New(rand.NewSource(139)), images, 32, 0.01)},
		{"sliver", wide, wideQueries},
	} {
		d := newDyn(tc.b.opts)
		for _, s := range tc.b.shapes {
			if _, err := d.insert(s.Image, s.Poly); err != nil {
				t.Fatal(err)
			}
		}
		for qi, q := range tc.queries {
			pq, err := PrepareQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			const k = 3
			floors, dists := make([]float64, tc.b.NumShapes()), make([]float64, tc.b.NumShapes())
			for sid := range floors {
				floors[sid] = tc.b.ShapeFloor(sid, pq)
				if dists[sid], err = tc.b.ShapeDistancePrepared(sid, pq); err != nil {
					t.Fatal(err)
				}
				if !(floors[sid] >= 0) || floors[sid] > dists[sid] {
					t.Fatalf("%s q%d shape %d: floor %v, exact distance %v", tc.name, qi, sid, floors[sid], dists[sid])
				}
				if floors[sid] > 0 {
					positive++
				}
				checkPairFloors(t, tc.b, pq, sid)
				if live := d.b.ShapeFloor(sid, pq); math.Float64bits(live) != math.Float64bits(floors[sid]) {
					t.Fatalf("%s q%d shape %d: live floor %v, frozen %v", tc.name, qi, sid, live, floors[sid])
				}
			}
			sorted := append([]float64(nil), dists...)
			sort.Float64s(sorted)
			for _, scale := range []float64{0.5, 1, 2} {
				cut := scale * sorted[k-1]
				for sid, floor := range floors {
					if floor <= cut {
						continue
					}
					stopped++
					if m, ok, err := tc.b.ShapeDistancePreparedBounded(sid, pq, cut); err != nil || ok || m.EntryID != -1 {
						t.Fatalf("%s q%d shape %d: floor %v above cutoff %v, yet scored (%+v, %v, %v)", tc.name, qi, sid, floor, cut, m, ok, err)
					}
				}
			}
		}
		pq, err := PrepareQuery(tc.queries[0])
		if err != nil {
			t.Fatal(err)
		}
		if got := tc.b.ShapeFloor(tc.b.NumShapes(), pq); got != 0 {
			t.Fatalf("%s: the floor of a shape id out of range is %v, want 0", tc.name, got)
		}
	}
	if positive < 1000 || stopped < 1000 {
		t.Fatalf("%d positive floors, %d shapes past a stop; the test wants plenty of each", positive, stopped)
	}
}

// checkPairFloors holds both halves of each of shape sid's pair reads —
// copy 2k's cells summed for copies 2k and 2k+1 — to the exact distance of
// the copy each floors.
func checkPairFloors(t *testing.T, b *Base, pq *PreparedQuery, sid int) {
	t.Helper()
	s, f := b.scanShape(sid), pq.distField()
	for c := 0; c < len(s.meta); c += 2 {
		own, twin := f.sumPast(s.copyCells(c), math.MaxUint64)
		for i, sum := range []uint64{own, twin} {
			dv, _, _ := pq.distWithin(s.copyPoly(c+i, nil), nil, 0, math.Inf(1))
			if fl := fieldFloor(sum, s.nv); fl > dv {
				t.Fatalf("shape %d copy %d: floor %v read through copy %d's cells, exact distance %v", sid, c+i, fl, c, dv)
			}
		}
	}
}

// TestFieldBuiltOncePerRequest shares one prepared query between 8 parts
// scanned two at a time under one cutoff, the way a sketch request fans
// out: every part sees the same table — one build, raced under -race —
// and each part's nearest k are those of a query of its own. A query that
// is only ever scored unbounded builds none.
func TestFieldBuiltOncePerRequest(t *testing.T) {
	images := synth.GenerateBase(synth.BaseSpec{
		Images: 48, MeanShapes: 3, MeanVertices: 13, Prototypes: 6,
		Distortion: 0.04, OpenFraction: 0.3, Seed: 109,
	})
	const parts = 8
	bases := make([]*Base, parts)
	for i := range bases {
		bases[i] = NewBase(DefaultOptions())
	}
	for _, img := range images {
		for _, s := range img.Shapes {
			if _, err := bases[img.ID%parts].AddShape(img.ID, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, b := range bases {
		if err := b.Freeze(); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(113))
	for trial := 0; trial < 6; trial++ {
		q := synth.Distort(rng, images[rng.Intn(len(images))].Shapes[0], 0.02)
		if q.Validate() != nil {
			continue
		}
		const k = 2
		want := make([][]Match, parts)
		bound := 0.0
		for i, b := range bases {
			ms, st, err := b.Match(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Converged || len(ms) < k {
				t.Fatalf("trial %d: part %d alone: %d matches, converged=%v", trial, i, len(ms), st.Converged)
			}
			want[i] = ms
			bound = math.Max(bound, ms[k-1].DistVertex)
		}
		pq, err := PrepareQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		// Every part holds k shapes within bound, so each must return its own
		// top k at the head of what lies within it.
		got := make([][]Match, parts)
		fields := make([]*distField, parts)
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < parts; i += 2 {
					ms, _, _, err := withinSorted(bases[i], pq, nil, bound)
					if err != nil {
						t.Error(err)
						return
					}
					got[i], fields[i] = ms, pq.field // built, if at all, before the scan returned
				}
			}(w)
		}
		wg.Wait()
		for i := range bases {
			if fields[i] == nil || fields[i] != fields[0] {
				t.Fatalf("trial %d: part %d searched under field %p, part 0 under %p", trial, i, fields[i], fields[0])
			}
			if len(got[i]) < k || !reflect.DeepEqual(got[i][:k], want[i]) {
				t.Fatalf("trial %d part %d: shared query diverges:\ngot:  %+v\nwant: %+v", trial, i, got[i], want[i])
			}
		}

		unbounded, err := PrepareQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		for sid := 0; sid < bases[0].NumShapes(); sid++ {
			if _, err := bases[0].ShapeDistancePrepared(sid, unbounded); err != nil {
				t.Fatal(err)
			}
		}
		if unbounded.field != nil {
			t.Fatalf("trial %d: a query never scored under a cutoff built its field", trial)
		}
	}
}

// TestEntryFirstStopsRangeSearch pins that a serving search issues no
// triangle query, on a 200-image base (the benchmark's size): under a
// cutoff looser than the true k-th best, as a hash seed is, the search is
// one fixed-cutoff scan of every entry — no envelope opened, no vertex
// reported by a range search — the distance field turns all but a few
// percent of the entries away before the exact evaluator, and the nearest
// matches are the scan with no cutoff's and the climb's, byte for byte.
func TestEntryFirstStopsRangeSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 200-image base")
	}
	b := pruneTestBase(t, synth.PaperSpec(0.02, 1))
	rng := rand.New(rand.NewSource(127))
	const k = 5
	tested, candidates := 0, 0
	for trial := 0; trial < 12; trial++ {
		q := synth.Distort(rng, b.Shape(rng.Intn(b.NumShapes())).Poly, 0.01)
		if q.Validate() != nil {
			continue
		}
		pq, err := PrepareQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		var evaluated atomic.Int64
		pq.AttachEvalCounter(&evaluated)
		scanned, _, _, err := withinSorted(b, pq, nil, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		scanned = scanned[:k]
		seed := 1.5 * scanned[k-1].DistVertex
		if seed == 0 {
			continue
		}
		tested++
		evaluated.Store(0)
		got, copies, _, err := withinSorted(b, pq, nil, seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) < k || !reflect.DeepEqual(got[:k], scanned) {
			t.Fatalf("scan under a seed diverges from the scan with no cutoff:\ngot:  %+v\nwant: %+v", got, scanned)
		}
		if want, st, err := b.Match(q, k); err != nil || (st.Converged && !reflect.DeepEqual(got[:k], want)) {
			t.Fatalf("scan under a seed diverges from the climb (%v):\ngot:  %+v\nwant: %+v", err, got, want)
		}
		scored := int(evaluated.Load())
		if copies != b.NumEntries() {
			t.Fatalf("%d of %d entries scanned; want one pass over them all", copies, b.NumEntries())
		}
		if scored > copies || scored < len(got) {
			t.Fatalf("%d candidates of %d scanned entries for %d matches", scored, copies, len(got))
		}
		candidates += scored
	}
	if tested < 6 {
		t.Fatalf("only %d queries ran under a cutoff", tested)
	}
	if share := float64(candidates) / float64(tested*b.NumEntries()); share >= 0.05 {
		t.Errorf("%.1f%% of the entries reached the exact evaluator, want under 5%%", 100*share)
	}
	t.Logf("%d queries: %.2f%% of %d entries evaluated", tested, 100*float64(candidates)/float64(tested*b.NumEntries()), b.NumEntries())
}

// TestCellListsReadTheWalk pins the dir pass's read of a stored vertex
// through its field cell to the walk it replaces, bit for bit: for 8
// queries of the demo-200 base, every vertex of every stored copy, through
// its cell id, is as far from the query's boundary as the oracle's walk
// says — with lists read for some vertices and the walk for others. And a
// query with more segments than an id can name lists no cell at all.
func TestCellListsReadTheWalk(t *testing.T) {
	if testing.Short() {
		t.Skip("walks every stored vertex of the 200-image base 8 times")
	}
	images := synth.GenerateBase(synth.PaperSpec(0.02, 1))
	b := NewBase(DefaultOptions())
	for _, img := range images {
		for _, s := range img.Shapes {
			if _, err := b.AddShape(img.ID, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.Freeze(); err != nil {
		t.Fatal(err)
	}
	listed, verts := 0, copyVerts(b)
	queries := synth.Queries(rand.New(rand.NewSource(5)), images, 8, 0.01)
	for qi, q := range queries {
		pq, err := PrepareQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		f := pq.distField()
		for vid, p := range verts {
			c := b.fieldCells[vid]
			if got, want := f.dist(pq.oracle, p, c), pq.oracle.Dist(p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("query %d vertex %d %v (cell %d, %d listed): %v through the cell, %v by the walk", qi, vid, p, c, f.lists[c].n, got, want)
			}
			if f.lists[c].n > 0 {
				listed++
			}
		}
	}
	if listed == 0 || listed == len(queries)*len(verts) {
		t.Fatalf("%d of %d vertex reads went through a list: both paths must be read", listed, len(queries)*len(verts))
	}
	many, err := PrepareQuery(geom.NewPolygon(queries[0].Resample(300)...))
	if err != nil {
		t.Fatal(err)
	}
	if n := many.oracle.grid.NumSegments(); n <= math.MaxUint8 {
		t.Fatalf("the query has %d segments, no more than an id names", n)
	}
	for c, l := range many.distField().lists {
		if l.n != 0 {
			t.Fatalf("a query of %d segments lists %d of them in cell %d", many.oracle.grid.NumSegments(), l.n, c)
		}
	}
}

// entryMeta is the scalar part of e as a snapshot stores it.
func entryMeta(e Entry) EntryMeta {
	return EntryMeta{ShapeID: int32(e.ShapeID), Copy: int32(e.Copy), DiamI: int32(e.DiamI), DiamJ: int32(e.DiamJ)}
}

// copyVerts is every stored copy's vertices, derived, in entry order: the
// vertex whose cell is fieldCells[vid] is the vid-th.
func copyVerts(b *Base) []geom.Point {
	var verts []geom.Point
	for ei := range b.meta {
		verts = b.appendCopy(verts, ei)
	}
	return verts
}

// reassemble rebuilds b through BaseFromParts, as a snapshot load does,
// over b's meta and the given cell row (b's own, bytes of it mapped from a
// file, or nil: derived, as a file without the row loads).
func reassemble(t *testing.T, b *Base, cells []uint16) *Base {
	t.Helper()
	parts, err := b.FrozenParts()
	if err != nil {
		t.Fatal(err)
	}
	spec := BaseSpec{Opts: b.opts, Shapes: b.shapes, EntryMeta: parts.EntryMeta, Cells: cells}
	if cells == nil {
		spec.Cells, spec.DeriveCells = make([]uint16, b.NumVertices()), true
	}
	re, err := BaseFromParts(spec)
	if err != nil {
		t.Fatal(err)
	}
	return re
}

// mappedCells is cells written to a file, as a snapshot stores them, and
// mapped back read-only for the rest of the test — nil where the platform
// maps or casts no file.
func mappedCells(t *testing.T, cells []uint16) []uint16 {
	t.Helper()
	if !mmap.Supported() || !mmap.CanCast() {
		return nil
	}
	raw := make([]byte, 0, 2*len(cells))
	for _, c := range cells {
		raw = binary.LittleEndian.AppendUint16(raw, c)
	}
	path := filepath.Join(t.TempDir(), "ecel")
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	m, err := mmap.Map(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	mapped, ok := mmap.Cast[uint16](m.Data())
	if !ok {
		t.Fatal("mapped cell bytes do not cast")
	}
	return mapped
}

// TestFieldCellsFollowTheBase pins that a stored vertex's cell id is a
// property of the vertex, whichever way its copy came to be searchable: a
// base frozen from shapes, one reassembled from parts over heap slices,
// over a read-only file mapping and without a cell row (derived), one grown
// shape by shape by Append (a live delta's), and the base a compaction
// freezes from the live shapes all hold fieldCell of every vertex, in
// vertex order — the sliver's vertices outside the box included.
// And on every one of those paths a shape is read as one strided block
// (checkStrided): copy c's cells at c·nv, inside the cells its owner holds
// rather than in a copy of them.
func TestFieldCellsFollowTheBase(t *testing.T) {
	frozen := fieldSliverBase(t)
	want := appendFieldCells(nil, copyVerts(frozen))
	check := func(path string, b *Base) {
		t.Helper()
		if !reflect.DeepEqual(b.fieldCells, want) {
			t.Fatalf("%s: field cells are not fieldCell of the entries' vertices, in order", path)
		}
		for id := range b.shapes {
			checkStrided(t, path, b.scanShape(id), b.fieldCells[b.cellOff[id]:b.cellOff[id+1]], int(b.shapeOff[id]))
		}
	}
	check("Freeze", frozen)
	check("BaseFromParts over heap slices", reassemble(t, frozen, frozen.fieldCells))
	check("BaseFromParts without cells", reassemble(t, frozen, nil))
	if cells := mappedCells(t, frozen.fieldCells); cells != nil {
		check("BaseFromParts over a mapping", reassemble(t, frozen, cells))
	}

	d := newDyn(frozen.opts)
	compacted := NewBase(frozen.opts)
	for _, s := range frozen.shapes {
		id, err := d.insert(s.Image, s.Poly)
		if err != nil {
			t.Fatal(err)
		}
		live := d.b.scanShape(id)
		lo, hi := frozen.cellOff[s.ID], frozen.cellOff[s.ID+1]
		if !reflect.DeepEqual(live.block, want[lo:hi]) {
			t.Fatalf("Append: live shape %d holds cells %v, the frozen base %v", id, live.block, want[lo:hi])
		}
		ls := d.b.Shape(id)
		if _, err := compacted.AddShape(ls.Image, ls.Poly); err != nil {
			t.Fatal(err)
		}
	}
	check("Append", d.b)
	if err := compacted.Freeze(); err != nil {
		t.Fatal(err)
	}
	check("compaction", compacted)
}

// checkStrided holds a shape as the searches read it to the layout they
// stride: its cells are owned — the very cells its owner holds, not a
// second array — copy c's are the c-th run of nv and those of its vertices,
// and copy c is reported as entry first + c.
func checkStrided(t *testing.T, path string, s scanShape, owned []uint16, first int) {
	t.Helper()
	if len(s.block) != len(owned) || len(owned) > 0 && &s.block[0] != &owned[0] {
		t.Fatalf("%s: shape %d reads %d cells apart from the %d its owner holds", path, s.id, len(s.block), len(owned))
	}
	if s.first != first || len(s.block) != s.nv*len(s.meta) {
		t.Fatalf("%s: shape %d has first %d (want %d) and %d cells for %d copies of %d", path, s.id, s.first, first, len(s.block), len(s.meta), s.nv)
	}
	for c := range s.meta {
		pts := s.copyPoly(c, nil).Pts
		if got := s.copyCells(c); !reflect.DeepEqual(got, appendFieldCells(nil, pts)) || &got[0] != &owned[c*s.nv] {
			t.Fatalf("%s: shape %d copy %d reads cells %v, its vertices fall in %v", path, s.id, c, got, appendFieldCells(nil, pts))
		}
	}
}

// BenchmarkFieldReject times the reject in front of the bounded evaluator
// on its common path, the shape the field turns away whole: every shape of
// a 100-image base that no copy of survives under the true 5th-best
// distance of a query goes through scanShape.nearest as the seeded scan
// runs it, cell ids and table as the search holds them. ns/vertex is per
// stored vertex of those shapes' copies, whole reports the share of the
// base's shapes they are.
func BenchmarkFieldReject(b *testing.B) {
	base := NewBase(DefaultOptions())
	for _, img := range synth.GenerateBase(synth.PaperSpec(0.01, 1)) {
		for _, s := range img.Shapes {
			if _, err := base.AddShape(img.ID, s); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := base.Freeze(); err != nil {
		b.Fatal(err)
	}
	q := synth.Distort(rand.New(rand.NewSource(131)), base.Shape(7).Poly, 0.01)
	ms, _, err := base.Match(q, 5)
	if err != nil || len(ms) < 5 {
		b.Fatalf("%d matches, %v", len(ms), err)
	}
	pq, err := PrepareQuery(q)
	if err != nil {
		b.Fatal(err)
	}
	f, cut := pq.distField(), ms[4].DistVertex
	var shapes []scanShape
	vertices := 0
	for sid := 0; sid < base.NumShapes(); sid++ {
		s, n, survives := base.scanShape(sid), 0, false
		for c := range s.meta {
			cells := s.copyCells(c)
			n += len(cells)
			survives = survives || !fieldRejects(f.sum(cells), len(cells), cut)
		}
		if !survives {
			shapes, vertices = append(shapes, s), vertices+n
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range shapes {
			if _, ei, _, _ := shapes[j].nearest(pq, cut, nil); ei >= 0 {
				b.Fatalf("shape %d came back", shapes[j].id)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(vertices), "ns/vertex")
	b.ReportMetric(float64(len(shapes))/float64(base.NumShapes()), "whole")
}

// fieldBuildEvals is how many segment evaluations newDistField makes for
// the oracle o: one per (segment, cell of its band), one per (segment,
// anchor).
func fieldBuildEvals(o *BoundaryDist) int {
	g := o.grid.Parts()
	evals := len(g.Ax) * (fieldNX / fieldAnchor) * (fieldNY / fieldAnchor)
	for s := range g.Ax {
		x0, x1 := bandCells(min(g.Ax[s], g.Ax[s]+g.Dx[s])-fieldX0, max(g.Ax[s], g.Ax[s]+g.Dx[s])-fieldX0, fieldNX)
		y0, y1 := bandCells(min(g.Ay[s], g.Ay[s]+g.Dy[s])-fieldY0, max(g.Ay[s], g.Ay[s]+g.Dy[s])-fieldY0, fieldNY)
		evals += max(x1-x0+1, 0) * max(y1-y0+1, 0)
	}
	return evals
}

// fieldSink keeps BenchmarkDistFieldBuild's builds alive.
var fieldSink *distField

// BenchmarkDistFieldBuild times the build of a query's distance field over
// 64 queries of the 100-image paper base (the ledger's jitter, 0.01): ns/op
// is one build, evals/build the segment evaluations it makes.
func BenchmarkDistFieldBuild(b *testing.B) {
	images := synth.GenerateBase(synth.PaperSpec(0.01, 1))
	var oracles []*BoundaryDist
	evals := 0
	for _, q := range synth.Queries(rand.New(rand.NewSource(2)), images, 64, 0.01) {
		pq, err := PrepareQuery(q)
		if err != nil {
			b.Fatal(err)
		}
		oracles = append(oracles, pq.oracle)
		evals += fieldBuildEvals(pq.oracle)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fieldSink = newDistField(oracles[i%len(oracles)])
	}
	b.ReportMetric(float64(evals)/float64(len(oracles)), "evals/build")
}
