package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
	"repro/internal/synth"
)

// TestScanEquivalence is the admissibility property of the two ways a
// frozen base is searched (DESIGN.md §4.9): over seeded bases — with a
// shape stored twice, so its query ties the pair at the k-th slot for k = 1
// — both return the exhaustive ScanMatcher's matches over the live shapes,
// byte for byte, EntryID and DistContinuous included. The fixed-cutoff scan
// (Within, behind sketches and SimilarShapes) returns exactly the live
// shapes within its cutoff, ties at it included — under the true k-th best
// (ties at the cutoff must survive), 1.5× and 3× it, and the second best, a
// cutoff below the k-th — visiting them in id order, scanning every live
// copy, and sending no more copies to the exact evaluator than the scan
// with no cutoff. The exact search's two passes over the base's own
// primitives (floorOrdered: Floors, then ShapeDistancePreparedBounded in
// floor order, then Continuous) do so too, floor every live copy once, and
// charge the blocks the scan with no cutoff charges: every live copy, plus
// the k re-reads.
func TestScanEquivalence(t *testing.T) {
	tested, ties := 0, 0
	for _, seed := range []int64{61, 62} {
		images := synth.GenerateBase(synth.PaperSpec(0.003, seed))
		twin := images[0].Shapes[0]
		images = append(images, synth.Image{ID: 9001, Shapes: []geom.Poly{twin.Clone()}})
		b := NewBase(DefaultOptions())
		for _, img := range images {
			b = mustAppend(t, b, img.ID, img.Shapes...)
		}
		exhaustive := NewScanMatcher(b)
		rng := rand.New(rand.NewSource(seed))
		queries := append(synth.Queries(rng, images, 5, 0.01), twin, synth.Distort(rng, twin, 0.005))
		for qi, q := range queries {
			pq, err := PrepareQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			var evaluated atomic.Int64
			pq.AttachEvalCounter(&evaluated)
			all, err := exhaustive.Match(q, b.NumShapes())
			if err != nil {
				t.Fatal(err)
			}
			nearest := all[:1]
			for _, tombstones := range []bool{false, true} {
				var dead map[int]bool
				deadCopies := 0
				if tombstones {
					// Every fourth shape and the query's nearest: a dead
					// shape would top the list if it leaked.
					dead = map[int]bool{nearest[0].ShapeID: true}
					for id := 0; id < b.NumShapes(); id += 4 {
						dead[id] = true
					}
					for id := range dead {
						deadCopies += len(b.EntriesOfShape(id))
					}
				}
				var live []Match
				for _, m := range all {
					if !dead[m.ShapeID] {
						live = append(live, m)
					}
				}
				liveCopies := b.NumEntries() - deadCopies
				equal := func(label string, got, want []Match) {
					t.Helper()
					if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
						t.Fatalf("seed %d q%d dead=%v %s:\ngot:  %+v\nwant: %+v", seed, qi, tombstones, label, got, want)
					}
				}
				// scan runs Within under cut and checks it against the
				// exhaustive matches within cut; it returns the blocks the
				// scan charged and the copies it sent to the evaluator.
				scan := func(label string, cut float64) (blocks, scored int) {
					t.Helper()
					evaluated.Store(0)
					got, copies, blocks, err := withinSorted(b, pq, dead, cut)
					if err != nil {
						t.Fatalf("seed %d q%d %s: %v", seed, qi, label, err)
					}
					var want []Match
					for _, m := range live {
						if m.DistVertex <= cut {
							want = append(want, m)
						}
					}
					equal(label, got, want)
					scored = int(evaluated.Load())
					if copies != liveCopies || scored > copies || scored < len(got) {
						t.Fatalf("seed %d q%d %s: %d copies scanned, %d scored for %d matches; %d live copies", seed, qi, label, copies, scored, len(got), liveCopies)
					}
					return blocks, scored
				}
				unboundedBlocks, unboundedScored := scan("no cutoff", math.Inf(1))
				for _, k := range []int{1, 5} {
					if len(live) < k {
						continue
					}
					want := live[:k]
					kth := want[k-1].DistVertex
					if !tombstones && k == 1 && kth == 0 {
						ties++ // the twins, both at 0: the lower id is the answer
					}
					cuts := []float64{kth, 1.5 * kth, 3 * kth}
					if k > 1 {
						cuts = append(cuts, want[1].DistVertex) // below the k-th best
					}
					for _, cut := range cuts {
						tested++
						if _, scored := scan("under a cutoff", cut); scored > unboundedScored {
							t.Fatalf("seed %d q%d k=%d: %d copies scored under %g, %d with no cutoff", seed, qi, k, scored, cut, unboundedScored)
						}
					}
					got, copies, blocks := floorOrdered(t, b, pq, k, dead)
					equal("floor-ordered", got, want)
					rereads := 0
					for _, m := range want {
						rereads += b.blockCost(int32(m.EntryID))
					}
					if copies != liveCopies || blocks != unboundedBlocks+rereads {
						t.Fatalf("seed %d q%d k=%d: floored %d copies charging %d blocks, want %d and the scan's %d plus %d re-read",
							seed, qi, k, copies, blocks, liveCopies, unboundedBlocks, rereads)
					}
				}
			}
		}
	}
	if tested < 40 || ties == 0 {
		t.Fatalf("%d (query, k, cutoff) rows ran the scan, %d with a tie at the k-th slot; want at least 40 and 1", tested, ties)
	}
}

// withinSorted is the fixed-cutoff scan as SimilarShapes reads it, over a
// base with tombstones: Within under cut, sorted by (DistVertex, ShapeID),
// each match's continuous measure filled in. It returns the copies scanned
// and the blocks the scan charged (re-reads not included), and an error if
// Within visited the shapes out of id order.
func withinSorted(b *Base, pq *PreparedQuery, dead map[int]bool, cut float64) (out []Match, copies, blocks int, err error) {
	var order error
	copies, blocks, err = b.Within(context.Background(), pq, dead, cut, func(m Match) {
		if len(out) > 0 && m.ShapeID <= out[len(out)-1].ShapeID && order == nil {
			order = fmt.Errorf("shape %d visited after shape %d", m.ShapeID, out[len(out)-1].ShapeID)
		}
		out = append(out, m)
	})
	if err == nil {
		err = order
	}
	if err != nil {
		return nil, copies, blocks, err
	}
	sortMatches(out)
	for i := range out {
		out[i].DistContinuous, _ = b.Continuous(out[i].EntryID, pq, new([]geom.Point))
	}
	return out, copies, blocks, nil
}

// TestCopiesShareVertexCount pins what scanShape.floor's one division rests
// on: every normalized copy of a shape has the shape's vertex count — in a
// frozen Base, in one reassembled from its parts, and in one grown by
// Append, as a live delta's is — at the default α and at α = 0.6, whose copies leave the lune.
func TestCopiesShareVertexCount(t *testing.T) {
	images := synth.GenerateBase(synth.PaperSpec(0.002, 67))
	sliver := geom.NewPolygon(geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 1))
	for _, alpha := range []float64{DefaultOptions().Alpha, 0.6} {
		opts := DefaultOptions()
		opts.Alpha = alpha
		b, d := NewBase(opts), newDyn(opts)
		for _, img := range images {
			for _, s := range append(img.Shapes, sliver) {
				b = mustAppend(t, b, img.ID, s)
				if _, err := d.insert(img.ID, s); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, base := range []*Base{b, reassemble(t, b, b.fieldCells), d.b} {
			for id := range base.NumShapes() {
				s, n := base.scanShape(id), len(base.Shape(id).Poly.Pts)
				for c := range s.meta {
					if got := len(s.copyCells(c)); got != n || s.nv != n || len(s.copyPoly(c, nil).Pts) != n {
						t.Fatalf("α=%g: frozen shape %d of %d vertices: copy %d has %d cells", alpha, id, n, c, got)
					}
				}
			}
		}
	}
}

// TestCopiesComeInMirroredPairs pins what distField.floor's one read per
// pair rests on: every shape's copies come in half-turn pairs, copy 2k+1
// R(x, y) = (1−x, −y) of copy 2k to 1e-12, vertex by vertex — in a frozen
// paper base, in one grown by Append as a live delta is, and in one
// reassembled from its parts over heap slices and over a file mapping, at
// the default α and at α = 0.6. BaseFromParts refuses parts whose odd copy's
// meta is not its partner's diameter pair swapped, or that drop a shape's
// last copy, with an error naming the shape; and a shape so far from the
// origin for its size that Normalize's rounding breaks a pair is refused
// when it is added, and when parts that name it are reassembled — its
// extent is past pairDriftExtent, so its copies are derived and checked.
func TestCopiesComeInMirroredPairs(t *testing.T) {
	images := synth.GenerateBase(synth.PaperSpec(0.002, 67))
	for _, alpha := range []float64{DefaultOptions().Alpha, 0.6} {
		opts := DefaultOptions()
		opts.Alpha = alpha
		b, d := NewBase(opts), newDyn(opts)
		for _, img := range images {
			for _, s := range img.Shapes {
				b = mustAppend(t, b, img.ID, s)
				if _, err := d.insert(img.ID, s); err != nil {
					t.Fatal(err)
				}
			}
		}
		bases := map[string]*Base{"Freeze": b, "Append": d.b, "BaseFromParts over heap slices": reassemble(t, b, b.fieldCells)}
		if cells := mappedCells(t, b.fieldCells); cells != nil {
			bases["BaseFromParts over a mapping"] = reassemble(t, b, cells)
		}
		for path, base := range bases {
			for id := range base.NumShapes() {
				lo, hi := base.shapeOff[id], base.shapeOff[id+1]
				if (hi-lo)%2 != 0 {
					t.Fatalf("α=%g %s: shape %d has %d copies", alpha, path, id, hi-lo)
				}
				for c := lo; c < hi; c += 2 {
					pts, twin := base.copyPoly(int(c), nil).Pts, base.copyPoly(int(c+1), nil).Pts
					for i, p := range pts {
						if dx, dy := math.Abs(1-p.X-twin[i].X), math.Abs(p.Y+twin[i].Y); !(dx <= 1e-12 && dy <= 1e-12) {
							t.Fatalf("α=%g %s: shape %d copy %d vertex %d is %v, the half turn of copy %d's %v", alpha, path, id, c+1, i, twin[i], c, p)
						}
					}
				}
			}
		}
	}

	b := NewBase(DefaultOptions())
	for i, p := range testShapes() {
		b = mustAppend(t, b, i, p)
	}
	var own []int
	for ei := range b.meta {
		own = append(own, ei)
	}
	a := b.EntryShape(0)
	ea := b.EntriesOfShape(a)
	swapped := specInOrder(b, own)
	swapped.EntryMeta[ea[1]].DiamI, swapped.EntryMeta[ea[1]].DiamJ = swapped.EntryMeta[ea[0]].DiamI, swapped.EntryMeta[ea[0]].DiamJ
	dropped := specInOrder(b, append(own[:ea[len(ea)-1]:ea[len(ea)-1]], own[ea[len(ea)-1]+1:]...))
	for name, spec := range map[string]BaseSpec{"odd copy's pair not swapped": swapped, "last copy dropped": dropped} {
		if _, err := BaseFromParts(spec); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("parts shape %d:", a)) {
			t.Fatalf("%s: BaseFromParts returned %v, want an error naming shape %d", name, err, a)
		}
	}

	far := unitSquare().Transform(geom.Transform{S: 1, T: geom.Pt(1e9, 1e9)})
	farCopies, err := Normalize(far, DefaultOptions().Alpha)
	if err != nil {
		t.Fatal(err)
	}
	farSpec := BaseSpec{Opts: DefaultOptions(), Shapes: []Shape{{Poly: far}}}
	for _, e := range farCopies {
		farSpec.EntryMeta = append(farSpec.EntryMeta, EntryMeta{Copy: int32(e.Copy), DiamI: int32(e.DiamI), DiamJ: int32(e.DiamJ)})
	}
	if _, err := BaseFromParts(farSpec); err == nil || !strings.Contains(err.Error(), "parts shape 0: copy") {
		t.Fatalf("parts of a unit square 1e9 from the origin, its pairs swapped in meta, reassembled: %v", err)
	}
	if _, err := NewBase(DefaultOptions()).Append(0, []geom.Poly{far}); err == nil || !strings.Contains(err.Error(), "half-turn pairs") {
		t.Fatalf("a unit square 1e9 from the origin was added: %v", err)
	}
	if _, err := b.Append(0, []geom.Poly{far}); err == nil {
		t.Fatal("a unit square 1e9 from the origin was appended")
	}
}

// TestPairDriftBelowExtentCut pins the bound BaseFromParts' pair check
// rests on: below pairDriftExtent a check of the meta alone is exact,
// because a copy derived about its partner's diameter pair swapped lies
// within mirrorTol/10 of the partner's half turn, vertex by vertex. Every
// shape of a paper base is centred and moved out along each diagonal until
// its extent is pairDriftExtent times its shortest α-diameter (and a
// hundredth, a tenth of that), at the default α and at α = 0.6, and every
// pair of its copies is held to the bound.
func TestPairDriftBelowExtentCut(t *testing.T) {
	images := synth.GenerateBase(synth.PaperSpec(0.002, 71))
	worst := 0.0
	for _, alpha := range []float64{DefaultOptions().Alpha, 0.6} {
		for _, img := range images {
			for _, s := range img.Shapes {
				es, err := Normalize(s, alpha)
				if err != nil {
					t.Fatal(err)
				}
				minDiam, c := math.Inf(1), geom.Point{}
				for _, e := range es {
					minDiam = min(minDiam, s.Pts[e.DiamJ].Sub(s.Pts[e.DiamI]).Norm())
				}
				for _, p := range s.Pts {
					c = c.Add(p.Scale(1 / float64(len(s.Pts))))
				}
				r := 0.0
				for _, p := range s.Pts {
					r = max(r, math.Abs(p.X-c.X), math.Abs(p.Y-c.Y))
				}
				for _, ratio := range []float64{pairDriftExtent / 100, pairDriftExtent / 10, pairDriftExtent} {
					for _, dir := range []geom.Point{geom.Pt(1, 1), geom.Pt(-1, 1), geom.Pt(-1, -1), geom.Pt(1, -1)} {
						off := ratio*minDiam - r
						moved := s.Transform(geom.Transform{S: 1, T: dir.Scale(off).Sub(c)})
						extent := 0.0
						for _, p := range moved.Pts {
							extent = max(extent, math.Abs(p.X), math.Abs(p.Y))
						}
						if extent > pairDriftExtent*minDiam*(1+1e-9) {
							t.Fatalf("shape moved to extent %v, past %v times its α-diameter %v", extent, pairDriftExtent, minDiam)
						}
						for _, e := range es {
							if e.Copy%2 == 1 {
								continue
							}
							pts, _, err1 := geom.AppendNormalized(nil, moved.Pts, e.DiamI, e.DiamJ)
							twin, _, err2 := geom.AppendNormalized(nil, moved.Pts, e.DiamJ, e.DiamI)
							if err1 != nil || err2 != nil {
								t.Fatal(err1, err2)
							}
							for i, p := range pts {
								worst = max(worst, math.Abs(1-p.X-twin[i].X), math.Abs(p.Y+twin[i].Y))
							}
						}
					}
				}
			}
		}
	}
	if !(worst <= mirrorTol/10) {
		t.Fatalf("pairs drift %v apart at extents up to %v times the α-diameter, past mirrorTol/10 = %v", worst, float64(pairDriftExtent), mirrorTol/10)
	}
	t.Logf("worst pair drift %.3g (mirrorTol/10 = %.3g)", worst, mirrorTol/10)
}

// floorOrdered is the exact search's two passes over one base: Floors
// lists the live shapes with their floors, which are scored with
// ShapeDistancePreparedBounded in ascending floor order under the running
// k-th until a floor lies strictly above it; the k best survivors get their
// continuous measure from Continuous. It returns the copies floored and the
// blocks charged by the floors and the re-reads.
func floorOrdered(t *testing.T, b *Base, pq *PreparedQuery, k int, dead map[int]bool) (out []Match, copies, blocks int) {
	t.Helper()
	type floored struct {
		id    int
		floor float64
	}
	var list []floored
	copies, blocks, err := b.Floors(context.Background(), pq, dead, func(id int, floor float64) {
		list = append(list, floored{id, floor})
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(list, func(i, j int) bool { return list[i].floor < list[j].floor })
	kth := NewDistTopK(k)
	for _, s := range list {
		if s.floor > kth.Kth() {
			break
		}
		m, ok, err := b.ShapeDistancePreparedBounded(s.id, pq, kth.Kth())
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			out = append(out, m)
			kth.Add(m.DistVertex)
		}
	}
	sortMatches(out)
	out = out[:min(k, len(out))]
	for i := range out {
		d, cost := b.Continuous(out[i].EntryID, pq, new([]geom.Point))
		out[i].DistContinuous, blocks = d, blocks+cost
	}
	return out, copies, blocks
}

// TestNearestLowestCopyOnTies pins the tie rule of scanShape.nearest where
// the visit order no longer implies it: two half-turn pairs of one polygon,
// copies 0 and 2 equal and so are 1 and 3, so each tie on distance to the
// bit with the other; the second pair's cells read "outside the table", a
// floor of 0, so copy 2 is the one nearest evaluates first. Whatever the
// cutoff lets through, the entry reported is the lowest realizing the
// distance.
func TestNearestLowestCopyOnTies(t *testing.T) {
	es, err := Normalize(unitSquare(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	s := scanShape{id: 7, shape: unitSquare(), nv: len(es[0].Poly.Pts), cost: 1}
	for c := range 4 {
		e := es[c%2]
		s.meta = append(s.meta, EntryMeta{ShapeID: 7, Copy: int32(c), DiamI: int32(e.DiamI), DiamJ: int32(e.DiamJ)})
		if c < 2 {
			s.block = appendFieldCells(s.block, e.Poly.Pts)
		} else {
			for range e.Poly.Pts {
				s.block = append(s.block, fieldOff)
			}
		}
	}
	pq, err := PrepareQuery(geom.NewPolygon(geom.Pt(0, 0), geom.Pt(3, 0), geom.Pt(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	f := pq.distField()
	if low, high := f.sum(s.copyCells(2)), f.sum(s.copyCells(0)); low != 0 || high == 0 {
		t.Fatalf("field sums %v and %v: the last pair must have the lowest floor", high, low)
	}
	want, wantEi := math.Inf(1), -1
	for c := 0; c < 2; c++ {
		if d, _, _ := pq.distWithin(s.copyPoly(c, nil), nil, 0, math.Inf(1)); d < want {
			want, wantEi = d, c
		}
	}
	var order []int
	got, ei, scored, _ := s.nearest(pq, math.Inf(1), func(ei int) { order = append(order, ei) })
	if !reflect.DeepEqual(order, []int{2, 0, 1, 3}) || scored < 2 {
		t.Fatalf("copies visited in the order %v, %d scored; want the lowest floor first, then index order, both ties scored", order, scored)
	}
	if got != want || ei != wantEi || want <= 0 {
		t.Fatalf("copies tie at %v: (%v, entry %d) reported, want entry %d", want, got, ei, wantEi)
	}
	if got, ei, _, _ := s.nearest(pq, want, nil); got != want || ei != wantEi {
		t.Fatalf("cutoff at the distance: (%v, entry %d), want (%v, entry %d)", got, ei, want, wantEi)
	}
	if got, ei, _, _ := s.nearest(pq, math.Nextafter(want, 0), nil); ei != -1 || !math.IsInf(got, 1) {
		t.Fatalf("cutoff below the distance: (%v, entry %d), want every copy rejected", got, ei)
	}
}

// BenchmarkFloors times pass 1 of the exact search alone: Base.Floors over
// the 200-image paper base, for 64 queries at the ledger's jitter (0.01),
// each query's distance field built before the clock starts. ns/copy is per
// stored copy floored.
func BenchmarkFloors(b *testing.B) {
	images := synth.GenerateBase(synth.PaperSpec(0.02, 1))
	base := NewBase(DefaultOptions())
	for _, img := range images {
		base = mustAppend(b, base, img.ID, img.Shapes...)
	}
	var pqs []*PreparedQuery
	for _, q := range synth.Queries(rand.New(rand.NewSource(2)), images, 64, 0.01) {
		pq, err := PrepareQuery(q)
		if err != nil {
			b.Fatal(err)
		}
		pq.distField()
		pqs = append(pqs, pq)
	}
	ctx, least := context.Background(), math.Inf(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := base.Floors(ctx, pqs[i%len(pqs)], nil, func(_ int, floor float64) { least = min(least, floor) }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(base.NumEntries()), "ns/copy")
}
