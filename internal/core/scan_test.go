package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
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
			for _, s := range img.Shapes {
				if _, err := b.AddShape(img.ID, s); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := b.Freeze(); err != nil {
			t.Fatal(err)
		}
		exhaustive, err := NewScanMatcher(b)
		if err != nil {
			t.Fatal(err)
		}
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
		out[i].DistContinuous, _ = b.Continuous(out[i].EntryID, pq)
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
				if _, err := b.AddShape(img.ID, s); err != nil {
					t.Fatal(err)
				}
				if _, err := d.insert(img.ID, s); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := b.Freeze(); err != nil {
			t.Fatal(err)
		}
		for _, base := range []*Base{b, reassemble(t, b, b.verts), d.b} {
			for id := range base.NumShapes() {
				s, n := base.scanShape(id), len(base.Shape(id).Poly.Pts)
				for c := range s.entries {
					if got := len(s.copyCells(c)); got != n || s.nv != n || len(s.entries[c].Poly.Pts) != n {
						t.Fatalf("α=%g: frozen shape %d of %d vertices: copy %d has %d cells", alpha, id, n, c, got)
					}
				}
			}
		}
	}
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
		d, cost := b.Continuous(out[i].EntryID, pq)
		out[i].DistContinuous, blocks = d, blocks+cost
	}
	return out, copies, blocks
}

// TestNearestLowestCopyOnTies pins the tie rule of scanShape.nearest where
// the visit order no longer implies it: three copies of one polygon tie on
// distance to the bit, and the last of them — its cells read "outside the
// table", a floor of 0 — is the one nearest evaluates first. Whatever the
// cutoff lets through, the entry reported is the lowest.
func TestNearestLowestCopyOnTies(t *testing.T) {
	es, err := Normalize(unitSquare(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	poly := es[0].Poly
	s := scanShape{id: 7, nv: len(poly.Pts), cost: []int32{1, 1, 1}}
	for c := 0; c < 3; c++ {
		s.entries = append(s.entries, Entry{ShapeID: 7, Copy: c, Poly: poly})
		if c < 2 {
			s.block = appendFieldCells(s.block, poly.Pts)
		} else {
			for range poly.Pts {
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
		t.Fatalf("field sums %v and %v: the last copy must have the lowest floor", high, low)
	}
	var order []int
	want, ei, scored, _ := s.nearest(pq, math.Inf(1), func(ei int) { order = append(order, ei) })
	if !reflect.DeepEqual(order, []int{2, 0, 1}) || scored != 3 {
		t.Fatalf("copies visited in the order %v, %d scored; want the lowest floor first, then index order, all three scored", order, scored)
	}
	if ei != 0 || want <= 0 {
		t.Fatalf("three copies tie at %v: entry %d reported, want the lowest", want, ei)
	}
	if got, ei, _, _ := s.nearest(pq, want, nil); got != want || ei != 0 {
		t.Fatalf("cutoff at the distance: (%v, entry %d), want (%v, entry 0)", got, ei, want)
	}
	if got, ei, _, _ := s.nearest(pq, math.Nextafter(want, 0), nil); ei != -1 || !math.IsInf(got, 1) {
		t.Fatalf("cutoff below the distance: (%v, entry %d), want every copy rejected", got, ei)
	}
}
