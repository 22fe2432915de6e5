package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/synth"
)

// TestScanEquivalence is the admissibility property of the bounded scan
// every serving search of a frozen base is (DESIGN.md §4.9, "The seeded
// search is a scan"): over seeded bases — with a shape stored twice, so
// its query ties the pair at the k-th slot for k = 1 — the scan under any
// admissible bound returns the exhaustive ScanMatcher's matches over the
// live shapes, byte for byte, EntryID and DistContinuous included. The bounds are the true k-th best itself (ties
// at the cutoff must survive) and 1.5× and 3× it, consumed only and
// published into; a part capped below k keeps the head of the list; a
// sibling's bound below the part's own k-th keeps exactly what lies within
// it; and shapes handed over already scored (MatchOpts.Scored) are neither
// scanned again nor told apart in the answer.
func TestScanEquivalence(t *testing.T) {
	ctx := context.Background()
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
						deadCopies += len(b.shapeEntries[id])
					}
				}
				var live []Match
				for _, m := range all {
					if !dead[m.ShapeID] {
						live = append(live, m)
					}
				}
				for _, k := range []int{1, 5} {
					if len(live) < k {
						continue
					}
					want := live[:k]
					kth := want[k-1].DistVertex
					if !tombstones && k == 1 && kth == 0 {
						ties++ // the twins, both at 0: the lower id is the answer
					}
					// scan searches under a bound pre-tightened to sv and checks
					// that it was the scan that answered.
					scan := func(label string, sv float64, kk int, o MatchOpts) ([]Match, Stats) {
						t.Helper()
						o.Shared, o.Dead = NewSharedBound(), dead
						o.Shared.Tighten(sv)
						got, st, err := b.MatchPrepared(ctx, pq, kk, o, true)
						if err != nil {
							t.Fatal(err)
						}
						if st.TrianglesQueried != 0 || st.Iterations != 1 || !st.Converged {
							t.Fatalf("seed %d q%d k=%d %s: not the scan: %+v", seed, qi, k, label, st)
						}
						if after := o.Shared.Load(); o.Publish && after != min(sv, kth) {
							t.Fatalf("seed %d q%d k=%d %s: published %g, k-th best %g", seed, qi, k, label, after, kth)
						} else if !o.Publish && after != sv {
							t.Fatalf("seed %d q%d k=%d %s: a consuming scan moved the bound to %g", seed, qi, k, label, after)
						}
						return got, st
					}
					equal := func(label string, got, want []Match) {
						t.Helper()
						if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
							t.Fatalf("seed %d q%d k=%d dead=%v %s:\ngot:  %+v\nwant: %+v", seed, qi, k, tombstones, label, got, want)
						}
					}
					for _, factor := range []float64{1, 1.5, 3} {
						sv := kth * factor
						tested++
						for _, publish := range []bool{false, true} {
							got, st := scan("consume/publish", sv, k, MatchOpts{Publish: publish})
							equal("under an admissible bound", got, want)
							if st.VerticesCounted != b.NumEntries()-deadCopies || st.Candidates > st.VerticesCounted || st.Candidates < len(got) {
								t.Fatalf("seed %d q%d k=%d: stats %+v over %d live copies", seed, qi, k, st, b.NumEntries()-deadCopies)
							}
						}
						// A part capped below k consumes the bound of the merged k.
						if k > 2 {
							got, _ := scan("capped", sv, k-2, MatchOpts{})
							equal("capped below k", got, want[:k-2])
						}
						// Every third live shape handed over as the seed pass
						// would have left it: scored under sv, or proven above it.
						scored, scoredCopies := map[int]Match{}, 0
						for id := 1; id < b.NumShapes(); id += 3 {
							if dead[id] {
								continue
							}
							m, _, err := b.ShapeDistancePreparedBounded(id, pq, sv)
							if err != nil {
								t.Fatal(err)
							}
							scored[id] = m
							scoredCopies += len(b.shapeEntries[id])
						}
						got, st := scan("handed over", sv, k, MatchOpts{Scored: scored})
						equal("with a third of the shapes handed over", got, want)
						if st.VerticesCounted != b.NumEntries()-deadCopies-scoredCopies {
							t.Fatalf("seed %d q%d k=%d: %d copies scanned, want %d (handed-over shapes are not scanned again)",
								seed, qi, k, st.VerticesCounted, b.NumEntries()-deadCopies-scoredCopies)
						}
					}
					// A sibling's bound below this part's own k-th best keeps
					// what lies within it, ties at the bound included.
					if k > 1 {
						sv, within := want[1].DistVertex, 0
						for _, m := range want {
							if m.DistVertex <= sv {
								within++
							}
						}
						got, _ := scan("sibling's bound", sv, k, MatchOpts{})
						equal("under a sibling's tighter bound", got, want[:within])
					}
				}
			}
		}
	}
	if tested < 40 || ties == 0 {
		t.Fatalf("%d (query, k, bound) rows ran the scan, %d with a tie at the k-th slot; want at least 40 and 1", tested, ties)
	}
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
	s := scanShape{id: 7, off: []int32{0}}
	for c := 0; c < 3; c++ {
		s.entries = append(s.entries, Entry{ShapeID: 7, Copy: c, Poly: poly})
		if c < 2 {
			s.cells = appendFieldCells(s.cells, poly.Pts)
		} else {
			for range poly.Pts {
				s.cells = append(s.cells, fieldOff)
			}
		}
		s.off = append(s.off, int32(len(s.cells)))
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
