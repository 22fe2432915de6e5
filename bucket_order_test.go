package geosir

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geohash"
	"repro/internal/geom"
	"repro/internal/sched"
	"repro/internal/synth"
)

// orderedPart is a part whose passes run in an order of the test's
// choosing: the bucket comes permuted by perm and — flat — every floor
// reads 0, a bucket floor and every floor pass 1 of the exact search lists
// alike, which claims nothing, leaves the sorts nothing to reorder and
// never stops a pass. Flat under the identity is the loop as it ran before
// the floors: table (or index) order, every shape scored. afterFloor, when
// set, runs once shape id's floor has been taken — between its floor and
// its score.
type orderedPart struct {
	part
	perm       func(ids []int)
	flat       bool
	afterFloor func(id int)
}

func (p orderedPart) liveBucket(quad geohash.Quadruple, radius int) []int {
	ids := p.part.liveBucket(quad, radius)
	if p.perm != nil {
		p.perm(ids)
	}
	return ids
}

func (p orderedPart) floors(ctx context.Context, pq *core.PreparedQuery, pi int32) ([]bucketShape, Stats, error) {
	shapes, st, err := p.part.floors(ctx, pq, pi)
	for i := range shapes {
		if p.afterFloor != nil {
			p.afterFloor(int(shapes[i].id))
		}
		if p.flat {
			shapes[i].floor = 0
		}
	}
	return shapes, st, err
}

func (p orderedPart) floor(id int, pq *core.PreparedQuery) float64 {
	f := p.part.floor(id, pq)
	if p.afterFloor != nil {
		p.afterFloor(id)
	}
	if p.flat {
		return 0
	}
	return f
}

// bucketOrder is one visiting order of a bucket.
type bucketOrder struct {
	name string
	perm func(ids []int)
	flat bool
}

func bucketOrders() []bucketOrder {
	reverse := func(ids []int) {
		for i, j := 0, len(ids)-1; i < j; i, j = i+1, j-1 {
			ids[i], ids[j] = ids[j], ids[i]
		}
	}
	shuffle := func(seed int64) func([]int) {
		return func(ids []int) {
			rand.New(rand.NewSource(seed)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		}
	}
	return []bucketOrder{
		{"table", nil, true}, // the reference: the loop before the floors
		{"reversed", reverse, true},
		{"shuffled-1", shuffle(1), true},
		{"shuffled-2", shuffle(2), true},
		{"shuffled-3", shuffle(3), true},
		{"floor", nil, false},
		{"floor over reversed", reverse, false}, // equal floors the other way round
	}
}

// in orders a view's parts.
func (o bucketOrder) in(v searchView) searchView {
	parts := make([]part, len(v.parts))
	for i, p := range v.parts {
		parts[i] = orderedPart{part: p, perm: o.perm, flat: o.flat}
	}
	return searchView{parts: parts, tau: v.tau}
}

// deadInBucket counts the tombstoned shapes of frozen parts on the query's
// hash curves.
func deadInBucket(t *testing.T, parts []part, q Shape) (dead int) {
	t.Helper()
	pq, err := core.PrepareQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	quad := parts[0].family().Characteristic(pq.Entry().Poly.Pts)
	for _, p := range parts {
		if fp, ok := p.(*frozenPart); ok {
			for _, id := range fp.e.table.Lookup(quad, 0) {
				if fp.dead[id] {
					dead++
				}
			}
		}
	}
	return dead
}

// assertOrderInvariant holds every visiting order of the query's bucket —
// and, flat, of the exact search's heap — to table order: the answers of
// the three single-shape modes, and the engine's own Search to all of them.
func assertOrderInvariant(t *testing.T, label string, s Searcher, view func() searchView, q Shape, k int) {
	t.Helper()
	ctx := context.Background()
	var pl sched.Planner
	want := map[string][]Match{}
	for _, o := range bucketOrders() {
		ordered := func() searchView { return o.in(view()) }
		l := fmt.Sprintf("%s order=%s", label, o.name)
		for _, mode := range []Mode{ModeExact, ModeAuto, ModeApproximate} {
			for _, exec := range []ExecPolicy{ExecSequential, ExecFanout} {
				for _, ann := range []AnnMode{AnnOff, AnnVerify} {
					req := SearchRequest{Query: q, K: k, Mode: mode, Exec: exec, Ann: ann}
					resp, err := search(ctx, &pl, true, ordered, req)
					if err != nil {
						t.Fatalf("%s %v %v ann=%v: %v", l, mode, exec, ann, err)
					}
					key := mode.String()
					if w, ok := want[key]; !ok {
						want[key] = resp.Matches
					} else {
						assertMatchesEqual(t, fmt.Sprintf("%s %v %v ann=%v", l, mode, exec, ann), w, resp.Matches)
					}
				}
			}
		}
	}
	for _, mode := range []Mode{ModeExact, ModeAuto, ModeApproximate} {
		resp, err := s.Search(ctx, SearchRequest{Query: q, K: k, Mode: mode})
		if err != nil {
			t.Fatalf("%s %v: %v", label, mode, err)
		}
		assertMatchesEqual(t, fmt.Sprintf("%s Search %v", label, mode), want[mode.String()], resp.Matches)
	}
}

// copyTies counts the bucket shapes of a frozen part whose distance to the
// query two of their normalized copies realize, to the bit.
func copyTies(t *testing.T, p *frozenPart, pq *core.PreparedQuery, ids []int) (ties int) {
	t.Helper()
	base := p.e.Base()
	for _, id := range ids {
		best, n := math.Inf(1), 0
		for _, ei := range base.EntriesOfShape(id) {
			cp := base.Entry(ei).Poly
			d := (core.AvgMinDistVertices(cp, pq.Oracle()) +
				core.AvgMinDistVertices(pq.Entry().Poly, core.NewBoundaryDist(cp))) / 2
			switch {
			case d < best:
				best, n = d, 1
			case d == best:
				n++
			}
		}
		if n > 1 {
			ties++
		}
	}
	return ties
}

// TestBucketOrderInvariance is the property the best-first passes rest on
// (DESIGN.md §4.9, "The bucket is scored best-first" and "The exact search
// is two passes"): the order a bucket is visited in — table order,
// reversed, shuffled, by floor — the order the exact search pops its shapes
// in — by floor, or by index with every floor 0 — and where either pass
// stops change how much is scored, never what comes out. For every order
// the matches of ModeExact, ModeAuto and ModeApproximate are the same
// (ContinuousDistance follows from the copy chosen) — on an Engine and on
// 1, 2, 7 and 8 shards, static and live: a bucket shape tombstoned, shapes
// in the delta, one of them deleted between its floor and its score (for
// the exact search, between its two passes). A rectangle stored twice ties
// two shapes on distance; the rhombus and the segment among the queries are
// centrally symmetric, so a stored copy and its reverse — a half turn apart
// — tie on distance within a shape (the test counts those that do to the
// bit).
func TestBucketOrderInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("property soak")
	}
	ctx := context.Background()
	images := synth.GenerateBase(synth.PaperSpec(0.003, 149))
	rect := func(w, h float64) Shape {
		return geom.NewPolygon(geom.Pt(0, 0), geom.Pt(w, 0), geom.Pt(w, h), geom.Pt(0, h))
	}
	images = append(images,
		synth.Image{ID: 9001, Shapes: []Shape{rect(4, 1)}},
		synth.Image{ID: 9002, Shapes: []Shape{rect(4, 1)}},
		synth.Image{ID: 9003, Shapes: []Shape{rect(4, 1.1), rect(3, 1)}})
	rng := rand.New(rand.NewSource(151))
	queries := append(synth.Queries(rng, images[:len(images)-3], 3, 0.01), rect(4, 1.05), rect(4, 1),
		geom.NewPolygon(geom.Pt(0, 0), geom.Pt(2, -1), geom.Pt(4, 0), geom.Pt(2, 1)),
		geom.NewPolyline(geom.Pt(0, 0), geom.Pt(3, 1)))
	ks := []int{1, 5}

	single := buildSingle(t, images)
	ties, twins := 0, 0
	for qi, q := range queries {
		pq, err := core.PrepareQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		parts := single.searchView().parts
		ties += copyTies(t, parts[0].(*frozenPart), pq, hashBuckets(parts, pq)[0])
		for _, k := range ks {
			assertOrderInvariant(t, fmt.Sprintf("engine q%d k=%d", qi, k), single, single.searchView, q, k)
		}
		resp, err := single.Search(ctx, SearchRequest{Query: q, K: 2, Mode: ModeExact})
		if err != nil {
			t.Fatal(err)
		}
		if ms := resp.Matches; len(ms) == 2 && ms[0].Distance == ms[1].Distance {
			twins++
		}
	}
	if ties == 0 || twins == 0 {
		t.Fatalf("%d bucket shapes tie on copy, %d queries tie two shapes; the test wants both", ties, twins)
	}

	for _, shards := range []int{1, 2, 7, 8} {
		se := buildShardedFrom(t, images, shards)
		for qi, q := range queries {
			for _, k := range ks {
				assertOrderInvariant(t, fmt.Sprintf("shards=%d q%d k=%d", shards, qi, k), se, se.searchView, q, k)
			}
		}

		// Live: the nearest stored shape of the first query tombstoned in its
		// frozen part's bucket, a copy of the second query's source and one
		// more rectangle in the delta.
		enableIngest(t, se, t.TempDir(), IngestConfig{})
		near, err := single.Search(ctx, SearchRequest{Query: queries[0], K: 1, Mode: ModeExact})
		if err != nil || len(near.Matches) != 1 {
			t.Fatalf("shards=%d: %v, %v", shards, near, err)
		}
		if err := se.DeleteImage(ctx, near.Matches[0].ImageID); err != nil {
			t.Fatal(err)
		}
		if err := se.InsertImage(ctx, 9004, []Shape{queries[1].Clone(), rect(4, 1)}); err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			for _, k := range ks {
				label := fmt.Sprintf("shards=%d live q%d k=%d", shards, qi, k)
				if dead := deadInBucket(t, se.searchView().parts, q); qi == 0 && dead == 0 {
					t.Fatalf("%s: no tombstoned shape on the query's hash curves", label)
				}
				assertOrderInvariant(t, label, se, se.searchView, q, k)
			}
		}

		// A delta shape deleted between its floor and its score: the pass
		// listed it, took its floor — the lowest there is, it is the query —
		// and finds it gone (the exact search, which sees the delete, runs
		// its passes again). The answer is the one a search gives after the
		// delete, in any order.
		q := queries[2]
		for mi, mode := range []Mode{ModeExact, ModeAuto, ModeApproximate} {
			victim := 9100 + mi
			if err := se.InsertImage(ctx, victim, []Shape{q.Clone()}); err != nil {
				t.Fatal(err)
			}
			deleted := false
			hooked := func() searchView {
				v := se.searchView()
				for i, p := range v.parts {
					if dp, live := p.(*deltaPart); live {
						v.parts[i] = orderedPart{part: p, afterFloor: func(id int) {
							if !deleted && dp.d.ImageOf(id) == victim {
								deleted = true
								if err := se.DeleteImage(ctx, victim); err != nil {
									t.Errorf("shards=%d %v: DeleteImage mid-pass: %v", shards, mode, err)
								}
							}
						}}
					}
				}
				return v
			}
			var pl sched.Planner
			got, err := search(ctx, &pl, true, hooked, SearchRequest{Query: q, K: 1, Mode: mode, Exec: ExecSequential})
			if err != nil {
				t.Fatal(err)
			}
			if !deleted {
				t.Fatalf("shards=%d %v: the pass took no floor of the shape to delete", shards, mode)
			}
			for _, m := range got.Matches {
				if m.ImageID == victim {
					t.Fatalf("shards=%d %v: the deleted shape surfaced: %+v", shards, mode, got.Matches)
				}
			}
			want, err := se.Search(ctx, SearchRequest{Query: q, K: 1, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesEqual(t, fmt.Sprintf("shards=%d %v deleted mid-pass", shards, mode), want.Matches, got.Matches)
			assertOrderInvariant(t, fmt.Sprintf("shards=%d %v after the delete", shards, mode), se, se.searchView, q, 1)
		}
	}
}
