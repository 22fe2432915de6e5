package geosir

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/synth"
)

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

// stages runs the two single-shape stages over the view's parts with
// their listings in this order, on width goroutines: the exact stage
// (exactSearch's listing, every live shape floored) and the hashing stage
// (the query's hash bucket, permuted by perm, each shape floored) — every
// floor read as 0 when flat. It returns their matches.
func (o bucketOrder) stages(t *testing.T, v searchView, q Shape, k, width int) (exact, approx []Match) {
	t.Helper()
	ctx := context.Background()
	pq, err := core.PrepareQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	flatten := func(shapes []bucketShape) []bucketShape {
		for i := range shapes {
			if o.flat {
				shapes[i].floor = 0
			}
		}
		return shapes
	}
	exact, _, err = refine(ctx, v.parts, pq, k, width, true, func(i int, dst []bucketShape) ([]bucketShape, Stats, error) {
		shapes, st, err := v.parts[i].floors(ctx, pq, int32(i), dst)
		return flatten(shapes), st, err
	})
	if err != nil {
		t.Fatal(err)
	}
	buckets := hashBuckets(v.parts, pq)
	approx, _, err = refine(ctx, v.parts, pq, k, width, false, func(i int, dst []bucketShape) ([]bucketShape, Stats, error) {
		if o.perm != nil {
			o.perm(buckets[i])
		}
		return flatten(floored(&v.parts[i], buckets[i], pq, int32(i), dst)), Stats{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return exact, approx
}

// deadInBucket counts the tombstoned shapes of frozen parts on the query's
// hash curves.
func deadInBucket(t *testing.T, parts []part, q Shape) (dead int) {
	t.Helper()
	pq, err := core.PrepareQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	quad := parts[0].family.Characteristic(pq.Entry().Poly.Pts)
	for _, p := range parts {
		if p.ann != nil {
			for _, id := range p.lookup(quad, 0) {
				if p.dead[id] {
					dead++
				}
			}
		}
	}
	return dead
}

// assertOrderInvariant holds every visiting order of the query's bucket —
// and, flat, of the exact search's heap — to table order, on one worker and
// on one per part: the answers of the exact and the hashing stage; and the
// engine's own Search to them in the three single-shape modes (ModeExact
// and ModeAuto the exact stage's answer, ModeApproximate the hashing
// stage's).
func assertOrderInvariant(t *testing.T, label string, s Searcher, v searchView, q Shape, k int) {
	t.Helper()
	ctx := context.Background()
	exact, approx := bucketOrders()[0].stages(t, v, q, k, 1)
	for _, o := range bucketOrders() {
		for _, width := range []int{1, len(v.parts)} {
			l := fmt.Sprintf("%s order=%s width=%d", label, o.name, width)
			e, a := o.stages(t, v, q, k, width)
			assertMatchesEqual(t, l+" exact", exact, e)
			assertMatchesEqual(t, l+" hashing", approx, a)
		}
	}
	for mode, want := range map[Mode][]Match{ModeExact: exact, ModeAuto: exact, ModeApproximate: approx} {
		resp, err := s.Search(ctx, SearchRequest{Query: q, K: k, Mode: mode})
		if err != nil {
			t.Fatalf("%s %v: %v", label, mode, err)
		}
		assertMatchesEqual(t, fmt.Sprintf("%s Search %v", label, mode), want, resp.Matches)
	}
}

// copyTies counts the bucket shapes of a frozen part whose distance to the
// query two of their normalized copies realize, to the bit.
func copyTies(t *testing.T, p part, pq *core.PreparedQuery, ids []int) (ties int) {
	t.Helper()
	base := p.base
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

// TestBucketOrderInvariance is the property the refine pass rests on
// (DESIGN.md §4.9, "The exact search is two passes"): the order a bucket is
// listed in — table order, reversed, shuffled — the order the refine pass
// pops its shapes in — by floor, or by part and id with every floor 0 — and
// where it stops change how much is scored, never what comes out. For every
// order the matches of the exact and the hashing stage are the same
// (ContinuousDistance follows from the copy chosen), and so are those of
// ModeExact, ModeAuto and ModeApproximate — on an Engine and on 1, 2, 7 and
// 8 shards, static and live: a bucket shape tombstoned, shapes in the
// delta. A rectangle stored twice ties
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
		ties += copyTies(t, parts[0], pq, hashBuckets(parts, pq)[0])
		for _, k := range ks {
			assertOrderInvariant(t, fmt.Sprintf("engine q%d k=%d", qi, k), single, single.searchView(), q, k)
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
				assertOrderInvariant(t, fmt.Sprintf("shards=%d q%d k=%d", shards, qi, k), se, se.searchView(), q, k)
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
				assertOrderInvariant(t, label, se, se.searchView(), q, k)
			}
		}
	}
}
