package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
	"repro/internal/synth"
)

// The dynamic base — the shapes inserted since the last compaction, what a
// live delta holds (internal/ingest) — is a Base grown by Append, one
// version per insert, behind a set of deleted ids. dynBase is that pair as
// the tests below drive it.
type dynBase struct {
	b    *Base
	dead map[int]bool
}

func newDyn(opts Options) *dynBase { return &dynBase{b: NewBase(opts), dead: map[int]bool{}} }

// insert appends one shape of image and returns its id.
func (d *dynBase) insert(image int, p geom.Poly) (int, error) {
	b, err := d.b.Append(image, []geom.Poly{p})
	if err != nil {
		return 0, err
	}
	d.b = b
	return b.NumShapes() - 1, nil
}

func (d *dynBase) delete(id int) error {
	if id < 0 || id >= d.b.NumShapes() || d.dead[id] {
		return errors.New("no such live shape")
	}
	d.dead[id] = true
	return nil
}

func (d *dynBase) live() int { return d.b.NumShapes() - len(d.dead) }

// liveCopies is the copies of the live shapes.
func (d *dynBase) liveCopies() int {
	n := 0
	for id := range d.b.NumShapes() {
		if !d.dead[id] {
			n += len(d.b.EntriesOfShape(id))
		}
	}
	return n
}

// dynMatch is the k nearest live shapes to q: the fixed-cutoff scan with no
// cutoff, cut to its head.
func dynMatch(t *testing.T, d *dynBase, q geom.Poly, k int) []Match {
	t.Helper()
	pq, err := PrepareQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	ms, _ := dynWithin(t, d, pq, math.Inf(1))
	return ms[:min(k, len(ms))]
}

// dynWithin is the fixed-cutoff scan (Base.Within) over the live shapes
// under cut as SimilarShapes reads a base's: sorted by (DistVertex,
// ShapeID), each match's continuous measure filled in. It returns the
// copies scanned.
func dynWithin(t *testing.T, d *dynBase, pq *PreparedQuery, cut float64) ([]Match, int) {
	t.Helper()
	var out []Match
	copies, _, err := d.b.Within(context.Background(), pq, d.dead, cut, func(m Match) { out = append(out, m) })
	if err != nil {
		t.Fatal(err)
	}
	sortMatches(out)
	for i := range out {
		out[i].DistContinuous, _ = d.b.Continuous(out[i].EntryID, pq, new([]geom.Point))
	}
	return out, copies
}

// exhaustiveDyn is the reference the scan is compared with: every copy of
// every live shape scored in full, both directions, no cutoff anywhere, the
// back direction through a grid oracle built over the copy; the lowest copy
// on ties; the shapes within cut, with their continuous measure.
func exhaustiveDyn(d *dynBase, pq *PreparedQuery, cut float64) []Match {
	var out []Match
	for id := range d.b.NumShapes() {
		if d.dead[id] {
			continue
		}
		best, bestEi := math.Inf(1), -1
		for _, ei := range d.b.EntriesOfShape(id) {
			cp := d.b.Entry(ei).Poly
			dv := (AvgMinDistVertices(cp, pq.oracle) + AvgMinDistVertices(pq.entry.Poly, NewBoundaryDist(cp))) / 2
			if dv < best {
				best, bestEi = dv, ei
			}
		}
		if bestEi >= 0 && best <= cut {
			out = append(out, Match{ShapeID: id, EntryID: bestEi, DistVertex: best})
		}
	}
	sortMatches(out)
	for i := range out {
		cp := d.b.Entry(out[i].EntryID).Poly
		out[i].DistContinuous = (AvgMinDistTo(cp, pq.oracle, 0) +
			AvgMinDistTo(pq.entry.Poly, NewBoundaryDist(cp), 0)) / 2
	}
	return out
}

// TestDynamicInsertMatch pins Append: every inserted shape is found under
// its id, and a version keeps reading as it did while its successors grow
// past it.
func TestDynamicInsertMatch(t *testing.T) {
	d := newDyn(DefaultOptions())
	if d.b.NumShapes() != 0 || d.b.NumEntries() != 0 {
		t.Fatal("fresh base not empty")
	}
	shapes := testShapes()
	ids := make([]int, 0, len(shapes))
	var half *dynBase
	for i, p := range shapes {
		if i == len(shapes)/2 {
			half = &dynBase{b: d.b, dead: map[int]bool{}}
		}
		id, err := d.insert(i, p)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if d.b.NumShapes() != len(shapes) || d.b.NumEntries() < d.b.NumShapes() {
		t.Fatalf("NumShapes = %d, NumEntries = %d", d.b.NumShapes(), d.b.NumEntries())
	}
	for want, q := range shapes {
		ms := dynMatch(t, d, q, 1)
		if len(ms) != 1 || ms[0].ShapeID != ids[want] {
			t.Errorf("query %d matched %v", want, ms)
		}
		if ms[0].DistVertex > 1e-9 {
			t.Errorf("exact copy distance %v", ms[0].DistVertex)
		}
		if got := dynMatch(t, half, q, len(shapes)); len(got) != len(shapes)/2 {
			t.Errorf("query %d: the version of %d shapes matched %d", want, len(shapes)/2, len(got))
		}
	}
	// A later version is the earlier one and then some: same shapes, same
	// copies, same cells, same distances.
	for id := range half.b.NumShapes() {
		if !reflect.DeepEqual(half.b.scanShape(id), d.b.scanShape(id)) {
			t.Fatalf("shape %d reads differently in the later version", id)
		}
	}
}

// TestDynamicDelete pins the dead set: a deleted shape is never scanned,
// every survivor is, under its own id.
func TestDynamicDelete(t *testing.T) {
	d := newDyn(DefaultOptions())
	var ids []int
	for i, p := range testShapes() {
		id, err := d.insert(i, p)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	copies := d.liveCopies()
	if err := d.delete(ids[0]); err != nil {
		t.Fatal(err)
	}
	if d.live() != len(testShapes())-1 || d.liveCopies() >= copies {
		t.Fatalf("after delete: %d live shapes, %d live copies (was %d)", d.live(), d.liveCopies(), copies)
	}
	if ms := dynMatch(t, d, testShapes()[0], 1); len(ms) == 1 && ms[0].ShapeID == ids[0] {
		t.Error("deleted shape still retrieved")
	}
	for i := 1; i < len(ids); i++ {
		if s := d.b.Shape(ids[i]); s.ID != ids[i] || s.Image != i {
			t.Errorf("live shape %d after delete: %+v", ids[i], s)
		}
		if ms := dynMatch(t, d, testShapes()[i], 1); len(ms) != 1 || ms[0].ShapeID != ids[i] {
			t.Errorf("query %d after delete matched %v", i, ms)
		}
	}
	if err := d.delete(ids[len(ids)-1]); err != nil {
		t.Fatal(err)
	}
	if ms := dynMatch(t, d, testShapes()[1], d.live()+1); len(ms) != d.live() {
		t.Errorf("%d matches from %d live shapes", len(ms), d.live())
	}
	for id := range d.b.NumShapes() {
		if !d.dead[id] {
			if err := d.delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	pq, err := PrepareQuery(testShapes()[0])
	if err != nil {
		t.Fatal(err)
	}
	copies, blocks, err := d.b.Floors(context.Background(), pq, d.dead, func(int, float64) { t.Fatal("a dead shape was floored") })
	if err != nil || copies != 0 || blocks != 0 {
		t.Errorf("Floors over an emptied base: %d copies, %d blocks, %v", copies, blocks, err)
	}
}

func TestDynamicMatchAgainstStaticOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dyn := newDyn(DefaultOptions())
	static := NewBase(DefaultOptions())
	for i := 0; i < 12; i++ {
		p := distort(testShapes()[i%len(testShapes())], 0.04, rng)
		if p.Validate() != nil {
			p = testShapes()[i%len(testShapes())]
		}
		if _, err := dyn.insert(i, p); err != nil {
			t.Fatal(err)
		}
		static = mustAppend(t, static, i, p)
	}
	for trial := 0; trial < 4; trial++ {
		q := distort(testShapes()[trial], 0.02, rng)
		if q.Validate() != nil {
			continue
		}
		dm := dynMatch(t, dyn, q, 3)
		sm, _, err := static.Match(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(dm) != len(sm) {
			t.Fatalf("result sizes differ: %d vs %d", len(dm), len(sm))
		}
		for i := range dm {
			if !almostEq(dm[i].DistVertex, sm[i].DistVertex, 1e-9) {
				t.Errorf("trial %d rank %d: %v vs %v", trial, i, dm[i].DistVertex, sm[i].DistVertex)
			}
		}
	}
}

// TestDynamicEmptyAndErrors pins the edges of Append: an empty base scans
// to nothing; an invalid shape fails the whole call and leaves the base as
// it was; an unfrozen base with shapes refuses it.
func TestDynamicEmptyAndErrors(t *testing.T) {
	d := newDyn(DefaultOptions())
	if ms := dynMatch(t, d, testShapes()[0], 3); len(ms) != 0 {
		t.Errorf("empty base returned %v", ms)
	}
	if _, err := d.b.Append(0, []geom.Poly{testShapes()[0], geom.NewPolyline(geom.Pt(0, 0))}); err == nil {
		t.Error("an insert with an invalid shape should fail")
	}
	if d.b.NumShapes() != 0 || d.b.NumEntries() != 0 {
		t.Errorf("a failed Append left %d shapes, %d copies", d.b.NumShapes(), d.b.NumEntries())
	}
	id, err := d.insert(0, testShapes()[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := d.delete(id); err != nil {
		t.Fatal(err)
	}
	if ms := dynMatch(t, d, testShapes()[0], 3); len(ms) != 0 {
		t.Errorf("emptied base returned %v", ms)
	}
}

// TestDynamicWithinCancelled pins that the fixed-cutoff scan honours its
// context: under a context already cancelled, Base.Within visits nothing,
// scans no copy and returns ctx's error.
func TestDynamicWithinCancelled(t *testing.T) {
	d := newDyn(DefaultOptions())
	for i := 0; i < 100; i++ {
		for im, p := range testShapes() {
			if _, err := d.insert(i*10+im, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	pq, err := PrepareQuery(testShapes()[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	visited := 0
	copies, _, err := d.b.Within(ctx, pq, d.dead, math.Inf(1), func(Match) { visited++ })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if visited != 0 || copies != 0 {
		t.Fatalf("cancelled scan still visited %d shapes over %d copies", visited, copies)
	}
}

// TestDynamicShapeDistancePreparedBounded: a base grown one shape at a time
// by Append scores, floors and re-reads bit for bit as a Base frozen over
// the same shapes at once, in no-cutoff mode and under tight admissible
// cutoffs, and charges the same blocks.
func TestDynamicShapeDistancePreparedBounded(t *testing.T) {
	opts := DefaultOptions()
	d := newDyn(opts)
	b := NewBase(opts)
	for i, p := range testShapes() {
		if _, err := d.insert(i, p); err != nil {
			t.Fatal(err)
		}
		b = mustAppend(t, b, i, p)
	}
	if d.b.totalCost != b.totalCost || !reflect.DeepEqual(d.b.fieldCells, b.fieldCells) {
		t.Fatal("the grown base's cells or block costs differ from the frozen one's")
	}
	for _, q := range testShapes() {
		pq, err := PrepareQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		for id := range b.NumShapes() {
			if got, want := d.b.ShapeFloor(id, pq), b.ShapeFloor(id, pq); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("shape %d: grown floor %v, frozen %v", id, got, want)
			}
			for _, cut := range []float64{math.Inf(1), 0.5, 0.01} {
				wantM, wantOK, err := b.ShapeDistancePreparedBounded(id, pq, cut)
				if err != nil {
					t.Fatal(err)
				}
				gotM, gotOK, err := d.b.ShapeDistancePreparedBounded(id, pq, cut)
				if err != nil {
					t.Fatal(err)
				}
				if gotOK != wantOK || gotM != wantM {
					t.Fatalf("shape %d cut %v: grown (%+v,%v) != frozen (%+v,%v)", id, cut, gotM, gotOK, wantM, wantOK)
				}
				if wantOK {
					gd, gc := d.b.Continuous(gotM.EntryID, pq, new([]geom.Point))
					wd, wc := b.Continuous(wantM.EntryID, pq, new([]geom.Point))
					if math.Float64bits(gd) != math.Float64bits(wd) || gc != wc {
						t.Fatalf("shape %d: grown re-read (%v, %d), frozen (%v, %d)", id, gd, gc, wd, wc)
					}
				}
			}
		}
	}
}

// TestDynamicBoundedScanProperty is the admissibility property of the
// fixed-cutoff scan over a dynamic base (DESIGN.md §4.12): over seeded
// bases grown by Append — with a shape stored twice, so every query ties
// the pair, and deletes, so the live shapes are not a prefix — the scan
// returns the exhaustive reference's shapes within its cutoff byte for
// byte, continuous measure included, and scans every live copy. The
// cutoffs run from none down to exactly the k-th best for several k (ties
// at the cutoff must survive); one below every shape must leave an empty
// list, not a wrong one.
func TestDynamicBoundedScanProperty(t *testing.T) {
	for _, seed := range []int64{31, 32} {
		rng := rand.New(rand.NewSource(seed))
		images := synth.GenerateBase(synth.PaperSpec(0.0006, seed))
		d := newDyn(DefaultOptions())
		for _, im := range images {
			b, err := d.b.Append(im.ID, im.Shapes)
			if err != nil {
				t.Fatal(err)
			}
			d.b = b
		}
		n := d.b.NumShapes()
		twin := images[0].Shapes[0]
		if _, err := d.insert(9001, twin.Clone()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n/5; i++ {
			if err := d.delete(1 + rng.Intn(n-1)); err != nil {
				i-- // already deleted: draw again
			}
		}
		queries := append(synth.Queries(rng, images, 5, 0.01), twin, synth.Distort(rng, twin, 0.005))
		for qi, q := range queries {
			pq, err := PrepareQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			var evaluated atomic.Int64
			pq.AttachEvalCounter(&evaluated)
			all := exhaustiveDyn(d, pq, math.Inf(1))
			if len(all) != d.live() {
				t.Fatalf("seed %d q%d: reference holds %d of %d live shapes", seed, qi, len(all), d.live())
			}
			for _, k := range []int{1, 2, 5, d.live()} {
				kth := all[k-1].DistVertex
				for _, cut := range []float64{math.Inf(1), 1.5 * kth, 1.0001 * kth, kth} {
					evaluated.Store(0)
					got, copies := dynWithin(t, d, pq, cut)
					if want := exhaustiveDyn(d, pq, cut); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d q%d k=%d cutoff %g:\ngot:  %+v\nwant: %+v", seed, qi, k, cut, got, want)
					}
					// Candidates are copies past the distance field: never more
					// than the live shapes hold, each returned shape's at least,
					// and with nothing to cut against but the shape's own best
					// so far, every shape's first copy.
					scored := int(evaluated.Load())
					if copies != d.liveCopies() || scored > copies || scored < len(got) || (math.IsInf(cut, 1) && scored < d.live()) {
						t.Fatalf("seed %d q%d k=%d: %d copies scanned, %d scored; the live shapes hold %d copies of %d shapes",
							seed, qi, k, copies, scored, d.liveCopies(), d.live())
					}
				}
			}
			// A cutoff below every live shape: nothing lies within it.
			if nearest := all[0].DistVertex; nearest > 0 {
				if got, _ := dynWithin(t, d, pq, nearest*0.999); len(got) != 0 {
					t.Fatalf("seed %d q%d: under a cutoff below every shape: %+v", seed, qi, got)
				}
			}
		}
	}
}
