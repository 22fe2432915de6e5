package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/shapeindex"
)

// referenceKth computes the k-th smallest of the per-shape bests by the
// method the heap replaced: rebuild and sort.
func referenceKth(best map[int]float64, k int) float64 {
	ds := make([]float64, 0, len(best))
	for _, d := range best {
		ds = append(ds, d)
	}
	sort.Float64s(ds)
	if len(ds) < k {
		return math.Inf(1)
	}
	return ds[k-1]
}

func TestBoundedTopKAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{1, 2, 3, 7, 50} {
		topk := newBoundedTopK(k)
		best := make(map[int]float64)
		for op := 0; op < 5000; op++ {
			shape := rng.Intn(120)
			var d float64
			if cur, ok := best[shape]; ok {
				// Strict improvement, as in the match loop (including
				// improvements of shapes far outside the current top k).
				d = cur * (0.1 + 0.9*rng.Float64())
				if d >= cur {
					continue
				}
			} else {
				d = rng.Float64()
			}
			best[shape] = d
			topk.Update(shape, d)
			if got, want := topk.Kth(), referenceKth(best, k); got != want {
				t.Fatalf("k=%d after op %d: Kth() = %v, reference = %v", k, op, got, want)
			}
		}
	}
}

func TestBoundedTopKZeroDistances(t *testing.T) {
	// Distance 0 (identical shapes) must not be confused with "absent".
	topk := newBoundedTopK(2)
	topk.Update(4, 0)
	topk.Update(9, 0)
	if got := topk.Kth(); got != 0 {
		t.Fatalf("Kth with two zero distances = %v, want 0", got)
	}
	topk.Update(1, 0.5)
	if got := topk.Kth(); got != 0 {
		t.Fatalf("Kth after worse shape = %v, want 0", got)
	}
}

func TestMatchScratchEpochReuse(t *testing.T) {
	s := newMatchScratch(4, 8)
	s.reset()
	s.addVertex(2, 0.5)
	s.addVertex(2, 0.25)
	s.setCounted(3)
	s.setResolved(0)
	if s.count(2) != 2 || s.sum(2) != 0.75 {
		t.Fatalf("counters: %d / %v", s.count(2), s.sum(2))
	}
	if !s.counted(3) || !s.resolved(0) || s.resolved(1) {
		t.Fatal("scratch state lost within an epoch")
	}
	if len(s.touched) != 1 || s.touched[0] != 2 {
		t.Fatalf("touched = %v", s.touched)
	}

	// A reset must invalidate everything without clearing the arrays.
	s.reset()
	if s.count(2) != 0 || s.sum(2) != 0 || s.counted(3) || s.resolved(0) {
		t.Fatal("stale state visible after reset")
	}
	if len(s.touched) != 0 {
		t.Fatalf("touched not cleared: %v", s.touched)
	}
}

// TestMatchScratchTouchedInOrder pins both ways touchedInOrder has of
// putting the touched list in entry-index order — reading the stamps off
// when most of the base is touched, sorting the list otherwise — and that
// a touch is counted once per query.
func TestMatchScratchTouchedInOrder(t *testing.T) {
	for _, c := range []struct {
		entries int
		touch   []int32
	}{
		{entries: 8, touch: []int32{6, 1, 6, 4, 1}},  // dense: stamps read off
		{entries: 64, touch: []int32{40, 3, 40, 17}}, // sparse: list sorted
		{entries: 16, touch: nil},                    // nothing touched
		{entries: 16, touch: []int32{15, 0}},         // at the 1/8 threshold
	} {
		s := newMatchScratch(c.entries, 1)
		s.reset()
		s.addVertex(2, 1) // an earlier query's state must not show
		s.reset()
		want := map[int32]bool{}
		for _, ei := range c.touch {
			if first := s.touch(ei); first == want[ei] {
				t.Fatalf("touch(%d) = %v on a %v entry", ei, first, want[ei])
			}
			want[ei] = true
		}
		got := s.touchedInOrder()
		if len(got) != len(want) || !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Fatalf("entries %d, touched %v: in order = %v", c.entries, c.touch, got)
		}
		for _, ei := range got {
			if !want[ei] {
				t.Fatalf("entries %d, touched %v: in order = %v", c.entries, c.touch, got)
			}
		}
	}
}

func TestMatchScratchEpochWraparound(t *testing.T) {
	s := newMatchScratch(2, 2)
	s.epoch = math.MaxUint32 - 1
	s.reset() // → MaxUint32
	s.setCounted(0)
	s.setResolved(1)
	s.reset() // wraps: stamps cleared, epoch restarts at 1
	if s.epoch != 1 {
		t.Fatalf("epoch after wraparound = %d", s.epoch)
	}
	if s.counted(0) || s.resolved(1) {
		t.Fatal("stale stamps survived the wraparound")
	}
}

// TestEntryOracleEquivalence pins EntryOracle's contract: the base holds
// no oracle per entry, so EntryOracle builds one over the entry's
// normalized polygon on demand — nil before Freeze — and what the searches
// read instead, the copy's own edges (shapeindex.Edges), gives that
// oracle's bits at every query vertex, hence the same directed pass.
func TestEntryOracleEquivalence(t *testing.T) {
	unfrozen := NewBase(DefaultOptions())
	if _, err := unfrozen.AddShape(0, testShapes()[0]); err != nil {
		t.Fatal(err)
	}
	if o := unfrozen.EntryOracle(0); o != nil {
		t.Fatal("an oracle before Freeze")
	}
	b := buildTestBase(t, DefaultOptions())
	rng := rand.New(rand.NewSource(11))
	queries := make([]geom.Poly, 0, len(testShapes()))
	for _, p := range testShapes() {
		queries = append(queries, distort(p, 0.02, rng))
	}
	for qi, q := range queries {
		qe, err := NormalizeCanonical(q)
		if err != nil {
			t.Fatal(err)
		}
		for ei := 0; ei < b.NumEntries(); ei++ {
			oracle := b.EntryOracle(ei)
			if oracle == nil {
				t.Fatalf("entry %d: nil oracle after Freeze", ei)
			}
			edges := shapeindex.AppendEdges(nil, b.Entry(ei).Poly)
			for _, p := range qe.Poly.Pts {
				if got, want := edges.Dist(p), oracle.Dist(p); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("query %d entry %d at %v: edges %v, oracle %v", qi, ei, p, got, want)
				}
			}
			got, _ := boundedOverPoints(qe.Poly, edges.Dist, 0, math.Inf(1))
			if want := AvgMinDistVertices(qe.Poly, oracle); got != want {
				t.Fatalf("query %d entry %d: edges %v != oracle %v", qi, ei, got, want)
			}
		}
	}
}

// TestShapeDistancePreparedEquivalence asserts the prepared-query path
// returns exactly the distances of a direct evaluation that builds every
// oracle from scratch.
func TestShapeDistancePreparedEquivalence(t *testing.T) {
	b := buildTestBase(t, DefaultOptions())
	rng := rand.New(rand.NewSource(13))
	q := distort(testShapes()[3], 0.02, rng)
	pq, err := PrepareQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	qe, err := NormalizeCanonical(q)
	if err != nil {
		t.Fatal(err)
	}
	qOracle := NewBoundaryDist(qe.Poly)
	for sid := 0; sid < b.NumShapes(); sid++ {
		prepared, err := b.ShapeDistancePrepared(sid, pq)
		if err != nil {
			t.Fatal(err)
		}
		direct := math.Inf(1)
		for _, ei := range b.EntriesOfShape(sid) {
			e := b.Entry(ei)
			d := (AvgMinDistVertices(e.Poly, qOracle) +
				AvgMinDistVertices(qe.Poly, NewBoundaryDist(e.Poly))) / 2
			if d < direct {
				direct = d
			}
		}
		if prepared != direct {
			t.Fatalf("shape %d: prepared %v, direct %v", sid, prepared, direct)
		}
	}
	if _, err := b.ShapeDistancePrepared(-1, pq); err == nil {
		t.Error("negative shape id should fail")
	}
	if _, err := b.ShapeDistancePrepared(b.NumShapes(), pq); err == nil {
		t.Error("out-of-range shape id should fail")
	}
}

// TestEntriesOfShapeIndex asserts the shape→entries index matches the
// entries' own ShapeID tags, pre- and post-freeze.
func TestEntriesOfShapeIndex(t *testing.T) {
	b := NewBase(DefaultOptions())
	for i, p := range testShapes() {
		if _, err := b.AddShape(i, p); err != nil {
			t.Fatal(err)
		}
	}
	check := func(stage string) {
		for sid := 0; sid < b.NumShapes(); sid++ {
			var want []int
			for ei := 0; ei < b.NumEntries(); ei++ {
				if b.Entry(ei).ShapeID == sid {
					want = append(want, ei)
				}
			}
			got := b.EntriesOfShape(sid)
			if len(got) != len(want) {
				t.Fatalf("%s shape %d: index %v, scan %v", stage, sid, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s shape %d: index %v, scan %v", stage, sid, got, want)
				}
			}
		}
		if out := b.EntriesOfShape(-1); out != nil {
			t.Errorf("%s: EntriesOfShape(-1) = %v", stage, out)
		}
		if out := b.EntriesOfShape(b.NumShapes()); out != nil {
			t.Errorf("%s: EntriesOfShape(out of range) = %v", stage, out)
		}
	}
	check("pre-freeze")
	if err := b.Freeze(); err != nil {
		t.Fatal(err)
	}
	check("post-freeze")
}
