package query

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/geom"
)

// Test fixtures: simple geometric configurations with known topology.

func sq(x, y, side float64) geom.Poly {
	return geom.NewPolygon(
		geom.Pt(x, y), geom.Pt(x+side, y), geom.Pt(x+side, y+side), geom.Pt(x, y+side))
}

func tri(x, y, s float64) geom.Poly {
	return geom.NewPolygon(geom.Pt(x, y), geom.Pt(x+s, y), geom.Pt(x, y+2*s))
}

func TestContainsPredicate(t *testing.T) {
	outer := sq(0, 0, 10)
	inner := sq(2, 2, 3)
	if !Contains(outer, inner) {
		t.Error("outer should contain inner")
	}
	if Contains(inner, outer) {
		t.Error("inner cannot contain outer")
	}
	// Partially overlapping squares: neither contains the other.
	half := sq(8, 8, 5)
	if Contains(outer, half) || Contains(half, outer) {
		t.Error("overlapping squares should not contain")
	}
	// Open chains contain nothing.
	open := geom.NewPolyline(geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10))
	if Contains(open, inner) {
		t.Error("open chain cannot contain")
	}
}

func TestOverlapsDisjoint(t *testing.T) {
	a := sq(0, 0, 10)
	b := sq(8, 8, 5)   // crosses a's corner
	c := sq(20, 20, 3) // far away
	d := sq(2, 2, 3)   // inside a
	if !Overlaps(a, b) || !Overlaps(b, a) {
		t.Error("a and b overlap")
	}
	if Overlaps(a, c) {
		t.Error("a and c do not overlap")
	}
	if Overlaps(a, d) {
		t.Error("containment is not overlap")
	}
	if !Disjoint(a, c) {
		t.Error("a and c are disjoint")
	}
	if Disjoint(a, b) || Disjoint(a, d) {
		t.Error("overlap/containment are not disjoint")
	}
}

func TestAngleMatching(t *testing.T) {
	if !AnyAngle().Matches(1.234, 0.01) {
		t.Error("any matches everything")
	}
	if !AngleOf(math.Pi/4).Matches(math.Pi/4+0.05, 0.1) {
		t.Error("within tolerance")
	}
	if AngleOf(math.Pi/4).Matches(math.Pi/4+0.5, 0.1) {
		t.Error("outside tolerance")
	}
	// Wraparound: -π and π are the same direction.
	if !AngleOf(math.Pi).Matches(-math.Pi+0.01, 0.1) {
		t.Error("wraparound should match")
	}
	// θ given in [-2π, 2π] is normalized.
	if !AngleOf(2*math.Pi-0.02).Matches(0, 0.1) {
		t.Error("2π-0.02 ≈ 0")
	}
}

func TestImageGraph(t *testing.T) {
	outer := sq(0, 0, 10)
	inner := sq(2, 2, 3)
	cross := sq(8, 8, 5)
	far := sq(30, 30, 2)
	g := BuildImageGraph(1, []int{10, 11, 12, 13}, []geom.Poly{outer, inner, cross, far})
	if len(g.Shapes) != 4 {
		t.Fatalf("shapes = %d", len(g.Shapes))
	}
	if got := g.Related(10, RelContain); len(got) != 1 || got[0] != 11 {
		t.Errorf("outer contains: %v", got)
	}
	if got := g.RelatedBy(11, RelContain); len(got) != 1 || got[0] != 10 {
		t.Errorf("inner containedBy: %v", got)
	}
	if got := g.Related(10, RelOverlap); len(got) != 1 || got[0] != 12 {
		t.Errorf("outer overlaps: %v", got)
	}
	if got := g.Related(12, RelOverlap); len(got) != 1 || got[0] != 10 {
		t.Errorf("overlap symmetric: %v", got)
	}
	// far is disjoint from everything.
	pairs := g.DisjointPairs()
	wantDisjoint := map[[2]int]bool{
		{10, 13}: true, {11, 13}: true, {12, 13}: true, {11, 12}: true,
	}
	if len(pairs) != len(wantDisjoint) {
		t.Fatalf("disjoint pairs = %v", pairs)
	}
	for _, pr := range pairs {
		if !wantDisjoint[pr] {
			t.Errorf("unexpected disjoint pair %v", pr)
		}
	}
}

func TestSignificantVertices(t *testing.T) {
	// The paper's example (Figure 9): normalized shape with 5 vertices,
	// right angles and 3π/4 angles. Verify V_S ∈ (0, V(Q)] and the
	// specific contributions quoted: vertices V0, V4 contribute
	// 1/2 + √10/10 each.
	q := geom.NewPolygon(
		geom.Pt(0, 0), geom.Pt(3, 1), geom.Pt(2, 2), geom.Pt(1, 2), geom.Pt(0, 1))
	vs := SignificantVertices(q)
	if vs <= 0 || vs > 5 {
		t.Errorf("V_S = %v out of (0, 5]", vs)
	}
	// Property from the paper: adding degenerate vertices (collinear
	// splits) leaves V_S almost unchanged (Figure 9 right).
	q2 := geom.NewPolygon(
		geom.Pt(0, 0), geom.Pt(1.5, 0.5), geom.Pt(3, 1), geom.Pt(2, 2),
		geom.Pt(1.5, 2), geom.Pt(1, 2), geom.Pt(0, 1))
	vs2 := SignificantVertices(q2)
	if math.Abs(vs-vs2) > 0.3 {
		t.Errorf("V_S changed too much with degenerate vertices: %v vs %v", vs, vs2)
	}
	// More structure (a square) beats a degenerate sliver.
	square := sq(0, 0, 1)
	sliver := geom.NewPolygon(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 0.01))
	if SignificantVertices(square) <= SignificantVertices(sliver) {
		t.Errorf("square V_S %v should exceed sliver %v",
			SignificantVertices(square), SignificantVertices(sliver))
	}
}

// TestEstimatorAdapts holds the estimate to a function of (base size,
// query) only: the database's estimator agrees with a fresh one over the
// same number of shapes, and queries through the database leave its
// estimates unchanged.
func TestEstimatorAdapts(t *testing.T) {
	db, binds := buildTestDB(t)
	fresh := NewEstimator(db.Base().NumShapes())
	check := func(when string) {
		t.Helper()
		for name, q := range binds {
			if got, want := db.estimate(prep(t, q)), fresh.Estimate(SignificantVertices(q)); got != want || got <= 0 {
				t.Errorf("%s: estimate of %s = %v, a fresh estimator says %v", when, name, got, want)
			}
		}
	}
	check("before any query")
	for i := 0; i < 10; i++ {
		if _, _, err := db.EvalString(context.Background(), "similar(qtri) OR contain(qsq, qtri, any)", binds); err != nil {
			t.Fatal(err)
		}
	}
	check("after 10 queries")
}

// prep prepares one query shape as Prepare does.
func prep(t *testing.T, q geom.Poly) bound {
	t.Helper()
	p, err := Prepare("similar(q)", Bindings{"q": q})
	if err != nil {
		t.Fatal(err)
	}
	return p.shapes["q"]
}

// buildTestDB constructs a small database with known topology:
//
//	image 0: big square containing a triangle
//	image 1: big square overlapping another square
//	image 2: lone triangle
//	image 3: square and triangle, disjoint
//	image 4: big square containing a small square
func buildTestDB(t *testing.T) (*DB, Bindings) {
	t.Helper()
	db := NewDB(DefaultOptions())
	add := func(id int, shapes ...geom.Poly) {
		t.Helper()
		if err := db.AddImage(id, shapes); err != nil {
			t.Fatalf("AddImage(%d): %v", id, err)
		}
	}
	add(0, sq(0, 0, 20), tri(5, 5, 3))
	add(1, sq(0, 0, 10), sq(8, 8, 6))
	add(2, tri(0, 0, 4))
	add(3, sq(0, 0, 5), tri(20, 20, 3))
	add(4, sq(0, 0, 20), sq(5, 5, 4))
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	binds := Bindings{
		"qsq":  sq(0, 0, 7),  // matches all squares (same shape class)
		"qtri": tri(0, 0, 5), // matches all triangles
	}
	return db, binds
}

func TestSimilarOperator(t *testing.T) {
	db, binds := buildTestDB(t)
	set, err := db.similar(context.Background(), prep(t, binds["qtri"]))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 2, 3}
	got := set.Sorted()
	if len(got) != len(want) {
		t.Fatalf("similar(tri) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("similar(tri) = %v, want %v", got, want)
		}
	}
	// Squares appear in images 0,1,3,4.
	set, err = db.similar(context.Background(), prep(t, binds["qsq"]))
	if err != nil {
		t.Fatal(err)
	}
	if got := set.Sorted(); len(got) != 4 {
		t.Fatalf("similar(sq) = %v", got)
	}
}

func TestTopologicalContain(t *testing.T) {
	db, binds := buildTestDB(t)
	// contain(sq, tri): image 0 only.
	for _, strat := range []TopoStrategy{StrategyDrive, StrategyBoth} {
		set, err := db.topological(context.Background(), RelContain, prep(t, binds["qsq"]), prep(t, binds["qtri"]), AnyAngle(), strat)
		if err != nil {
			t.Fatal(err)
		}
		if got := set.Sorted(); len(got) != 1 || got[0] != 0 {
			t.Errorf("strategy %d: contain(sq,tri) = %v, want [0]", strat, got)
		}
	}
	// contain(sq, sq): image 4 only.
	qsq := prep(t, binds["qsq"])
	strat := db.strategy(qsq, qsq)
	set, err := db.topological(context.Background(), RelContain, qsq, qsq, AnyAngle(), strat)
	if err != nil {
		t.Fatal(err)
	}
	if strat != StrategyDrive && strat != StrategyBoth {
		t.Errorf("no strategy recorded")
	}
	if got := set.Sorted(); len(got) != 1 || got[0] != 4 {
		t.Errorf("contain(sq,sq) = %v, want [4]", got)
	}
}

func TestTopologicalOverlapDisjoint(t *testing.T) {
	db, binds := buildTestDB(t)
	for _, strat := range []TopoStrategy{StrategyDrive, StrategyBoth} {
		set, err := db.topological(context.Background(), RelOverlap, prep(t, binds["qsq"]), prep(t, binds["qsq"]), AnyAngle(), strat)
		if err != nil {
			t.Fatal(err)
		}
		if got := set.Sorted(); len(got) != 1 || got[0] != 1 {
			t.Errorf("strategy %d: overlap(sq,sq) = %v, want [1]", strat, got)
		}
		// disjoint(sq, tri): image 3 (side by side). Image 0 has the
		// triangle inside the square (contain, not disjoint).
		set, err = db.topological(context.Background(), RelDisjoint, prep(t, binds["qsq"]), prep(t, binds["qtri"]), AnyAngle(), strat)
		if err != nil {
			t.Fatal(err)
		}
		if got := set.Sorted(); len(got) != 1 || got[0] != 3 {
			t.Errorf("strategy %d: disjoint(sq,tri) = %v, want [3]", strat, got)
		}
	}
}

func TestParseAndEval(t *testing.T) {
	db, binds := buildTestDB(t)
	// Images with a triangle but no square-containing-triangle: 2 and 3.
	set, plan, err := db.EvalString(context.Background(),
		"similar(qtri) AND NOT contain(qsq, qtri, any)", binds)
	if err != nil {
		t.Fatal(err)
	}
	if got := set.Sorted(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("result = %v, want [2 3]", got)
	}
	if len(plan.Conjuncts) != 1 {
		t.Fatalf("plan = %s", plan)
	}
	if plan.Conjuncts[0].Driver == "" || plan.Conjuncts[0].FilterChecks == 0 {
		t.Errorf("plan missing driver/checks: %s", plan)
	}
}

func TestEvalUnion(t *testing.T) {
	db, binds := buildTestDB(t)
	set, plan, err := db.EvalString(context.Background(), "overlap(qsq, qsq, any) OR contain(qsq, qsq, any)", binds)
	if err != nil {
		t.Fatal(err)
	}
	if got := set.Sorted(); len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("union = %v, want [1 4]", got)
	}
	if len(plan.Conjuncts) != 2 {
		t.Errorf("expected 2 conjuncts, plan = %s", plan)
	}
}

func TestEvalComplementOnly(t *testing.T) {
	db, binds := buildTestDB(t)
	set, _, err := db.EvalString(context.Background(), "NOT similar(qtri)", binds)
	if err != nil {
		t.Fatal(err)
	}
	if got := set.Sorted(); len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("complement = %v, want [1 4]", got)
	}
}

func TestEvalDeMorgan(t *testing.T) {
	db, binds := buildTestDB(t)
	// NOT (A OR B) == NOT A AND NOT B.
	s1, _, err := db.EvalString(context.Background(), "NOT (similar(qtri) OR overlap(qsq,qsq,any))", binds)
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := db.EvalString(context.Background(), "NOT similar(qtri) AND NOT overlap(qsq,qsq,any)", binds)
	if err != nil {
		t.Fatal(err)
	}
	a, b := s1.Sorted(), s2.Sorted()
	if len(a) != len(b) {
		t.Fatalf("De Morgan violated: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("De Morgan violated: %v vs %v", a, b)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"similar()",
		"similar(q",
		"bogus(q)",
		"similar(q) AND",
		"contain(a)",
		"contain(a, b, xyz)",
		"similar(q) extra",
		"(similar(q)",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseAngles(t *testing.T) {
	e, err := Parse("contain(a, b, 0.785)")
	if err != nil {
		t.Fatal(err)
	}
	op := e.(TopoOp)
	if op.Theta.Any || math.Abs(op.Theta.Rad-0.785) > 1e-12 {
		t.Errorf("theta = %+v", op.Theta)
	}
	e, err = Parse("overlap(a, b)")
	if err != nil {
		t.Fatal(err)
	}
	if !e.(TopoOp).Theta.Any {
		t.Error("missing angle should mean any")
	}
}

func TestEvalUnboundName(t *testing.T) {
	db, _ := buildTestDB(t)
	if _, _, err := db.EvalString(context.Background(), "similar(nope)", Bindings{}); err == nil {
		t.Error("unbound name should fail")
	}
}

func TestDNFShape(t *testing.T) {
	e, err := Parse("(similar(a) OR similar(b)) AND similar(c)")
	if err != nil {
		t.Fatal(err)
	}
	dnf := ToDNF(e)
	if len(dnf) != 2 {
		t.Fatalf("DNF terms = %d, want 2", len(dnf))
	}
	for _, c := range dnf {
		if len(c) != 2 {
			t.Errorf("conjunct size = %d, want 2", len(c))
		}
	}
	// Double negation cancels.
	e2, _ := Parse("NOT NOT similar(a)")
	dnf2 := ToDNF(e2)
	if len(dnf2) != 1 || len(dnf2[0]) != 1 || dnf2[0][0].Neg {
		t.Errorf("double negation: %v", dnf2)
	}
}

func TestTopologicalWithAngle(t *testing.T) {
	// Two images: in one the contained square is axis-aligned with its
	// container; in the other it is rotated 45°.
	db := NewDB(DefaultOptions())
	inner := sq(5, 5, 4)
	rot := inner.Transform(geom.Rotation(math.Pi / 4)).Transform(geom.Translation(geom.Pt(12, -4)))
	if err := db.AddImage(0, []geom.Poly{sq(0, 0, 20), inner}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddImage(1, []geom.Poly{sq(0, 0, 20), rot}); err != nil {
		t.Fatal(err)
	}
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	q := prep(t, sq(0, 0, 6))
	// Angle 0: only the aligned image.
	set, err := db.topological(context.Background(), RelContain, q, q, AngleOf(0), db.strategy(q, q))
	if err != nil {
		t.Fatal(err)
	}
	if got := set.Sorted(); len(got) != 1 || got[0] != 0 {
		t.Errorf("aligned contain = %v, want [0]", got)
	}
	// any: both.
	set, err = db.topological(context.Background(), RelContain, q, q, AnyAngle(), db.strategy(q, q))
	if err != nil {
		t.Fatal(err)
	}
	if got := set.Sorted(); len(got) != 2 {
		t.Errorf("any-angle contain = %v, want both", got)
	}
}

func TestDBLifecycleErrors(t *testing.T) {
	db := NewDB(DefaultOptions())
	if _, _, err := db.EvalString(context.Background(), "similar(q)", Bindings{"q": sq(0, 0, 1)}); err == nil {
		t.Error("unfrozen Eval should fail")
	}
	if err := db.AddImage(0, nil); err == nil {
		t.Error("empty image should fail")
	}
	if err := db.AddImage(1, []geom.Poly{sq(0, 0, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddImage(1, []geom.Poly{sq(0, 0, 1)}); err == nil {
		t.Error("duplicate image id should fail")
	}
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	if err := db.AddImage(2, []geom.Poly{sq(0, 0, 1)}); err == nil {
		t.Error("AddImage after Freeze should fail")
	}
}

// TestConcurrentTopologicalEval: evaluation reads the frozen database
// and writes nothing shared, so 16 goroutines evaluating at once (run
// under -race) each get the sequential images and plan.
func TestConcurrentTopologicalEval(t *testing.T) {
	db, binds := buildTestDB(t)
	srcs := []string{
		"similar(qtri) AND NOT contain(qsq, qtri, any)",
		"overlap(qsq, qsq, any) OR disjoint(qsq, qtri, any)",
		"NOT similar(qsq)",
	}
	want := make([]string, len(srcs))
	for i, src := range srcs {
		set, plan, err := db.EvalString(context.Background(), src, binds)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprint(set.Sorted(), plan)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, src := range srcs {
				set, plan, err := db.EvalString(context.Background(), src, binds)
				if err != nil {
					t.Error(err)
					return
				}
				if got := fmt.Sprint(set.Sorted(), plan); got != want[i] {
					t.Errorf("%s: concurrent %s, sequential %s", src, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestEvalMemoizesRepeatedLiterals holds a driver literal repeated across
// DNF conjuncts to the per-query memo: with the memo pre-seeded with a
// sentinel set for similar(qtri), an image id the database does not hold,
// both conjuncts it drives start from the sentinel instead of the index.
func TestEvalMemoizesRepeatedLiterals(t *testing.T) {
	db, binds := buildTestDB(t)
	const sentinel = 99
	memo := map[string]ImageSet{"similar(qtri)": {sentinel: &ImageGraph{Image: sentinel}}}
	q, err := Prepare("similar(qtri) AND (NOT similar(qsq) OR NOT overlap(qsq, qsq, any))", binds)
	if err != nil {
		t.Fatal(err)
	}
	dnf := q.terms
	if len(dnf) != 2 {
		t.Fatalf("DNF terms = %d, want 2", len(dnf))
	}
	for _, c := range dnf {
		// No check holds on an image the database lacks, so each NOT keeps it.
		set, cp, err := db.evalConjunct(context.Background(), q, c, memo)
		if err != nil {
			t.Fatal(err)
		}
		if got := set.Sorted(); cp.Driver != "similar(qtri)" || len(got) != 1 || got[0] != sentinel {
			t.Errorf("%s: driver %s gave %v, want the sentinel [%d]", c, cp.Driver, got, sentinel)
		}
	}
	if len(memo) != 1 {
		t.Errorf("memo holds %d literals, want only the sentinel's", len(memo))
	}
}
