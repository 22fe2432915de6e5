package geosir

import (
	"context"
	"math"
	"testing"
)

func square(x, y, side float64) Shape {
	return NewPolygon(Pt(x, y), Pt(x+side, y), Pt(x+side, y+side), Pt(x, y+side))
}

func triangle(x, y, s float64) Shape {
	return NewPolygon(Pt(x, y), Pt(x+s, y), Pt(x, y+2*s))
}

func lshape(x, y, s float64) Shape {
	return NewPolygon(
		Pt(x, y), Pt(x+2*s, y), Pt(x+2*s, y+s), Pt(x+s, y+s),
		Pt(x+s, y+3*s), Pt(x, y+3*s))
}

func buildEngine(t *testing.T) *Engine {
	t.Helper()
	eng := New(DefaultOptions())
	images := [][]Shape{
		{square(0, 0, 20), triangle(5, 5, 3)},
		{square(0, 0, 10), square(8, 8, 6)},
		{triangle(0, 0, 4)},
		{lshape(0, 0, 2)},
		{square(0, 0, 20), lshape(3, 3, 1.5)},
	}
	for id, shapes := range images {
		if err := eng.AddImage(id, shapes); err != nil {
			t.Fatalf("AddImage(%d): %v", id, err)
		}
	}
	if err := eng.Freeze(); err != nil {
		t.Fatal(err)
	}
	return eng
}

// mustSearch runs one Search and fails the test on an error.
func mustSearch(t testing.TB, s Searcher, req SearchRequest) *SearchResponse {
	t.Helper()
	resp, err := s.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestEngineLifecycle(t *testing.T) {
	eng := New(DefaultOptions())
	if _, err := eng.Search(context.Background(), SearchRequest{Query: square(0, 0, 1), K: 1}); err == nil {
		t.Error("unfrozen Search should fail")
	}
	if _, _, err := eng.Query(context.Background(), "similar(q)", nil); err == nil {
		t.Error("unfrozen Query should fail")
	}
	eng = buildEngine(t)
	if err := eng.Freeze(); err != nil {
		t.Errorf("double freeze: %v", err)
	}
	if eng.NumImages() != 5 || eng.NumShapes() != 8 {
		t.Errorf("counts: %d images %d shapes", eng.NumImages(), eng.NumShapes())
	}
	if eng.NumEntries() < eng.NumShapes() {
		t.Error("entries should outnumber shapes (multiple copies)")
	}
	if eng.HashTable().Len() != eng.NumShapes() {
		t.Errorf("hash table has %d of %d shapes", eng.HashTable().Len(), eng.NumShapes())
	}
}

func TestSearchAutoExact(t *testing.T) {
	eng := buildEngine(t)
	// A rotated, scaled L-shape must hit the L-shape images.
	q := lshape(0, 0, 3).Transform(Similarity(1.8, 0.7, Pt(50, 50)))
	resp := mustSearch(t, eng, SearchRequest{Query: q, K: 2})
	ms, stats := resp.Matches, resp.Stats
	if len(ms) != 2 {
		t.Fatalf("matches = %d", len(ms))
	}
	if ms[0].Distance > 1e-6 {
		t.Errorf("best distance = %v", ms[0].Distance)
	}
	gotImages := map[int]bool{ms[0].ImageID: true, ms[1].ImageID: true}
	if !gotImages[3] || !gotImages[4] {
		t.Errorf("expected images 3 and 4, got %v", gotImages)
	}
	if stats.UsedHashing {
		t.Error("the hash table answered an auto request")
	}
	if ms[0].Approximate {
		t.Error("exact result flagged approximate")
	}
}

// TestSearchApproximateStar: a query far from every stored shape, a
// 12-armed star, in ModeApproximate is answered by geometric hashing, and
// every match it returns is flagged Approximate.
func TestSearchApproximateStar(t *testing.T) {
	eng := buildEngine(t)
	var pts []Point
	for i := 0; i < 24; i++ {
		r := 1.0
		if i%2 == 1 {
			r = 0.35
		}
		a := 2 * math.Pi * float64(i) / 24
		pts = append(pts, Pt(r*math.Cos(a), r*math.Sin(a)))
	}
	star := NewPolygon(pts...)
	resp := mustSearch(t, eng, SearchRequest{Query: star, K: 3, Mode: ModeApproximate})
	ms, stats := resp.Matches, resp.Stats
	if !stats.UsedHashing {
		t.Errorf("ModeApproximate did not report hashing: %+v", stats)
	}
	if len(ms) == 0 {
		t.Fatal("hashing returned nothing")
	}
	for _, m := range ms {
		if !m.Approximate {
			t.Error("hashing results must be flagged approximate")
		}
	}
}

func TestSearchApproximateDirect(t *testing.T) {
	eng := buildEngine(t)
	ms := mustSearch(t, eng, SearchRequest{Query: square(0, 0, 3), K: 4, Mode: ModeApproximate}).Matches
	if len(ms) == 0 {
		t.Fatal("no approximate matches")
	}
	// The best hash match for a square must be a square (distance ~0).
	if ms[0].Distance > 0.01 {
		t.Errorf("best approximate distance = %v", ms[0].Distance)
	}
	for i := 1; i < len(ms); i++ {
		if ms[i-1].Distance > ms[i].Distance {
			t.Error("approximate matches unsorted")
		}
	}
	if _, err := eng.Search(context.Background(), SearchRequest{Query: square(0, 0, 1), K: 0, Mode: ModeApproximate}); err == nil {
		t.Error("k=0 should fail")
	}
}

func TestEngineQuery(t *testing.T) {
	eng := buildEngine(t)
	binds := map[string]Shape{
		"sq":  square(0, 0, 5),
		"tri": triangle(0, 0, 5),
		"ell": lshape(0, 0, 2),
	}
	// Images with a square containing a triangle: image 0.
	ids, plan, err := eng.Query(context.Background(), "contain(sq, tri, any)", binds)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != 0 {
		t.Errorf("contain = %v, want [0]", ids)
	}
	if plan == "" {
		t.Error("empty plan")
	}
	// The paper's example form: similar(Q1) ∩ COMPLEMENT(overlap(Q2,Q3,any)).
	ids, _, err = eng.Query(context.Background(), "similar(ell) AND NOT overlap(sq, sq, any)", binds)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 3 || ids[1] != 4 {
		t.Errorf("composite = %v, want [3 4]", ids)
	}
	// Error paths.
	if _, _, err := eng.Query(context.Background(), "similar(unbound)", binds); err == nil {
		t.Error("unbound name should fail")
	}
	if _, _, err := eng.Query(context.Background(), "][", binds); err == nil {
		t.Error("garbage should fail")
	}
}

func TestAddImageValidation(t *testing.T) {
	eng := New(DefaultOptions())
	bow := NewPolygon(Pt(0, 0), Pt(2, 2), Pt(2, 0), Pt(0, 2))
	if err := eng.AddImage(0, []Shape{bow}); err == nil {
		t.Error("self-intersecting shape should be rejected")
	}
}

func TestSearchSketch(t *testing.T) {
	eng := buildEngine(t)
	ctx := context.Background()
	// A two-shape sketch: square + triangle. Only image 0 has both.
	sketch := []Shape{square(0, 0, 6), triangle(0, 0, 4)}
	ms := mustSearch(t, eng, SearchRequest{Sketch: sketch, K: 3, Mode: ModeSketch}).SketchMatches
	if len(ms) == 0 {
		t.Fatal("no sketch matches")
	}
	if ms[0].ImageID != 0 {
		t.Errorf("best sketch match = image %d, want 0 (has both shapes)", ms[0].ImageID)
	}
	if len(ms[0].PerShape) != 2 {
		t.Errorf("per-shape scores = %v", ms[0].PerShape)
	}
	for i := 1; i < len(ms); i++ {
		if ms[i-1].Score > ms[i].Score {
			t.Error("sketch matches unsorted")
		}
	}
	// Error paths.
	if _, err := eng.Search(ctx, SearchRequest{K: 1, Mode: ModeSketch}); err == nil {
		t.Error("empty sketch should fail")
	}
	if _, err := eng.Search(ctx, SearchRequest{Sketch: sketch, K: 0, Mode: ModeSketch}); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := eng.Search(ctx, SearchRequest{Sketch: []Shape{NewPolyline(Pt(0, 0))}, K: 1, Mode: ModeSketch}); err == nil {
		t.Error("invalid sketch shape should fail")
	}
	unfrozen := New(DefaultOptions())
	if _, err := unfrozen.Search(ctx, SearchRequest{Sketch: sketch, K: 1, Mode: ModeSketch}); err == nil {
		t.Error("unfrozen should fail")
	}
}

func TestSearchSketchSingleShapeAgreesWithAuto(t *testing.T) {
	eng := buildEngine(t)
	q := lshape(0, 0, 2)
	sk := mustSearch(t, eng, SearchRequest{Sketch: []Shape{q}, K: 1, Mode: ModeSketch}).SketchMatches
	fs := mustSearch(t, eng, SearchRequest{Query: q, K: 1}).Matches
	if len(sk) == 0 || len(fs) == 0 {
		t.Fatal("empty results")
	}
	if sk[0].ImageID != fs[0].ImageID {
		t.Errorf("sketch image %d != similar image %d", sk[0].ImageID, fs[0].ImageID)
	}
	if !almostEqF(sk[0].Score, fs[0].Distance, 1e-9) {
		t.Errorf("scores differ: %v vs %v", sk[0].Score, fs[0].Distance)
	}
}

func almostEqF(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}
