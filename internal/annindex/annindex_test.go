package annindex

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
)

// ngon builds a regular n-gon of radius r centered at (cx, cy), with
// per-vertex jitter drawn from rng.
func ngon(rng *rand.Rand, n int, cx, cy, r, jitter float64) geom.Poly {
	pts := make([]geom.Point, n)
	for i := range pts {
		a := 2 * math.Pi * float64(i) / float64(n)
		rr := r * (1 + jitter*(2*rng.Float64()-1))
		pts[i] = geom.Pt(cx+rr*math.Cos(a), cy+rr*math.Sin(a))
	}
	return geom.NewPolygon(pts...)
}

func TestSignatureDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := DefaultParams()
	poly := ngon(rng, 9, 0.5, 0.1, 0.4, 0.2)
	polys := []geom.Poly{poly}
	a := ComputeSignatures(p, 1, func(i int) geom.Poly { return polys[i] })
	b := ComputeSignatures(p, 1, func(i int) geom.Poly { return polys[i] })
	if len(a) != p.hashCount() {
		t.Fatalf("signature length %d, want %d", len(a), p.hashCount())
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("signature not deterministic at position %d", i)
		}
	}
}

func TestSimilarShapesAgreeMoreThanDissimilar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := DefaultParams()
	base := ngon(rng, 12, 0.5, 0.0, 0.45, 0)
	near := geom.NewPolygon(base.Pts...)
	near.Pts = append([]geom.Point(nil), base.Pts...)
	for i := range near.Pts {
		near.Pts[i].X += 0.004 * (2*rng.Float64() - 1)
		near.Pts[i].Y += 0.004 * (2*rng.Float64() - 1)
	}
	far := ngon(rng, 3, 0.5, 0.0, 0.45, 0)

	polys := []geom.Poly{base, near, far}
	ix := Build(p, []int32{0, 1, 2}, func(i int) geom.Poly { return polys[i] })
	sig := ix.Signature(base)
	nearAgree := ix.agreement(sig, 1)
	farAgree := ix.agreement(sig, 2)
	if nearAgree <= farAgree {
		t.Fatalf("near shape agreement %d not above far shape agreement %d", nearAgree, farAgree)
	}
	cand := ix.Probe(sig, 0)
	if len(cand.Shapes) == 0 {
		t.Fatalf("probe found no candidates for an indexed shape")
	}
	if cand.Shapes[0] != 0 {
		t.Fatalf("probe ranked shape %d first, want the identical shape 0", cand.Shapes[0])
	}
}

func TestProbeFloorScansWhenBucketsMiss(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := DefaultParams()
	polys := make([]geom.Poly, 20)
	for i := range polys {
		polys[i] = ngon(rng, 5+i%5, 0.5, 0.0, 0.3, 0.3)
	}
	shapeOf := make([]int32, len(polys))
	for i := range shapeOf {
		shapeOf[i] = int32(i)
	}
	ix := Build(p, shapeOf, func(i int) geom.Poly { return polys[i] })
	// A signature of an un-indexed frame corner: buckets will likely
	// miss, the floor must still be met by the signature scan.
	probe := ix.Probe(ix.Signature(ngon(rng, 32, -0.3, -0.8, 0.05, 0)), 7)
	if len(probe.Shapes) < 7 {
		t.Fatalf("probe returned %d shapes, want the floor of 7", len(probe.Shapes))
	}
	if probe.Probes != p.Bands {
		t.Fatalf("probe count %d, want %d", probe.Probes, p.Bands)
	}
}

func TestProbeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := DefaultParams()
	polys := make([]geom.Poly, 50)
	for i := range polys {
		polys[i] = ngon(rng, 6+i%7, 0.5, 0.0, 0.4, 0.2)
	}
	halves := make([]int32, len(polys))
	for i := range halves {
		halves[i] = int32(i / 2)
	}
	ix := Build(p, halves, func(i int) geom.Poly { return polys[i] })
	ix2 := FromSignatures(p, append([]uint64(nil), ix.Signatures()...), append([]int32(nil), halves...))
	sig := ix.Signature(polys[17])
	a := ix.Probe(sig, 10)
	b := ix2.Probe(sig, 10)
	if len(a.Shapes) != len(b.Shapes) {
		t.Fatalf("rebuilt index probe differs: %d vs %d shapes", len(a.Shapes), len(b.Shapes))
	}
	for i := range a.Shapes {
		if a.Shapes[i] != b.Shapes[i] {
			t.Fatalf("rebuilt index probe differs at %d: %d vs %d", i, a.Shapes[i], b.Shapes[i])
		}
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] || a.Scores[i] != b.Scores[i] {
			t.Fatalf("rebuilt index entries differ at %d", i)
		}
	}
}

// referenceProbe is Probe worked out without the bucket maps: an entry is
// in the union iff some band of its stored signature keys equal to the
// query's; every entry is scored by a plain loop and ranked by a stable
// sort (score descending, id ascending); the union is kept, or, when it
// covers fewer than minShapes shapes, the full ranking is cut at minShapes
// distinct shapes. It also reports whether the floor was unmet, so that
// the whole index was ranked.
func referenceProbe(ix *Index, sig []uint64, minShapes int) (Candidates, bool) {
	if ix.n == 0 {
		return Candidates{}, false // an empty index probes nothing
	}
	p, h := ix.p, ix.p.hashCount()
	type scored struct{ id, score int32 }
	all := make([]scored, ix.n)
	var union []scored
	unionShapes := map[int32]bool{}
	allShapes := map[int32]bool{}
	for i := range all {
		es := ix.sigs[i*h : (i+1)*h]
		var c int32
		for j := range es {
			if es[j] == sig[j] {
				c++
			}
		}
		all[i] = scored{int32(i), c}
		allShapes[ix.shapeOf[i]] = true
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].score > all[b].score })
	for _, e := range all {
		es := ix.sigs[int(e.id)*h : (int(e.id)+1)*h]
		for b := 0; b < p.Bands; b++ {
			if p.bandKey(es, b) == p.bandKey(sig, b) {
				union = append(union, e)
				unionShapes[ix.shapeOf[e.id]] = true
				break
			}
		}
	}
	floor := min(minShapes, len(allShapes))
	kept, scanned := union, len(unionShapes) < floor
	if scanned {
		hit := map[int32]bool{}
		cut := 0
		for cut < len(all) && len(hit) < floor {
			hit[ix.shapeOf[all[cut].id]] = true
			cut++
		}
		kept = all[:cut]
	}
	out := Candidates{Probes: p.Bands}
	seen := map[int32]bool{}
	for _, e := range kept {
		out.Entries = append(out.Entries, e.id)
		out.Scores = append(out.Scores, e.score)
		if s := ix.shapeOf[e.id]; !seen[s] {
			seen[s] = true
			out.Shapes = append(out.Shapes, int(s))
		}
	}
	return out, scanned
}

// TestProbeMatchesReferenceRanking pins Probe — dense union marks and a
// counting sort — to referenceProbe on random indexes of 0–500 entries with
// 1–16 copies per shape, for stored and off-frame queries, at floors below,
// at and above the shape count, through both the bucket path and the
// scan path.
func TestProbeMatchesReferenceRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := DefaultParams()
	var bucketPaths, scanPaths int
	for it := 0; it < 40; it++ {
		n := rng.Intn(501)
		copies := 1 + rng.Intn(16)
		polys := make([]geom.Poly, n)
		shapeOf := make([]int32, n)
		verts := 0
		for i := range polys {
			if i%copies == 0 {
				verts = 4 + rng.Intn(9)
			}
			polys[i] = ngon(rng, verts, 0.5, 0, 0.25+0.2*rng.Float64(), 0.1)
			shapeOf[i] = int32(i / copies)
		}
		ix := Build(p, shapeOf, func(i int) geom.Poly { return polys[i] })
		nShapes := (n + copies - 1) / copies
		for q := 0; q < 6; q++ {
			var qp geom.Poly
			if n > 0 && q%2 == 0 {
				qp = polys[rng.Intn(n)]
			} else {
				qp = ngon(rng, 32, -0.3, -0.8, 0.05, 0)
			}
			sig := ix.Signature(qp)
			for _, m := range []int{0, 1, 64, nShapes, nShapes + 5} {
				got := ix.Probe(sig, m)
				want, scanned := referenceProbe(ix, sig, m)
				if scanned {
					scanPaths++
				} else if n > 0 {
					bucketPaths++
				}
				label := func(what string) string {
					return fmt.Sprintf("index %d (n=%d, %d copies) query %d minShapes %d: %s", it, n, copies, q, m, what)
				}
				if got.Probes != want.Probes {
					t.Fatalf("%s", label(fmt.Sprintf("Probes %d, reference %d", got.Probes, want.Probes)))
				}
				if !slices.Equal(got.Entries, want.Entries) || !slices.Equal(got.Scores, want.Scores) {
					t.Fatalf("%s", label(fmt.Sprintf("entries %v scores %v, reference %v %v", got.Entries, got.Scores, want.Entries, want.Scores)))
				}
				if !slices.Equal(got.Shapes, want.Shapes) {
					t.Fatalf("%s", label(fmt.Sprintf("shapes %v, reference %v", got.Shapes, want.Shapes)))
				}
			}
		}
	}
	if bucketPaths == 0 || scanPaths == 0 {
		t.Fatalf("paths exercised: bucket %d, scan %d; want both", bucketPaths, scanPaths)
	}
}
