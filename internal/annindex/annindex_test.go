package annindex

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/synth"
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

// refCells is the boundary raster the index signs, worked out the long
// way: every edge sampled at half-cell steps, the cells sorted and
// deduplicated.
func refCells(poly geom.Poly) []uint32 {
	cell := func(x, y float64) uint32 {
		ix := int((x - boxMinX) * float64(gridRes))
		iy := int((y - boxMinY) * float64(gridRes))
		ix, iy = min(max(ix, 0), gridW-1), min(max(iy, 0), gridW-1)
		return uint32(iy*gridW + ix)
	}
	pts := poly.Pts
	n := len(pts)
	if n == 0 {
		return nil
	}
	out := []uint32{cell(pts[0].X, pts[0].Y)}
	step := 0.5 / float64(gridRes)
	edges := n
	if !poly.Closed {
		edges = n - 1
	}
	for i := 0; i < edges; i++ {
		a, b := pts[i], pts[(i+1)%n]
		dx, dy := b.X-a.X, b.Y-a.Y
		k := int(math.Hypot(dx, dy)/step) + 1
		for j := 1; j <= k; j++ {
			t := float64(j) / float64(k)
			out = append(out, cell(a.X+t*dx, a.Y+t*dy))
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// refSignature is the uint64 MinHash signature an index's argmin cells
// stand for: position h holds the least of mix64(mix64(seed^(c+1)) + h·φ)
// over the boundary's cells c, math.MaxUint64 where there are none.
func refSignature(poly geom.Poly) []uint64 {
	sig := make([]uint64, hashCount)
	for h := range sig {
		sig[h] = math.MaxUint64
	}
	for _, c := range refCells(poly) {
		base := mix64(seed ^ (uint64(c) + 1))
		for h := range sig {
			sig[h] = min(sig[h], mix64(base+uint64(h)*golden))
		}
	}
	return sig
}

// refBandKey folds band's rows hashes of a uint64 signature into its
// bucket key.
func refBandKey(sig []uint64, band int) uint64 {
	k := uint64(seed) ^ (uint64(band+1) * golden)
	for r := 0; r < rows; r++ {
		k = mix64(k ^ sig[band*rows+r])
	}
	return k
}

// refAgreement counts the positions where two uint64 signatures agree.
func refAgreement(a, b []uint64) int32 {
	var c int32
	for h := range a {
		if a[h] == b[h] {
			c++
		}
	}
	return c
}

// entrySig is entry ei's stored argmin cells.
func entrySig(ix *Index, ei int) []uint16 { return ix.sigs[ei*hashCount : (ei+1)*hashCount] }

// queryCells is Probe's reading of a query signature.
func queryCells(sig []uint64) *[hashCount]uint16 {
	var q [hashCount]uint16
	for h := range q {
		q[h] = uint16(min(sig[h], noCell))
	}
	return &q
}

// checkAgainstRef asserts that argmin cells stand for the uint64 signature
// ref: the hash of the cell at every position is ref's value there, and
// every band key is ref's.
func checkAgainstRef(t *testing.T, label string, cells []uint16, ref []uint64) {
	t.Helper()
	tab := hashTable()
	for h, c := range cells {
		if got := hashAt(tab, c, h); got != ref[h] {
			t.Fatalf("%s: position %d holds cell %d hashing to %#x, the MinHash is %#x", label, h, c, got, ref[h])
		}
	}
	for b := 0; b < bands; b++ {
		if got, want := bandKey(tab, cells, b), refBandKey(ref, b); got != want {
			t.Fatalf("%s: band %d key %#x, the MinHash's %#x", label, b, got, want)
		}
	}
}

// demoCopies is the demo-200 base (`geosir -demo 200`) as the α-diameter
// copies of its shapes and their shape ids, and 200 distorted base shapes,
// canonically normalized, as queries.
func demoCopies(tb testing.TB) (polys []geom.Poly, shapeOf []int32, queries []geom.Poly) {
	tb.Helper()
	spec := synth.PaperSpec(0.02, 1)
	images := synth.GenerateBase(spec)
	shapes := int32(0)
	for _, im := range images {
		for _, sh := range im.Shapes {
			entries, err := core.Normalize(sh, core.DefaultOptions().Alpha)
			if err != nil {
				continue
			}
			for _, en := range entries {
				polys = append(polys, en.Poly)
				shapeOf = append(shapeOf, shapes)
			}
			shapes++
		}
	}
	for _, q := range synth.Queries(rand.New(rand.NewSource(11)), images, 200, 0.02) {
		if en, err := core.NormalizeCanonical(q); err == nil {
			queries = append(queries, en.Poly)
		}
	}
	return polys, shapeOf, queries
}

// TestArgminMatchesMinHash pins the argmin cells an index stores, and those
// a query is signed with, to the uint64 MinHash worked out the long way
// (refSignature), bit for bit, over every copy of the demo-200 base and
// 200 queries: each cell hashes to the MinHash value at its position, every
// band key is the MinHash's, and each query agrees with each copy at as
// many positions as their MinHash signatures do.
func TestArgminMatchesMinHash(t *testing.T) {
	polys, shapeOf, queries := demoCopies(t)
	if len(polys) != 18012 || len(queries) != 200 {
		t.Fatalf("demo-200 has %d copies and %d queries, want 18012 and 200", len(polys), len(queries))
	}
	ix := Build(shapeOf, func(i int) geom.Poly { return polys[i] })
	refs := make([][]uint64, len(polys))
	for i, p := range polys {
		refs[i] = refSignature(p)
		checkAgainstRef(t, fmt.Sprintf("copy %d", i), entrySig(ix, i), refs[i])
	}
	for qi, qp := range queries {
		sig, ref := Sign(qp), refSignature(qp)
		q := queryCells(sig)
		checkAgainstRef(t, fmt.Sprintf("query %d", qi), q[:], ref)
		for i := range polys {
			if got, want := ix.agreement(q, int32(i)), refAgreement(ref, refs[i]); got != want {
				t.Fatalf("query %d, copy %d: agreement %d, the MinHash's %d", qi, i, got, want)
			}
		}
	}
}

// TestHashTableInjective checks what lets a position hold its argmin cell
// instead of its hash: no two cells hash alike at one position, and no cell
// hashes to math.MaxUint64, the value of no cell at all.
func TestHashTableInjective(t *testing.T) {
	tab := hashTable()
	if len(tab) != numCells*hashCount {
		t.Fatalf("table holds %d hashes, want %d cells × %d positions", len(tab), numCells, hashCount)
	}
	for h := 0; h < hashCount; h++ {
		seen := make(map[uint64]int, numCells)
		for c := 0; c < numCells; c++ {
			v := tab[c*hashCount+h]
			if v == math.MaxUint64 {
				t.Fatalf("cell %d hashes to MaxUint64 at position %d", c, h)
			}
			if o, ok := seen[v]; ok {
				t.Fatalf("cells %d and %d hash alike at position %d", o, c, h)
			}
			seen[v] = c
		}
	}
}

// TestEmptyPolygonSignature keeps the signature of a polygon with no
// points what the uint64 MinHash made it: math.MaxUint64 at every
// position, so it agrees with another empty boundary everywhere, with any
// other nowhere, and keys its bands as that signature did.
func TestEmptyPolygonSignature(t *testing.T) {
	empty := geom.Poly{}
	sig := Sign(empty)
	for h, v := range sig {
		if v != math.MaxUint64 {
			t.Fatalf("position %d of the empty signature is %#x, want MaxUint64", h, v)
		}
	}
	polys := []geom.Poly{empty, ngon(rand.New(rand.NewSource(6)), 7, 0.5, 0, 0.4, 0.1)}
	ix := Build([]int32{0, 1}, func(i int) geom.Poly { return polys[i] })
	checkAgainstRef(t, "empty entry", entrySig(ix, 0), refSignature(empty))
	checkAgainstRef(t, "empty query", queryCells(sig)[:], refSignature(empty))
	if a, b := ix.agreement(queryCells(sig), 0), ix.agreement(queryCells(sig), 1); a != hashCount || b != 0 {
		t.Fatalf("the empty query agrees with the empty entry at %d positions and the 7-gon at %d, want %d and 0", a, b, hashCount)
	}
	if c := ix.Probe(sig, 1); len(c.Shapes) == 0 || c.Shapes[0] != 0 || c.Scores[0] != hashCount {
		t.Fatalf("probing with the empty signature gave %+v, want the empty entry first at full agreement", c)
	}
}

func TestSignatureDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	poly := ngon(rng, 9, 0.5, 0.1, 0.4, 0.2)
	a, b := Sign(poly), Sign(poly)
	if len(a) != hashCount {
		t.Fatalf("signature length %d, want %d", len(a), hashCount)
	}
	polys := []geom.Poly{poly}
	stored := entrySig(Build([]int32{0}, func(i int) geom.Poly { return polys[i] }), 0)
	for i := range a {
		if a[i] != b[i] || a[i] != uint64(stored[i]) {
			t.Fatalf("signature not deterministic at position %d: %d, %d, stored %d", i, a[i], b[i], stored[i])
		}
	}
}

func TestSimilarShapesAgreeMoreThanDissimilar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := ngon(rng, 12, 0.5, 0.0, 0.45, 0)
	near := geom.NewPolygon(base.Pts...)
	near.Pts = append([]geom.Point(nil), base.Pts...)
	for i := range near.Pts {
		near.Pts[i].X += 0.004 * (2*rng.Float64() - 1)
		near.Pts[i].Y += 0.004 * (2*rng.Float64() - 1)
	}
	far := ngon(rng, 3, 0.5, 0.0, 0.45, 0)

	polys := []geom.Poly{base, near, far}
	ix := Build([]int32{0, 1, 2}, func(i int) geom.Poly { return polys[i] })
	sig := ix.Signature(base)
	nearAgree := ix.agreement(queryCells(sig), 1)
	farAgree := ix.agreement(queryCells(sig), 2)
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
	polys := make([]geom.Poly, 20)
	for i := range polys {
		polys[i] = ngon(rng, 5+i%5, 0.5, 0.0, 0.3, 0.3)
	}
	shapeOf := make([]int32, len(polys))
	for i := range shapeOf {
		shapeOf[i] = int32(i)
	}
	ix := Build(shapeOf, func(i int) geom.Poly { return polys[i] })
	// A signature of an un-indexed frame corner: buckets will likely
	// miss, the floor must still be met by the signature scan.
	probe := ix.Probe(ix.Signature(ngon(rng, 32, -0.3, -0.8, 0.05, 0)), 7)
	if len(probe.Shapes) < 7 {
		t.Fatalf("probe returned %d shapes, want the floor of 7", len(probe.Shapes))
	}
	if probe.Probes != bands {
		t.Fatalf("probe count %d, want %d", probe.Probes, bands)
	}
}

// TestProbeDeterministic derives an index twice from the same entries:
// the two probe alike, entry for entry.
func TestProbeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	polys := make([]geom.Poly, 50)
	for i := range polys {
		polys[i] = ngon(rng, 6+i%7, 0.5, 0.0, 0.4, 0.2)
	}
	halves := make([]int32, len(polys))
	for i := range halves {
		halves[i] = int32(i / 2)
	}
	ix := Build(halves, func(i int) geom.Poly { return polys[i] })
	ix2 := Build(append([]int32(nil), halves...), func(i int) geom.Poly { return polys[i] })
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

// referenceProbe is Probe worked out without the bucket maps, over the
// uint64 MinHash signatures refs of the entries (refSignature), which
// shapeOf maps to their shapes, and q of the query: an entry is in the
// union iff some band of its signature keys equal to the query's; every
// entry is scored by a plain loop and ranked by a stable sort (score
// descending, id ascending); the union is kept, or, when it covers fewer
// than minShapes shapes, the full ranking is cut at minShapes distinct
// shapes. It also reports whether the floor was unmet, so that the whole
// index was ranked.
func referenceProbe(refs [][]uint64, shapeOf []int32, q []uint64, minShapes int) (Candidates, bool) {
	if len(refs) == 0 {
		return Candidates{}, false // an empty index probes nothing
	}
	type scored struct{ id, score int32 }
	all := make([]scored, len(refs))
	var union []scored
	unionShapes := map[int32]bool{}
	allShapes := map[int32]bool{}
	for i := range all {
		all[i] = scored{int32(i), refAgreement(refs[i], q)}
		allShapes[shapeOf[i]] = true
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].score > all[b].score })
	for _, e := range all {
		for b := 0; b < bands; b++ {
			if refBandKey(refs[e.id], b) == refBandKey(q, b) {
				union = append(union, e)
				unionShapes[shapeOf[e.id]] = true
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
			hit[shapeOf[all[cut].id]] = true
			cut++
		}
		kept = all[:cut]
	}
	out := Candidates{Probes: bands}
	seen := map[int32]bool{}
	for _, e := range kept {
		out.Entries = append(out.Entries, e.id)
		out.Scores = append(out.Scores, e.score)
		if s := shapeOf[e.id]; !seen[s] {
			seen[s] = true
			out.Shapes = append(out.Shapes, int(s))
		}
	}
	return out, scanned
}

// TestProbeMatchesReferenceRanking pins Probe — argmin cells, dense union
// marks and a counting sort — to referenceProbe over the uint64 MinHash on
// random indexes of 0–500 entries with
// 1–16 copies per shape, for stored and off-frame queries, at floors below,
// at and above the shape count, through both the bucket path and the
// scan path.
func TestProbeMatchesReferenceRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
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
		ix := Build(shapeOf, func(i int) geom.Poly { return polys[i] })
		refs := make([][]uint64, n)
		for i, p := range polys {
			refs[i] = refSignature(p)
		}
		nShapes := (n + copies - 1) / copies
		for q := 0; q < 6; q++ {
			var qp geom.Poly
			if n > 0 && q%2 == 0 {
				qp = polys[rng.Intn(n)]
			} else {
				qp = ngon(rng, 32, -0.3, -0.8, 0.05, 0)
			}
			sig, ref := ix.Signature(qp), refSignature(qp)
			for _, m := range []int{0, 1, 64, nShapes, nShapes + 5} {
				got := ix.Probe(sig, m)
				want, scanned := referenceProbe(refs, shapeOf, ref, m)
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
