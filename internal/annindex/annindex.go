// Package annindex is the candidate-generation tier in front of the
// exact match kernel: a MinHash + LSH-banding index over the
// rasterized boundaries of normalized shape copies, after "Locality
// Sensitive Hashing for Efficient Similar Polygon Retrieval"
// (arXiv:2101.04339) and PolyMinHash (arXiv:2511.16576).
//
// Every normalized entry's boundary is sampled into cells of a fixed
// grid over the lune frame; the cell set's MinHash signature (Bands ×
// Rows hashes) is stored, and each band of Rows hashes is keyed into a
// bucket map. Two shapes whose normalized boundaries overlap heavily
// share most cells, so their signatures agree position-wise with
// probability equal to the cell-set Jaccard similarity and they collide
// in at least one band with probability 1-(1-J^Rows)^Bands.
//
// Construction is deterministic: signatures depend only on the entry
// polygons and Params (no time, no random state), so a rebuilt index is
// byte-identical to a persisted one and snapshot round-trips stay
// canonical.
//
// The index never answers a query by itself: a probe, linear in signature
// compares (never geometry), emits a candidate set that the admissible
// bounded evaluators then score exactly (DESIGN.md §4.10).
package annindex

import (
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
)

// Params fix the signature family. Two indexes (or an index and a
// query signature) are comparable only under identical Params.
type Params struct {
	// GridRes is the rasterization resolution: cells per unit length of
	// the normalized (lune) frame, so the cell side is 1/GridRes.
	GridRes int
	// Bands and Rows shape the LSH banding: Bands×Rows total hashes,
	// Rows hashes per bucket key. More rows sharpen each band (fewer
	// false positives), more bands raise recall.
	Bands int
	Rows  int
	// Seed seeds the deterministic hash family.
	Seed uint64
}

// DefaultParams are tuned on the 400-image demo base (BenchmarkAnn* in
// the root package):
// cell side ≈ 0.05 diameters absorbs query distortion, 16 bands × 2 rows
// keeps band collisions likely down to moderate similarity.
func DefaultParams() Params {
	return Params{GridRes: 20, Bands: 16, Rows: 2, Seed: 0x67736972616e6e31}
}

// hashCount is the signature length.
func (p Params) hashCount() int { return p.Bands * p.Rows }

// The raster grid covers the normalized frame: canonical copies live in
// the lune (x ∈ [0,1], |y| ≤ √3/2) and α-diameter copies may spill
// slightly, so the box is padded; points outside clamp to the border.
const (
	boxMinX = -0.5
	boxMinY = -1.0
	boxSpan = 2.0
)

func cellOf(x, y float64, res int) uint32 {
	w := 2 * res
	ix := int((x - boxMinX) * float64(res))
	iy := int((y - boxMinY) * float64(res))
	if ix < 0 {
		ix = 0
	} else if ix >= w {
		ix = w - 1
	}
	if iy < 0 {
		iy = 0
	} else if iy >= w {
		iy = w - 1
	}
	return uint32(iy*w + ix)
}

// appendCells rasterizes a polygon boundary into grid cells: each edge
// is sampled at half-cell steps (no cell on the path is skipped), and
// the result is sorted and deduplicated. dst is reused scratch.
func appendCells(dst []uint32, poly geom.Poly, res int) []uint32 {
	pts := poly.Pts
	n := len(pts)
	if n == 0 {
		return dst[:0]
	}
	dst = append(dst[:0], cellOf(pts[0].X, pts[0].Y, res))
	step := 0.5 / float64(res)
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
			dst = append(dst, cellOf(a.X+t*dx, a.Y+t*dy, res))
		}
	}
	sort.Slice(dst, func(i, j int) bool { return dst[i] < dst[j] })
	out := dst[:1]
	for _, c := range dst[1:] {
		if c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

// mix64 is the splitmix64 finalizer: a cheap, well-mixed 64-bit hash.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// signatureInto fills sig (length hashCount) with the cell set's MinHash
// signature: sig[h] = min over cells of the h-th hash of the cell.
func (p Params) signatureInto(sig []uint64, cells []uint32) {
	for h := range sig {
		sig[h] = math.MaxUint64
	}
	for _, c := range cells {
		base := mix64(p.Seed ^ (uint64(c) + 1))
		for h := range sig {
			v := mix64(base + uint64(h)*0x9E3779B97F4A7C15)
			if v < sig[h] {
				sig[h] = v
			}
		}
	}
}

// bandKey folds one band's Rows signature values into its bucket key.
func (p Params) bandKey(sig []uint64, band int) uint64 {
	k := p.Seed ^ (uint64(band+1) * 0x9E3779B97F4A7C15)
	for r := 0; r < p.Rows; r++ {
		k = mix64(k ^ sig[band*p.Rows+r])
	}
	return k
}

// ComputeSignatures returns the concatenated signatures of n entries
// (n × hashCount values), computed in parallel. polyAt must be safe for
// concurrent calls; the result depends only on Params and the polygons.
func ComputeSignatures(p Params, n int, polyAt func(i int) geom.Poly) []uint64 {
	h := p.hashCount()
	sigs := make([]uint64, n*h)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	const stride = 32
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cells []uint32
			for {
				lo := int(next.Add(stride)) - stride
				if lo >= n {
					return
				}
				hi := lo + stride
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					cells = appendCells(cells, polyAt(i), p.GridRes)
					p.signatureInto(sigs[i*h:(i+1)*h], cells)
				}
			}
		}()
	}
	wg.Wait()
	return sigs
}

// Index is a frozen ANN index over one base's normalized entries.
// Immutable after construction; safe for any number of concurrent
// readers.
type Index struct {
	p       Params
	n       int
	sigs    []uint64 // n × hashCount, entry-major
	shapeOf []int32  // entry → shape id
	nShapes int
	buckets []map[uint64][]int32 // per band: bucket key → entry ids (ascending)
}

// Build computes signatures for the entries shapeOf maps to their shape
// ids and assembles the index. poly(i) returns the i-th entry's
// normalized polygon and must be safe for concurrent calls.
func Build(p Params, shapeOf []int32, poly func(i int) geom.Poly) *Index {
	return FromSignatures(p, ComputeSignatures(p, len(shapeOf), poly), shapeOf)
}

// FromSignatures assembles an index from precomputed (typically
// persisted) signatures. len(sigs) must be len(shapeOf) × hashCount.
func FromSignatures(p Params, sigs []uint64, shapeOf []int32) *Index {
	n := len(shapeOf)
	ix := &Index{p: p, n: n, sigs: sigs, shapeOf: shapeOf}
	for _, s := range shapeOf {
		if int(s)+1 > ix.nShapes {
			ix.nShapes = int(s) + 1
		}
	}
	ix.buckets = make([]map[uint64][]int32, p.Bands)
	for b := range ix.buckets {
		ix.buckets[b] = make(map[uint64][]int32)
	}
	h := p.hashCount()
	for i := 0; i < n; i++ {
		sig := sigs[i*h : (i+1)*h]
		for b := 0; b < p.Bands; b++ {
			key := p.bandKey(sig, b)
			ix.buckets[b][key] = append(ix.buckets[b][key], int32(i))
		}
	}
	return ix
}

// Params returns the signature family the index was built under.
func (ix *Index) Params() Params { return ix.p }

// NumEntries returns the number of indexed entries.
func (ix *Index) NumEntries() int { return ix.n }

// Signatures returns the concatenated entry signatures (entry-major).
// The slice is the index's own storage: callers must not mutate it.
func (ix *Index) Signatures() []uint64 { return ix.sigs }

// Signature computes the query-side signature of a normalized polygon.
func (ix *Index) Signature(poly geom.Poly) []uint64 {
	sig := make([]uint64, ix.p.hashCount())
	ix.p.signatureInto(sig, appendCells(nil, poly, ix.p.GridRes))
	return sig
}

// Candidates is one probe's result: entries and shapes ordered best-
// first by signature agreement (ties broken on ascending id, so the
// ordering is deterministic).
type Candidates struct {
	// Entries are candidate entry ids, best-first; Scores holds the
	// aligned agreement counts (matching signature positions, 0..H).
	Entries []int32
	Scores  []int32
	// Shapes are the candidates' shape ids, deduplicated in best-first
	// order (each shape appears at its best entry's position).
	Shapes []int
	// Probes counts the LSH buckets probed.
	Probes int
}

// agreement counts signature positions where entry ei matches sig.
func (ix *Index) agreement(sig []uint64, ei int32) int32 {
	h := ix.p.hashCount()
	base := int(ei) * h
	var c int32
	for i := 0; i < h; i++ {
		if ix.sigs[base+i] == sig[i] {
			c++
		}
	}
	return c
}

// Probe collects the entries colliding with sig in any band, ranks them
// by signature agreement, and dedupes to shapes. If the buckets yield
// fewer than minShapes distinct shapes, it ranks every entry instead and
// cuts at the first point covering minShapes shapes. Either way it costs
// one agreement scan of the ranked entries plus O(1) per entry.
func (ix *Index) Probe(sig []uint64, minShapes int) Candidates {
	if ix.n == 0 {
		return Candidates{}
	}
	minShapes = min(minShapes, ix.nShapes)
	union := make([]uint64, (ix.n+63)/64)
	for b := 0; b < ix.p.Bands; b++ {
		for _, ei := range ix.buckets[b][ix.p.bandKey(sig, b)] {
			union[ei>>6] |= 1 << (ei & 63)
		}
	}
	size := 0
	for _, w := range union {
		size += bits.OnesCount64(w)
	}
	ids := make([]int32, 0, size)
	seen := make([]bool, ix.nShapes)
	covered := 0
	for wi, w := range union {
		for ; w != 0; w &= w - 1 {
			ei := int32(wi<<6 + bits.TrailingZeros64(w))
			ids = append(ids, ei)
			if s := ix.shapeOf[ei]; !seen[s] {
				seen[s] = true
				covered++
			}
		}
	}
	scan := covered < minShapes
	if scan {
		ids = make([]int32, ix.n)
		for i := range ids {
			ids[i] = int32(i)
		}
	}
	out := Candidates{Probes: ix.p.Bands}
	out.Entries, out.Scores = ix.rank(sig, ids)
	clear(seen)
	for i, ei := range out.Entries {
		if scan && len(out.Shapes) == minShapes {
			out.Entries, out.Scores = out.Entries[:i], out.Scores[:i]
			break
		}
		if s := ix.shapeOf[ei]; !seen[s] {
			seen[s] = true
			out.Shapes = append(out.Shapes, int(s))
		}
	}
	return out
}

// rank orders ids, which ascend, best-first by agreement with sig: score
// descending, then id ascending. A stable counting sort over the
// hashCount()+1 possible scores places each entry in O(1).
func (ix *Index) rank(sig []uint64, ids []int32) (entries, scores []int32) {
	h := int32(ix.p.hashCount())
	scores = make([]int32, len(ids))
	next := make([]int, h+2) // next[h-s]: where the next entry of score s goes
	for i, ei := range ids {
		scores[i] = ix.agreement(sig, ei)
		next[h-scores[i]+1]++
	}
	for b := 1; b < len(next); b++ {
		next[b] += next[b-1]
	}
	entries = make([]int32, len(ids))
	ranked := make([]int32, len(ids))
	for i, ei := range ids {
		b := h - scores[i]
		entries[next[b]], ranked[next[b]] = ei, scores[i]
		next[b]++
	}
	return entries, ranked
}
