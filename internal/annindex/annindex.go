// Package annindex is the candidate-generation tier in front of the
// exact match kernel: a MinHash + LSH-banding index over the
// rasterized boundaries of normalized shape copies, after "Locality
// Sensitive Hashing for Efficient Similar Polygon Retrieval"
// (arXiv:2101.04339) and PolyMinHash (arXiv:2511.16576).
//
// Every normalized entry's boundary is sampled into cells of a fixed
// grid over the lune frame; the cell set's MinHash signature (bands ×
// rows hashes) is kept, and each band of rows hashes is keyed into a
// bucket map. Two shapes whose normalized boundaries overlap heavily
// share most cells, so their signatures agree position-wise with
// probability equal to the cell-set Jaccard similarity and they collide
// in at least one band with probability 1-(1-J^rows)^bands.
//
// A signature position holds the cell attaining the least hash, not the
// hash: position h hashes cell c to mix64(mix64(seed^(c+1)) + h·φ), which is
// injective in c, so two signatures agree at a position exactly when their
// argmin cells do, and 2 bytes a position carry what 8 did. The hashes of
// every cell at every position are one table per process (hashTable).
//
// Construction is deterministic: signatures depend only on the entry
// polygons (no time, no random state), so an index is derived whenever it
// is wanted and never stored.
//
// The index never answers a query by itself: a probe, linear in signature
// compares (never geometry), emits a candidate set that the admissible
// bounded evaluators then score exactly (DESIGN.md §4.10).
package annindex

import (
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
)

// The signature family, tuned on the 400-image demo base (BenchmarkAnn* in
// the root package): a cell side of 1/gridRes ≈ 0.05 diameters absorbs query
// distortion, and 16 bands × 2 rows keep band collisions likely down to
// moderate similarity.
const (
	// gridRes is the rasterization resolution: cells per unit length of
	// the normalized (lune) frame.
	gridRes = 20
	// bands × rows hashes make a signature, rows of them a bucket key.
	// More rows sharpen each band (fewer false positives), more bands raise
	// recall.
	bands, rows = 16, 2
	hashCount   = bands * rows
	// seed seeds the deterministic hash family.
	seed = 0x67736972616e6e31
	// golden is φ·2⁶⁴, splitmix64's increment.
	golden = 0x9E3779B97F4A7C15
)

// The raster grid covers the normalized frame: canonical copies live in
// the lune (x ∈ [0,1], |y| ≤ √3/2) and α-diameter copies may spill
// slightly, so the box is padded; points outside clamp to the border.
const (
	boxMinX = -0.5
	boxMinY = -1.0
	boxSpan = 2

	gridW    = boxSpan * gridRes
	numCells = gridW * gridW
	// noCell is the signature position of a polygon with no points, whose
	// every hash is math.MaxUint64: no cell attains it.
	noCell = math.MaxUint16
)

func cellOf(x, y float64) int {
	ix := int((x - boxMinX) * gridRes)
	iy := int((y - boxMinY) * gridRes)
	return min(max(iy, 0), gridW-1)*gridW + min(max(ix, 0), gridW-1)
}

// mix64 is the splitmix64 finalizer: a cheap, well-mixed 64-bit hash.
func mix64(x uint64) uint64 {
	x += golden
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// hashTable is every cell's hash at every signature position, cell-major
// (400 KB), built on first use.
var hashTable = sync.OnceValue(func() []uint64 {
	tab := make([]uint64, numCells*hashCount)
	for c := 0; c < numCells; c++ {
		base := mix64(seed ^ (uint64(c) + 1))
		for h := 0; h < hashCount; h++ {
			tab[c*hashCount+h] = mix64(base + uint64(h)*golden)
		}
	}
	return tab
})

// hashAt is the h-th hash of cell c: math.MaxUint64 for noCell.
func hashAt(tab []uint64, c uint16, h int) uint64 {
	if c == noCell {
		return math.MaxUint64
	}
	return tab[int(c)*hashCount+h]
}

// signer accumulates one boundary's signature cell by cell.
type signer struct {
	tab   []uint64
	sig   *[hashCount]uint16
	least [hashCount]uint64
	seen  [(numCells + 63) / 64]uint64
}

// add hashes cell c at every position, once per boundary.
func (s *signer) add(c int) {
	if s.seen[c>>6]&(1<<(c&63)) != 0 {
		return
	}
	s.seen[c>>6] |= 1 << (c & 63)
	for h, v := range s.tab[c*hashCount : (c+1)*hashCount] {
		if v < s.least[h] {
			s.least[h], s.sig[h] = v, uint16(c)
		}
	}
}

// sign fills sig with the signature of poly's boundary: each edge is
// sampled at half-cell steps, so no cell on the path is skipped, and every
// position holds the cell whose hash there is least (noCell for no points).
func sign(sig *[hashCount]uint16, poly geom.Poly, tab []uint64) {
	s := signer{tab: tab, sig: sig}
	for h := range sig {
		sig[h], s.least[h] = noCell, math.MaxUint64
	}
	pts := poly.Pts
	n := len(pts)
	if n == 0 {
		return
	}
	s.add(cellOf(pts[0].X, pts[0].Y))
	const step = 0.5 / gridRes
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
			s.add(cellOf(a.X+t*dx, a.Y+t*dy))
		}
	}
}

// bandKey folds one band's rows signature hashes into its bucket key.
func bandKey(tab []uint64, sig []uint16, band int) uint64 {
	k := seed ^ (uint64(band+1) * golden)
	for h := band * rows; h < (band+1)*rows; h++ {
		k = mix64(k ^ hashAt(tab, sig[h], h))
	}
	return k
}

// Index is an ANN index over one base's normalized entries. Immutable
// after construction; safe for any number of concurrent readers.
type Index struct {
	sigs    []uint16 // len(shapeOf) × hashCount argmin cells, entry-major
	shapeOf []int32  // entry → shape id
	nShapes int
	buckets [bands]map[uint64][]int32 // per band: bucket key → entry ids (ascending)
}

// Build signs the entries shapeOf maps to their shape ids, in parallel,
// and buckets them by band. poly(i) returns the i-th entry's normalized
// polygon and must be safe for concurrent calls.
func Build(shapeOf []int32, poly func(i int) geom.Poly) *Index {
	n := len(shapeOf)
	tab := hashTable()
	ix := &Index{sigs: make([]uint16, n*hashCount), shapeOf: shapeOf}
	workers := max(1, min(runtime.GOMAXPROCS(0), n))
	var next atomic.Int64
	var wg sync.WaitGroup
	const stride = 32
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(stride)) - stride
				if lo >= n {
					return
				}
				for i := lo; i < min(lo+stride, n); i++ {
					sign((*[hashCount]uint16)(ix.sigs[i*hashCount:]), poly(i), tab)
				}
			}
		}()
	}
	wg.Wait()
	for _, s := range shapeOf {
		ix.nShapes = max(ix.nShapes, int(s)+1)
	}
	for b := range ix.buckets {
		ix.buckets[b] = make(map[uint64][]int32)
		for i := 0; i < n; i++ {
			key := bandKey(tab, ix.sigs[i*hashCount:(i+1)*hashCount], b)
			ix.buckets[b][key] = append(ix.buckets[b][key], int32(i))
		}
	}
	return ix
}

// NumEntries returns the number of indexed entries.
func (ix *Index) NumEntries() int { return len(ix.shapeOf) }

// Signature is Sign: every index signs under the one family.
func (ix *Index) Signature(poly geom.Poly) []uint64 { return Sign(poly) }

// Sign computes the query-side signature of a normalized polygon, the
// argument of Probe: per position, the cell attaining the least hash, and
// math.MaxUint64 at every position for a polygon with no points.
func Sign(poly geom.Poly) []uint64 {
	var cells [hashCount]uint16
	sign(&cells, poly, hashTable())
	sig := make([]uint64, hashCount)
	for h, c := range cells {
		sig[h] = uint64(c)
		if c == noCell {
			sig[h] = math.MaxUint64
		}
	}
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

// agreement counts signature positions where entry ei matches q.
func (ix *Index) agreement(q *[hashCount]uint16, ei int32) int32 {
	var c int32
	for h, v := range ix.sigs[int(ei)*hashCount : (int(ei)+1)*hashCount] {
		if v == q[h] {
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
	n := len(ix.shapeOf)
	if n == 0 {
		return Candidates{}
	}
	var q [hashCount]uint16
	for h := range q {
		q[h] = uint16(min(sig[h], noCell))
	}
	tab := hashTable()
	minShapes = min(minShapes, ix.nShapes)
	union := make([]uint64, (n+63)/64)
	for b := range ix.buckets {
		for _, ei := range ix.buckets[b][bandKey(tab, q[:], b)] {
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
		ids = make([]int32, n)
		for i := range ids {
			ids[i] = int32(i)
		}
	}
	out := Candidates{Probes: bands}
	out.Entries, out.Scores = ix.rank(&q, ids)
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

// rank orders ids, which ascend, best-first by agreement with q: score
// descending, then id ascending. A stable counting sort over the
// hashCount+1 possible scores places each entry in O(1).
func (ix *Index) rank(q *[hashCount]uint16, ids []int32) (entries, scores []int32) {
	const h = hashCount
	scores = make([]int32, len(ids))
	next := make([]int, h+2) // next[h-s]: where the next entry of score s goes
	for i, ei := range ids {
		scores[i] = ix.agreement(q, ei)
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
