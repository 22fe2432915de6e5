// Package core implements the paper's primary contribution: the
// average-minimum-point-distance similarity criterion (§2.2), shape
// normalization about α-diameters (§2.4), the shape base, and the
// incremental ε-envelope fattening retrieval algorithm (§2.5), together
// with the Hausdorff-family baselines it is compared against (§2.1) and
// the Mehrotra–Gary edge-normalized feature index (§1).
package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/shapeindex"
)

// DefaultSamples returns the boundary sampling density used for the
// continuous similarity measure on a shape with n vertices: enough samples
// that every edge contributes, with a floor for very coarse shapes.
func DefaultSamples(n int) int {
	s := 4 * n
	if s < 64 {
		return 64
	}
	return s
}

// BoundaryDist is a nearest-boundary distance oracle for a fixed shape.
// It wraps a segment grid so that repeated evaluations against the same
// shape (the query, during matching) reuse the index.
type BoundaryDist struct {
	grid *shapeindex.SegmentGrid
}

// NewBoundaryDist builds the oracle. The shape must have at least one
// edge.
func NewBoundaryDist(shape geom.Poly) *BoundaryDist {
	return &BoundaryDist{grid: shapeindex.NewSegmentGrid(shape.Edges())}
}

// Dist returns the distance from p to the shape's boundary.
func (b *BoundaryDist) Dist(p geom.Point) float64 { return b.grid.Dist(p) }

// AvgMinDist computes the directed continuous measure
// h_avg(A, B) = average over points a of A's boundary of min_{b∈B} d(a,b),
// approximating the boundary integral with `samples` uniformly spaced
// arc-length samples of A (§2.2: the average is over all points of the
// continuous shape A, not just its vertices).
func AvgMinDist(a, b geom.Poly, samples int) float64 {
	if samples <= 0 {
		samples = DefaultSamples(a.NumVertices())
	}
	return AvgMinDistTo(a, NewBoundaryDist(b), samples)
}

// AvgMinDistTo is AvgMinDist against a prebuilt distance oracle.
func AvgMinDistTo(a geom.Poly, b *BoundaryDist, samples int) float64 {
	var buf []geom.Point
	return avgMinDistToInto(a, b.Dist, samples, &buf)
}

// avgMinDistToInto is AvgMinDistTo against the distance dist, resampling
// into *buf, so a run of evaluations allocates one buffer.
func avgMinDistToInto(a geom.Poly, dist func(geom.Point) float64, samples int, buf *[]geom.Point) float64 {
	if samples <= 0 {
		samples = DefaultSamples(a.NumVertices())
	}
	*buf = a.ResampleInto(*buf, samples)
	if len(*buf) == 0 {
		return math.Inf(1)
	}
	var sum float64
	for _, p := range *buf {
		sum += dist(p)
	}
	return sum / float64(len(*buf))
}

// AvgMinDistSym is the symmetrized continuous measure
// (h_avg(A,B) + h_avg(B,A)) / 2, used for ranking matches and for the
// similarity-driven external-storage layout (§4.2).
func AvgMinDistSym(a, b geom.Poly, samples int) float64 {
	return (AvgMinDist(a, b, samples) + AvgMinDist(b, a, samples)) / 2
}

// AvgMinDistVertices computes the discrete variant of the measure on A's
// vertex set: average over A's vertices of the distance to B's boundary.
// This is the quantity the fattening algorithm's candidate counters bound
// (a shape with more than a β fraction of vertices outside the
// ε-envelope has AvgMinDistVertices > β·ε).
func AvgMinDistVertices(a geom.Poly, b *BoundaryDist) float64 {
	if len(a.Pts) == 0 {
		return math.Inf(1)
	}
	var sum float64
	for _, p := range a.Pts {
		sum += b.Dist(p)
	}
	return sum / float64(len(a.Pts))
}

// AvgMinDistVerticesSym is the symmetrized vertex-averaged measure
// (AvgMinDistVertices(A,B) + AvgMinDistVertices(B,A)) / 2. This is the
// matching engine's ranking key: the directed variant alone can be zero
// for dissimilar shapes whose vertices happen to lie on the other
// boundary, while the symmetric variant is zero only when each shape's
// vertices lie on the other's boundary — and it still obeys the envelope
// bound (an entry with more than a β fraction of vertices outside the
// ε-envelope has AvgMinDistVerticesSym > β·ε/2).
func AvgMinDistVerticesSym(a, b geom.Poly) float64 {
	return (AvgMinDistVertices(a, NewBoundaryDist(b)) +
		AvgMinDistVertices(b, NewBoundaryDist(a))) / 2
}

// DirectedHausdorff computes h(A,B) = max over A's sampled boundary of the
// distance to B (§2.1). samples ≤ 0 selects the default density.
func DirectedHausdorff(a, b geom.Poly, samples int) float64 {
	if samples <= 0 {
		samples = DefaultSamples(a.NumVertices())
	}
	oracle := NewBoundaryDist(b)
	var worst float64
	for _, p := range a.Resample(samples) {
		if d := oracle.Dist(p); d > worst {
			worst = d
		}
	}
	return worst
}

// Hausdorff computes H(A,B) = max(h(A,B), h(B,A)).
func Hausdorff(a, b geom.Poly, samples int) float64 {
	return math.Max(DirectedHausdorff(a, b, samples), DirectedHausdorff(b, a, samples))
}

// GeneralizedHausdorff computes the Huttenlocher–Rucklidge partial
// variant h_k: the k-th largest of the vertex-to-shape distances, in both
// directions, taking the max (§2.1). k = 1 is the ordinary (vertex)
// Hausdorff distance; the common choice is k = m/2. k is clamped to each
// direction's vertex count.
func GeneralizedHausdorff(a, b geom.Poly, k int) float64 {
	return math.Max(directedKth(a, b, k), directedKth(b, a, k))
}

func directedKth(a, b geom.Poly, k int) float64 {
	ds := a.VertexDistancesTo(b)
	if len(ds) == 0 {
		return math.Inf(1)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(ds)))
	if k < 1 {
		k = 1
	}
	if k > len(ds) {
		k = len(ds)
	}
	return ds[k-1]
}

// PreparedQuery caches the per-query work of the serving searches and the
// direct similarity checks: the canonical normalization and its
// boundary-distance oracle. Preparing once and reusing across many
// ShapeDistancePrepared calls — or across the passes over every shard of
// a partitioned base — hoists the normalization and grid build out of
// candidate and shard loops. A PreparedQuery is safe for
// concurrent use: immutable but for the distance field, built once at the
// first bounded evaluation.
type PreparedQuery struct {
	entry  Entry
	oracle *BoundaryDist

	// blocks, when attached, accumulates the page-granular cost of every
	// entry this query evaluates through the bounded distance checks (§4
	// block accounting). Atomic because one prepared query fans out
	// across shard goroutines.
	blocks *atomic.Int64
	// evaluated, when attached, counts the copies those checks let through
	// to the exact evaluator — every check, whoever makes it (a request's
	// Stats.Candidates).
	evaluated *atomic.Int64

	// field is the lower-bound distance field of the query boundary in
	// front of every bounded evaluation (distWithin).
	fieldOnce sync.Once
	field     *distField
}

// PrepareQuery normalizes q canonically and builds its boundary oracle.
func PrepareQuery(q geom.Poly) (*PreparedQuery, error) {
	qe, err := NormalizeCanonical(q)
	if err != nil {
		return nil, err
	}
	return &PreparedQuery{entry: qe, oracle: NewBoundaryDist(qe.Poly)}, nil
}

// Entry returns the query's canonical normalization.
func (pq *PreparedQuery) Entry() Entry { return pq.entry }

// AttachBlockCounter makes the query charge per-entry block costs into
// c. Attach before sharing the query across goroutines.
func (pq *PreparedQuery) AttachBlockCounter(c *atomic.Int64) { pq.blocks = c }

// AttachEvalCounter makes the query count into c the copies its bounded
// distance checks send to the exact evaluator. Attach before sharing.
func (pq *PreparedQuery) AttachEvalCounter(c *atomic.Int64) { pq.evaluated = c }

// Oracle returns the query's boundary-distance oracle.
func (pq *PreparedQuery) Oracle() *BoundaryDist { return pq.oracle }

// ShapeDistancePrepared returns the similarity distance between a stored
// shape and a prepared query: the minimum, over the shape's normalized
// copies, of the symmetric vertex-averaged measure against the query's
// canonical normalization, each copy measured by the unbounded evaluator —
// the reference walk the bounded one (ShapeDistancePreparedBounded) is held
// to.
func (b *Base) ShapeDistancePrepared(shapeID int, pq *PreparedQuery) (float64, error) {
	if shapeID < 0 || shapeID >= len(b.shapes) {
		return 0, fmt.Errorf("core: shape id %d out of range", shapeID)
	}
	best := math.Inf(1)
	var buf []geom.Point
	for ei := b.shapeOff[shapeID]; ei < b.shapeOff[shapeID+1]; ei++ {
		cp := b.copyPoly(int(ei), buf)
		buf = cp.Pts
		if d, _, _ := pq.distWithin(cp, nil, 0, math.Inf(1)); d < best {
			best = d
		}
	}
	return best, nil
}

// distContinuous is the symmetrized continuous measure between the query
// and a normalized copy cp, each boundary resampled into *resample: cp
// against the query's oracle, the query against cp's own edges.
func (pq *PreparedQuery) distContinuous(cp geom.Poly, samples int, resample *[]geom.Point) float64 {
	var buf [edgeStack]shapeindex.Seg
	back := shapeindex.AppendEdges(buf[:0], cp)
	return (avgMinDistToInto(cp, pq.oracle.Dist, samples, resample) +
		avgMinDistToInto(pq.entry.Poly, back.Dist, samples, resample)) / 2
}
