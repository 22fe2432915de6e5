package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/shapeindex"
)

// This file holds the admissible pruning primitives of the prune-first
// match kernel (DESIGN.md §4.9): the atomic shared top-k bound that lets
// the parts of a request prune against each other mid-flight, the query's
// distance field and the one bounded evaluator behind it.

// geomBoundSlack absorbs the floating-point error of the distance
// field's cells, lower bounds derived in real arithmetic (Dist(centre) −
// half-diagonal): evaluated in floats one can overshoot by a few ulps,
// so it is slackened before use. Shapes are diameter-normalized (every
// coordinate is O(1), inside the lune), so an absolute margin of 1e-9 is
// ~6 orders of magnitude above the accumulated rounding error while
// costing nothing against the distances the engine ranks (~1e-2 scale).
const geomBoundSlack = 1e-9

// SharedBound is an atomic, monotonically non-increasing distance bound
// shared by concurrent searches: any value ever stored is a proven upper
// bound on the k-th best distance of the merged result, so every reader
// may discard work strictly above the current value. The zero value is
// not usable; construct with NewSharedBound (which starts at +Inf).
//
// Values are non-negative, so their IEEE-754 bit patterns order like the
// floats themselves and a CAS loop over the raw bits implements an
// atomic min.
type SharedBound struct {
	bits atomic.Uint64
}

// NewSharedBound returns a bound starting at +Inf (nothing pruned).
func NewSharedBound() *SharedBound {
	s := &SharedBound{}
	s.bits.Store(math.Float64bits(math.Inf(1)))
	return s
}

// Load returns the current bound.
func (s *SharedBound) Load() float64 {
	return math.Float64frombits(s.bits.Load())
}

// Tighten lowers the bound to v if v improves it. NaN and negative
// values are ignored.
func (s *SharedBound) Tighten(v float64) {
	if math.IsNaN(v) || v < 0 {
		return
	}
	nb := math.Float64bits(v)
	for {
		ob := s.bits.Load()
		if math.Float64frombits(ob) <= v {
			return
		}
		if s.bits.CompareAndSwap(ob, nb) {
			return
		}
	}
}

// avgMinDistVerticesBoundedAffine iterates AvgMinDistVertices of a against
// the distance dist with an admissible early exit: it aborts as soon as
// the partial sum proves
//
//	(base + full/n) / 2 > cut
//
// under the exact float operations the caller uses to combine the two
// directed halves into the symmetric measure. The proof needs only
// monotonicity: the running sum is non-decreasing (non-negative terms),
// float division by n and float addition are monotone, so the partial
// value (base + sum/n)/2 — computed with the same operation sequence —
// never exceeds the final one. When it completes, the returned value is
// bit-identical to AvgMinDistVertices (same loop, same accumulator).
//
// The abort test costs a division, so a cheap product gate (sum >
// (2·cut − base)·n, exact in the cases that matter and conservative
// otherwise) guards it.
func avgMinDistVerticesBoundedAffine(a geom.Poly, dist func(geom.Point) float64, base, cut float64) (float64, bool) {
	n := len(a.Pts)
	if n == 0 {
		return math.Inf(1), true
	}
	nf := float64(n)
	// NaN when both base and cut are +Inf — then the gate never fires and
	// the loop runs to completion, which is the correct "no cutoff" mode.
	trigger := (2*cut - base) * nf
	var sum float64
	for _, p := range a.Pts {
		sum += dist(p)
		if sum > trigger && (base+sum/nf)/2 > cut {
			return 0, false
		}
	}
	return sum / nf, true
}

// The distance field's table: cells of side 1/fieldRes over the box
// [-0.25, 1.25] × [-1.1, 1.15], which holds the lune every diameter-
// normalized copy lies in and what an α-diameter copy adds to it at the
// default α. Constants, not knobs: a vertex outside the box reads 0.
const (
	fieldRes         = 32
	fieldX0, fieldY0 = -0.25, -1.1
	fieldNX, fieldNY = 48, 72
	// fieldFar is the band around each query segment inside which the
	// build measures cell centres against that segment; a cell whose
	// centre lies farther from every segment is bounded by the band and
	// the anchors instead.
	fieldFar = 0.1
	// fieldAnchor is the side, in cells, of the square block that one
	// anchor — the block's centre, measured against every segment — bounds.
	fieldAnchor = 4
	// fieldUnit is the value of one step of the table: entries are integers
	// in units of 2⁻¹⁵, so a copy's field sum is exact and the largest
	// entry, 65535 units, is just under 2 — more than any cell of the box
	// lies from a normalized query's boundary.
	fieldUnit = 0x1p-15
	// fieldGuard is the relative margin on the reject trigger: it absorbs
	// the rounding of the evaluator's float sum (≤ n·2⁻⁵³, relative) and
	// of the trigger's own product, so the reject stays exact for any copy
	// under ~10⁶ vertices.
	fieldGuard = 1e-9
)

// distField is a lower bound on the distance to a query's boundary that
// costs one table load. Distance-to-a-set is 1-Lipschitz, so a distance d
// measured at c proves Dist(p) ≥ d − r for every p within r of c: a cell
// holds max(0, D − half-diagonal − geomBoundSlack) for a lower bound D on
// the distance at its centre, floored to whole units of fieldUnit and
// clamped to the largest one. The slack covers the kernel's rounding and a
// point the float cell index puts one ulp outside its cell. The slot past
// the last cell, fieldOff, holds 0: it is the cell of every point the table
// says nothing about. See DESIGN.md §4.9, "Distance-field reject".
type distField [fieldNX*fieldNY + 1]uint16

// fieldOff is the cell id of a point outside the table's box.
const fieldOff = fieldNX * fieldNY

// fieldCell returns the id of the table cell p falls in: fieldOff outside
// the box and for non-finite coordinates (every comparison with NaN is
// false). The box and the resolution are constants, so the id is a property
// of the point alone — a stored vertex's is computed once, when its copy is
// frozen or inserted, and every query's table is read through it.
func fieldCell(p geom.Point) uint16 {
	fx, fy := (p.X-fieldX0)*fieldRes, (p.Y-fieldY0)*fieldRes
	if !(fx >= 0 && fx < fieldNX && fy >= 0 && fy < fieldNY) {
		return fieldOff
	}
	return uint16(int(fy)*fieldNX + int(fx))
}

// appendFieldCells appends the cell id of every point of pts to dst.
func appendFieldCells(dst []uint16, pts []geom.Point) []uint16 {
	for _, p := range pts {
		dst = append(dst, fieldCell(p))
	}
	return dst
}

// newDistField builds the query's field from the segments of its oracle's
// grid, with the kernel the oracle's own walk evaluates (SegDist2), and
// never walks the oracle. Every cell centre within fieldFar of a segment's
// bounding box is measured against that segment, and a cell keeps the least
// of its measures: when the centre's distance D is at most fieldFar its
// nearest segment is among those measured, so min(measured, fieldFar) ≤ D
// either way. An anchor at the centre of every fieldAnchor² block, measured
// against all segments, adds D ≥ D(anchor) − |centre − anchor| where the
// band says only fieldFar.
func newDistField(o *BoundaryDist) *distField {
	g := o.grid.Parts()
	// One length for the five segment arrays: one bounds check per segment.
	ax := g.Ax
	ay, dx, dy, invL2 := g.Ay[:len(ax)], g.Dx[:len(ax)], g.Dy[:len(ax)], g.InvL2[:len(ax)]
	kernel := func(px, py float64, s int) float64 {
		return shapeindex.SegDist2(px, py, ax[s], ay[s], dx[s], dy[s], invL2[s])
	}
	var near [fieldNX * fieldNY]float64 // least squared distance measured per cell
	for i := range near {
		near[i] = fieldFar * fieldFar
	}
	for s := range ax {
		x0, x1 := bandCells(min(ax[s], ax[s]+dx[s])-fieldX0, max(ax[s], ax[s]+dx[s])-fieldX0, fieldNX)
		y0, y1 := bandCells(min(ay[s], ay[s]+dy[s])-fieldY0, max(ay[s], ay[s]+dy[s])-fieldY0, fieldNY)
		for iy := y0; iy <= y1; iy++ {
			cy, row := fieldY0+(float64(iy)+0.5)/fieldRes, near[iy*fieldNX:(iy+1)*fieldNX]
			for ix := x0; ix <= x1; ix++ {
				// A NaN measure (a segment with a non-finite coordinate) is
				// no measure: the comparison drops it.
				if d2 := kernel(fieldX0+(float64(ix)+0.5)/fieldRes, cy, s); d2 < row[ix] {
					row[ix] = d2
				}
			}
		}
	}
	const half = math.Sqrt2 / (2 * fieldRes) // a cell's half-diagonal
	f := new(distField)
	for by := 0; by < fieldNY; by += fieldAnchor {
		for bx := 0; bx < fieldNX; bx += fieldAnchor {
			acx := fieldX0 + float64(bx+fieldAnchor/2)/fieldRes
			acy := fieldY0 + float64(by+fieldAnchor/2)/fieldRes
			anchor := math.Inf(1)
			for s := range ax {
				if d2 := kernel(acx, acy, s); d2 < anchor {
					anchor = d2
				}
			}
			anchor = math.Sqrt(anchor)
			for iy := by; iy < by+fieldAnchor; iy++ {
				for ix := bx; ix < bx+fieldAnchor; ix++ {
					d := max(math.Sqrt(near[iy*fieldNX+ix]), anchor-anchorReach[iy-by][ix-bx])
					if d -= half + geomBoundSlack; d > 0 {
						f[iy*fieldNX+ix] = uint16(min(d/fieldUnit, math.MaxUint16))
					}
				}
			}
		}
	}
	return f
}

// anchorReach is the distance from an anchor to the centres of the cells
// of its block.
var anchorReach = func() (r [fieldAnchor][fieldAnchor]float64) {
	for y := range r {
		for x := range r[y] {
			r[y][x] = math.Hypot(float64(x)+0.5-fieldAnchor/2, float64(y)+0.5-fieldAnchor/2) / fieldRes
		}
	}
	return r
}()

// bandCells is the range of cells along one axis of the table, n long,
// whose centres may lie within fieldFar of [lo, hi] (offsets from the
// table's edge): widened to whole cells past the float rounding, clamped to
// the table, empty (a > b) when nothing of the table is that near, or an
// end is NaN. A cell too many only costs a measure: a measure is the
// distance to one segment, never below the distance to the boundary.
func bandCells(lo, hi float64, n int) (a, b int) {
	fa := math.Floor((lo-fieldFar)*fieldRes - 0.5)
	fb := math.Ceil((hi+fieldFar)*fieldRes - 0.5)
	if !(fa < float64(n) && fb >= 0) {
		return 0, -1
	}
	return int(max(fa, 0)), int(min(fb, float64(n-1)))
}

// sum is the field's lower bound on ΣDist over a copy's vertices, which
// fall in cells, in units of fieldUnit: integers, so the sum is exact
// whatever the order.
func (f *distField) sum(cells []uint16) uint64 {
	return f.sumPast(cells, math.MaxUint64)
}

// sumPast is sum, except that it may stop at a four-cell boundary once the
// partial sum exceeds trigger: every term is non-negative, so the result is
// above trigger exactly when the full sum is, and then it is a lower bound
// on the full sum — the copy is turned away on either.
func (f *distField) sumPast(cells []uint16, trigger uint64) uint64 {
	var sum uint64
	for ; len(cells) >= 4; cells = cells[4:] {
		sum += uint64(f[cells[0]]) + uint64(f[cells[1]]) + uint64(f[cells[2]]) + uint64(f[cells[3]])
		if sum > trigger {
			return sum
		}
	}
	for _, id := range cells {
		sum += uint64(f[id])
	}
	return sum
}

// fieldRate is a cutoff's reject trigger per vertex, in units of the
// field: 2·cut·(1+fieldGuard) scaled by the unit (a power of two, so
// exactly). A negative cut, which no search holds, rates 0.
func fieldRate(cut float64) float64 {
	return max(2*cut*(1+fieldGuard)/fieldUnit, 0)
}

// fieldTrigger is the field sum, in units, that a copy of n vertices must
// exceed to be turned away at rate (fieldRate): rate·n floored — an
// integer sum exceeds a real exactly when it exceeds its floor. Past any
// sum (an infinite or NaN cutoff) it is the largest uint64, which nothing
// exceeds.
func fieldTrigger(n int, rate float64) uint64 {
	if t := rate * float64(n); t < 1<<63 {
		return uint64(int64(t))
	}
	return math.MaxUint64
}

// fieldRejects is the one field-reject decision: whether fsum, the field's
// sum over the n vertices of a copy, proves the copy strictly farther than
// cut. Σlb > 2·cut·n gives dir = ΣDist/n > 2·cut, so DistVertex =
// (dir+back)/2 ≥ dir/2 > cut whatever back is. Never true at cut = +Inf.
func fieldRejects(fsum uint64, n int, cut float64) bool {
	return fsum > fieldTrigger(n, fieldRate(cut))
}

// fieldFloor turns a copy's field sum into a lower bound on its DistVertex,
// slackened by the reject's own margin: a floor above cut proves the copy
// strictly farther than cut, as fieldRejects would.
func fieldFloor(fsum uint64, n int) float64 {
	return float64(fsum) * fieldUnit / (2 * float64(n) * (1 + fieldGuard))
}

// distField returns the query's distance field, built at first use — the
// first floor taken or copy evaluated under a cutoff: a request that only
// ever scores unbounded (ShapeDistancePrepared) never pays for it, and
// every part and goroutine of one that does shares the one table (immutable
// once built).
func (pq *PreparedQuery) distField() *distField {
	pq.fieldOnce.Do(func() { pq.field = newDistField(pq.oracle) })
	return pq.field
}

// edgeStack is how many edges of a stored copy the back pass sets up on the
// stack (every served base stores copies of at most 21 vertices); a copy
// with more pays one allocation.
const edgeStack = 32

// distWithin is the one bounded evaluator of the symmetric vertex-averaged
// measure between the query and a normalized copy cp whose vertices the
// query's distance field sums to fsum (0 claims nothing): (DistVertex, true)
// when it is ≤ cut — bit-identical to the unbounded (dir+back)/2 — and ok =
// false once it is proven strictly above cut, first by the field's sum in
// one comparison, then by the partial sums of the two directed passes. The
// dir pass reads the query's oracle; the back pass reads cp's own edges,
// set up once for the pass (shapeindex.Edges: the bits a grid over them
// would give). Both rejects are strict, so a copy tying cut survives.
// scored is false when the field rejected the copy: the exact evaluator
// never ran.
func (pq *PreparedQuery) distWithin(cp geom.Poly, fsum uint64, cut float64) (dv float64, ok, scored bool) {
	if fieldRejects(fsum, len(cp.Pts), cut) {
		return 0, false, false
	}
	dir, ok := avgMinDistVerticesBoundedAffine(cp, pq.oracle.Dist, 0, cut)
	if !ok {
		return 0, false, true
	}
	var buf [edgeStack]shapeindex.Seg
	back := shapeindex.AppendEdges(buf[:0], cp)
	bk, ok := avgMinDistVerticesBoundedAffine(pq.entry.Poly, back.Dist, dir, cut)
	if !ok {
		return 0, false, true
	}
	return (dir + bk) / 2, true, true
}

// AvgMinDistVerticesBounded is AvgMinDistVertices with an admissible
// early exit: it returns (value, true) with the exact directed measure
// when it is ≤ cutoff (or when cutoff is +Inf), and (0, false) as soon
// as the partial sum proves the final value exceeds cutoff — every
// remaining min-term is ≥ 0, so the partial average only grows. Values
// exactly equal to cutoff are never aborted (the test is strict), so
// ties survive pruning.
func AvgMinDistVerticesBounded(a geom.Poly, b *BoundaryDist, cutoff float64) (float64, bool) {
	n := len(a.Pts)
	if n == 0 {
		return math.Inf(1), true
	}
	nf := float64(n)
	trigger := cutoff * nf
	var sum float64
	for _, p := range a.Pts {
		sum += b.Dist(p)
		if sum > trigger && sum/nf > cutoff {
			return 0, false
		}
	}
	return sum / nf, true
}

// AvgMinDistToBounded is AvgMinDistTo with the same admissible early
// exit over the resampled boundary: it aborts the moment
// sum > cutoff·samples, returning (0, false); otherwise the exact
// continuous measure and true. samples ≤ 0 selects DefaultSamples.
func AvgMinDistToBounded(a geom.Poly, b *BoundaryDist, samples int, cutoff float64) (float64, bool) {
	if samples <= 0 {
		samples = DefaultSamples(a.NumVertices())
	}
	pts := a.Resample(samples)
	if len(pts) == 0 {
		return math.Inf(1), true
	}
	nf := float64(len(pts))
	trigger := cutoff * nf
	var sum float64
	for _, p := range pts {
		sum += b.Dist(p)
		if sum > trigger && sum/nf > cutoff {
			return 0, false
		}
	}
	return sum / nf, true
}

// ShapeDistancePreparedBounded is ShapeDistancePrepared with an
// admissible cutoff: it returns the shape's Match — its exact distance and
// the lowest normalized copy realizing it — and true when the distance is
// ≤ cutoff, and false (DistVertex +Inf, EntryID -1) once every copy is
// proven to exceed cutoff. The pruning is exact (scanShape.nearest): a
// copy is discarded only when the value the unpruned evaluation would have
// produced is strictly above both cutoff and the running best, so the
// minimum over surviving copies equals the unpruned minimum whenever that
// minimum is ≤ cutoff. The query's block counter is charged once, with
// every copy of the shape.
func (b *Base) ShapeDistancePreparedBounded(shapeID int, pq *PreparedQuery, cutoff float64) (Match, bool, error) {
	if !b.frozen {
		return Match{}, false, fmt.Errorf("core: base must be frozen before matching")
	}
	if shapeID < 0 || shapeID >= len(b.shapes) {
		return Match{}, false, fmt.Errorf("core: shape id %d out of range", shapeID)
	}
	s := b.scanShape(shapeID)
	best, ei, scored, blocks := s.nearest(pq, cutoff, nil)
	if pq.blocks != nil {
		pq.blocks.Add(int64(blocks))
	}
	if pq.evaluated != nil {
		pq.evaluated.Add(int64(scored))
	}
	return Match{ShapeID: shapeID, EntryID: ei, DistVertex: best}, best <= cutoff, nil
}

// ShapeFloor is a lower bound on the shape's distance to the prepared query
// that costs one table load per stored vertex (the query's distance field
// summed over each copy, the smallest per-vertex average halved): above a
// cutoff it proves what ShapeDistancePreparedBounded would report under it,
// strictly outside. 0 — no claim — for an id out of range.
func (b *Base) ShapeFloor(shapeID int, pq *PreparedQuery) float64 {
	if shapeID < 0 || shapeID >= len(b.shapes) {
		return 0
	}
	s := b.scanShape(shapeID)
	return s.floor(pq.distField())
}
