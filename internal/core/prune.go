package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sync"

	"repro/internal/geom"
	"repro/internal/shapeindex"
)

// This file holds the admissible pruning primitives of the prune-first
// match kernel (DESIGN.md §4.9): the query's distance field and the one
// bounded evaluator behind it, and the per-shape and per-base entry points
// the serving searches call.

// geomBoundSlack absorbs the floating-point error of the distance
// field's cells, lower bounds derived in real arithmetic (Dist(centre) −
// half-diagonal): evaluated in floats one can overshoot by a few ulps,
// so it is slackened before use. Shapes are diameter-normalized (every
// coordinate is O(1), inside the lune), so an absolute margin of 1e-9 is
// ~6 orders of magnitude above the accumulated rounding error while
// costing nothing against the distances the engine ranks (~1e-2 scale).
const geomBoundSlack = 1e-9

// avgMinDistVerticesBoundedAffine iterates AvgMinDistVertices over n
// vertices, dist(i) the distance of vertex i, with an admissible early
// exit: it aborts as soon as the partial sum proves
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
func avgMinDistVerticesBoundedAffine(n int, dist func(i int) float64, base, cut float64) (float64, bool) {
	if n == 0 {
		return math.Inf(1), true
	}
	nf := float64(n)
	// NaN when both base and cut are +Inf — then the gate never fires and
	// the loop runs to completion, which is the correct "no cutoff" mode.
	trigger := (2*cut - base) * nf
	var sum float64
	for i := 0; i < n; i++ {
		sum += dist(i)
		if sum > trigger && (base+sum/nf)/2 > cut {
			return 0, false
		}
	}
	return sum / nf, true
}

// The distance field's table: cells of side 1/fieldRes over the box
// [-0.25, 1.25] × [-1.125, 1.125], which holds the lune every diameter-
// normalized copy lies in and what an α-diameter copy adds to it at the
// default α. The box is symmetric under the half turn about (½, 0) that
// maps a copy onto its twin (mirrorCell). Constants, not knobs: a vertex
// outside the box reads 0.
const (
	fieldRes         = 32
	fieldX0, fieldY0 = -0.25, -1.125
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
// says nothing about. A cell near the boundary also lists the query
// segments that can be nearest to a point of it, so the evaluator's dir
// pass reads a stored vertex's distance through its cell (dist). See
// DESIGN.md §4.9, "Distance-field reject".
//
// An entry of lb packs two bounds: the cell's own in its low 32 bits and
// its mirror cell's (mirrorCell) in its high 32, so one read of a copy's
// cells sums the field over the copy and over its half-turn twin
// (sumPast).
type distField struct {
	lb    [fieldNX*fieldNY + 1]uint64
	lists [fieldNX*fieldNY + 1]cellList
	// The query's segments as its oracle's grid holds them: what a list's
	// ids index.
	ax, ay, dx, dy, invL2 []float64
}

// fieldSlots is how many segments a cell's list holds; a cell near more
// walks.
const fieldSlots = 4

// cellList is the first n of seg: the query segments, by index, that can be
// nearest to a point of the cell. n = 0 — no list — sends the cell's
// vertices to the oracle's walk.
type cellList struct {
	n   uint8
	seg [fieldSlots]uint8
}

// fieldOff is the cell id of a point outside the table's box.
const fieldOff = fieldNX * fieldNY

// fieldCellRule numbers fieldCell's rule for FieldLayout: bump it on a
// change to the rule that keeps the grid's constants.
const fieldCellRule = 1

// FieldLayout stamps the cell grid fieldCell maps a vertex into, for a
// persisted cell row: a loader adopts a row only under the stamp it was
// computed with, and derives the row otherwise. It hashes the rule number
// and the grid's constants, so moving the box or changing its resolution
// changes it (TestFieldLayoutPinned). It is never 0, the stamp of a
// snapshot that records none.
var FieldLayout = func() uint32 {
	var b []byte
	for _, v := range []float64{fieldCellRule, fieldRes, fieldX0, fieldY0, fieldNX, fieldNY} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return crc32.ChecksumIEEE(b) | 1
}()

// fieldCell returns the id of the table cell p falls in: fieldOff outside
// the box and for non-finite coordinates (every comparison with NaN is
// false). The box and the resolution are constants, so the id is a property
// of the point alone — a stored vertex's is computed once, when its copy is
// appended or loaded, and every query's table is read through it.
func fieldCell(p geom.Point) uint16 {
	fx, fy := (p.X-fieldX0)*fieldRes, (p.Y-fieldY0)*fieldRes
	if !(fx >= 0 && fx < fieldNX && fy >= 0 && fy < fieldNY) {
		return fieldOff
	}
	return uint16(int(fy)*fieldNX + int(fx))
}

// mirrorCell is the cell that R(x, y) = (1−x, −y), the half turn about
// (½, 0), maps the closed cell c onto — exactly, because the box is
// symmetric under R and its edges are multiples of 1/fieldRes: (ix, iy)
// goes to (fieldNX−1−ix, fieldNY−1−iy), which in row-major ids is
// fieldOff−1−c. The slot of points outside the box is its own mirror.
func mirrorCell(c uint16) uint16 {
	if c >= fieldOff {
		return fieldOff
	}
	return fieldOff - 1 - c
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
//
// A segment nearest to a point of a cell whose centre lies D from the
// boundary is within D + 2·half-diagonal of the centre, by the same
// Lipschitz bound both ways. Where D + listReach stays inside the band,
// every such segment was measured at the centre, and a second pass over
// the bands, measuring only such cells, lists the segments within
// D + listReach in the cell's list; a cell farther out, or near more than
// fieldSlots segments, walks.
func newDistField(o *BoundaryDist) *distField {
	g := o.grid.Parts()
	// One length for the five segment arrays: one bounds check per segment.
	ax := g.Ax
	ay, dx, dy, invL2 := g.Ay[:len(ax)], g.Dx[:len(ax)], g.Dy[:len(ax)], g.InvL2[:len(ax)]
	kernel := func(px, py float64, s int) float64 {
		return shapeindex.SegDist2(px, py, ax[s], ay[s], dx[s], dy[s], invL2[s])
	}
	bands := func(s int) (x0, x1, y0, y1 int) {
		x0, x1 = bandCells(min(ax[s], ax[s]+dx[s])-fieldX0, max(ax[s], ax[s]+dx[s])-fieldX0, fieldNX)
		y0, y1 = bandCells(min(ay[s], ay[s]+dy[s])-fieldY0, max(ay[s], ay[s]+dy[s])-fieldY0, fieldNY)
		return x0, x1, y0, y1
	}
	var near [fieldNX * fieldNY]float64 // least squared distance measured per cell
	for i := range near {
		near[i] = fieldFar * fieldFar
	}
	for s := range ax {
		x0, x1, y0, y1 := bands(s)
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
	f := fieldPool.Get().(*distField)
	clear(f.lb[:])
	clear(f.lists[:])
	f.ax, f.ay, f.dx, f.dy, f.invL2 = ax, ay, dx, dy, invL2
	// A list names a segment in 8 bits and holds only what the band measured:
	// a query with more segments, or with one the kernel cannot measure (a
	// non-finite coordinate), walks every cell.
	listed := len(ax) <= math.MaxUint8
	for s := range ax {
		listed = listed && math.Abs(ax[s]+ay[s]+dx[s]+dy[s]) <= math.MaxFloat64
	}
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
					i := iy*fieldNX + ix
					d := math.Sqrt(near[i])
					// From here on near holds what the list pass measures
					// against: (D + listReach)², or -1 where nothing is listed.
					near[i] = -1
					if listed && d <= fieldFar-listReach {
						near[i] = (d + listReach) * (d + listReach)
					}
					if d = max(d, anchor-anchorReach[iy-by][ix-bx]) - (fieldHalf + geomBoundSlack); d > 0 {
						v := uint64(min(d/fieldUnit, math.MaxUint16))
						f.lb[i] |= v
						f.lb[mirrorCell(uint16(i))] |= v << 32
					}
				}
			}
		}
	}
	for s := range ax {
		x0, x1, y0, y1 := bands(s)
		for iy := y0; iy <= y1; iy++ {
			cy, reach, lists := fieldY0+(float64(iy)+0.5)/fieldRes, near[iy*fieldNX:(iy+1)*fieldNX], f.lists[iy*fieldNX:(iy+1)*fieldNX]
			for ix := x0; ix <= x1; ix++ {
				if reach[ix] < 0 {
					continue
				}
				if d2 := kernel(fieldX0+(float64(ix)+0.5)/fieldRes, cy, s); d2 <= reach[ix] {
					l := &lists[ix]
					if l.n == fieldSlots {
						l.n, reach[ix] = 0, -1 // one segment too many: the cell walks
						continue
					}
					l.seg[l.n] = uint8(s)
					l.n++
				}
			}
		}
	}
	return f
}

const (
	fieldHalf = math.Sqrt2 / (2 * fieldRes) // a cell's half-diagonal
	// listReach is how much farther from a cell's centre than its nearest
	// segment one nearest to a point of the cell can lie, slackened as the
	// table's bounds are.
	listReach = 2*fieldHalf + geomBoundSlack
)

// dist is the distance from p, a point of cell c (fieldCell), to the
// query's boundary, with the bits of the walk of o, the oracle the field
// was built from: the least kernel value over the cell's list — a set that
// holds a nearest segment, which is the walk's contract — or the walk
// itself where the cell has no list.
func (f *distField) dist(o *BoundaryDist, p geom.Point, c uint16) float64 {
	l := &f.lists[c]
	if l.n == 0 {
		return o.Dist(p)
	}
	best2 := math.Inf(1)
	for _, s := range l.seg[:l.n] {
		best2 = min(best2, shapeindex.SegDist2(p.X, p.Y, f.ax[s], f.ay[s], f.dx[s], f.dy[s], f.invL2[s]))
	}
	if math.IsNaN(best2) {
		return math.Inf(1) // as the walk
	}
	return math.Sqrt(best2)
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
	own, _ := f.sumPast(cells, math.MaxUint64)
	return own
}

// sumPast returns the field's sums, in units, over the copy whose vertices
// fall in cells (own) and over its half-turn twin (twin), both read through
// cells: the twin's from the high halves of lb. It may stop at a four-cell
// boundary once both partial sums exceed trigger: every term is
// non-negative, so a sum at most trigger is full, and one above it is a
// lower bound on the full sum — the copy is turned away on either. Four
// terms of at most 0xFFFF cannot carry out of a half.
//
// The twin's sum is admissible because the twin is R of the copy, vertex by
// vertex, to mirrorTol (halfTurnPair): a vertex v read in cell c lies in the
// closed cell c to the float cell index's ulp, R(v) in the closed cell
// mirrorCell(c), and the twin's vertex within mirrorTol of R(v) — inside the
// geomBoundSlack every bound of the table allows beyond its cell. The twin's
// own cell need not be mirrorCell(c): the pinned points (0,0) and (1,0) sit
// on cell edges, where the float index picks either side.
func (f *distField) sumPast(cells []uint16, trigger uint64) (own, twin uint64) {
	for ; len(cells) >= 4; cells = cells[4:] {
		pair := f.lb[cells[0]] + f.lb[cells[1]] + f.lb[cells[2]] + f.lb[cells[3]]
		own, twin = own+pair&math.MaxUint32, twin+pair>>32
		if min(own, twin) > trigger {
			return own, twin
		}
	}
	for _, id := range cells {
		own, twin = own+f.lb[id]&math.MaxUint32, twin+f.lb[id]>>32
	}
	return own, twin
}

// floor is the field's lower bound on the distance of a shape whose copies,
// nv vertices each and in half-turn pairs, fall in the cells of block, copy
// c's at block[c·nv:(c+1)·nv]: the smallest of its copies' fieldFloor. Every
// copy has the shape's vertex count and fieldFloor is monotone in the sum
// for a fixed count, so the least sum gives the least floor, with one
// division; one read of copy 2k's cells sums copies 2k and 2k+1 (sumPast),
// stopping once both pass the least so far.
func (f *distField) floor(block []uint16, nv, copies int) float64 {
	if copies == 0 {
		return math.Inf(1)
	}
	least := uint64(math.MaxUint64)
	for c := 0; c < copies; c += 2 {
		own, twin := f.sumPast(block[c*nv:(c+1)*nv], least)
		least = min(least, own, twin)
	}
	return fieldFloor(least, nv)
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

// fieldPool holds the distance fields of released queries (Release), which
// newDistField builds into instead of allocating ~47 KB.
var fieldPool = sync.Pool{New: func() any { return new(distField) }}

// Release hands the query's distance field back for a later query to build
// into. The caller must be done with pq — every evaluation of it returned —
// and must not use it again. A query never released leaves its field to the
// collector.
func (pq *PreparedQuery) Release() {
	if pq.field != nil {
		fieldPool.Put(pq.field)
		pq.field = nil
	}
}

// edgeStack is how many edges of a stored copy the back pass sets up on the
// stack (every served base stores copies of at most 21 vertices); a copy
// with more pays one allocation.
const edgeStack = 32

// distWithin is the one bounded evaluator of the symmetric vertex-averaged
// measure between the query and a normalized copy cp whose vertices fall in
// the distance-field cells cells and the query's field sums to fsum (0
// claims nothing): (DistVertex, true) when it is ≤ cut — bit-identical to
// the unbounded (dir+back)/2 — and ok = false once it is proven strictly
// above cut, first by the field's sum in one comparison, then by the
// partial sums of the two directed passes. The dir pass reads each vertex
// through its cell (distField.dist), or walks the query's oracle when cells
// is nil; the back pass reads cp's own edges, set up once for the pass
// (shapeindex.Edges: the bits a grid over them would give). Both rejects
// are strict, so a copy tying cut survives. scored is false when the field
// rejected the copy: the exact evaluator never ran.
func (pq *PreparedQuery) distWithin(cp geom.Poly, cells []uint16, fsum uint64, cut float64) (dv float64, ok, scored bool) {
	if fieldRejects(fsum, len(cp.Pts), cut) {
		return 0, false, false
	}
	pts, o := cp.Pts, pq.oracle
	dist := func(i int) float64 { return o.Dist(pts[i]) }
	if cells != nil {
		f := pq.distField()
		dist = func(i int) float64 { return f.dist(o, pts[i], cells[i]) }
	}
	dir, ok := avgMinDistVerticesBoundedAffine(len(pts), dist, 0, cut)
	if !ok {
		return 0, false, true
	}
	var buf [edgeStack]shapeindex.Seg
	back, q := shapeindex.AppendEdges(buf[:0], cp), pq.entry.Poly.Pts
	bk, ok := avgMinDistVerticesBoundedAffine(len(q), func(i int) float64 { return back.Dist(q[i]) }, dir, cut)
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

// ShapeDistancePreparedBounded is ShapeDistancePrepared with an
// admissible cutoff: it returns the shape's Match — its exact distance and
// the lowest normalized copy realizing it — and true when the distance is
// ≤ cutoff, and false (DistVertex +Inf, EntryID -1) once every copy is
// proven to exceed cutoff. The pruning is exact (scanShape.nearest): a
// copy is discarded only when the value the unpruned evaluation would have
// produced is strictly above both cutoff and the running best, so the
// minimum over surviving copies equals the unpruned minimum whenever that
// minimum is ≤ cutoff. The query's block counter is charged once, with
// every copy of the shape; its evaluation counter with the copies that
// reached the exact evaluator.
func (b *Base) ShapeDistancePreparedBounded(shapeID int, pq *PreparedQuery, cutoff float64) (Match, bool, error) {
	if shapeID < 0 || shapeID >= len(b.shapes) {
		return Match{}, false, fmt.Errorf("core: shape id %d out of range", shapeID)
	}
	s := b.scanShape(shapeID)
	best, ei, _, blocks := s.nearest(pq, cutoff, nil)
	if pq.blocks != nil {
		pq.blocks.Add(int64(blocks))
	}
	return Match{ShapeID: shapeID, EntryID: ei, DistVertex: best}, best <= cutoff, nil
}

// ShapeFloor is a lower bound on the shape's distance to the prepared query
// that costs one table load per vertex of every other copy (the query's
// distance field summed over each copy, the smallest per-vertex average
// halved): above a cutoff it proves what ShapeDistancePreparedBounded would
// report under it, strictly outside. 0 — no claim — for an id out of range.
func (b *Base) ShapeFloor(shapeID int, pq *PreparedQuery) float64 {
	if shapeID < 0 || shapeID >= len(b.shapes) {
		return 0
	}
	return b.shapeFloor(pq.distField(), shapeID)
}

// shapeFloor is f's floor of shape id (distField.floor) over the shape's
// strided block of cells, read straight from the base's arrays.
func (b *Base) shapeFloor(f *distField, id int) float64 {
	return f.floor(b.fieldCells[b.cellOff[id]:b.cellOff[id+1]], len(b.shapes[id].Poly.Pts), int(b.shapeOff[id+1]-b.shapeOff[id]))
}

// Continuous is the continuous measure between the query and stored copy
// ei — the EntryID ShapeDistancePreparedBounded returned — and the copy's
// block cost: the final re-read of an exact match.
func (b *Base) Continuous(ei int, pq *PreparedQuery, resample *[]geom.Point) (float64, int) {
	var buf [copyStack]geom.Point
	return pq.distContinuous(b.copyPoly(ei, buf[:0]), resample), b.blockCost(int32(ei))
}
