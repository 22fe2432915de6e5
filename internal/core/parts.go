package core

import (
	"fmt"
	"math"
	"os"

	"repro/internal/geom"
	"repro/internal/shapeindex"
)

// This file is the persistence seam of the base: FrozenParts
// exposes what the base stores of each copy — its meta and its vertices'
// distance-field cells — so a snapshot writer can serialize them verbatim,
// and BaseFromParts reassembles a Base from such arrays without
// deriving a copy: the decode-free load path of the GSIR3 format. Checks in
// BaseFromParts guard every index the searches and a copy's derivation
// read, and the half-turn pairs the floors read through; other element
// values are trusted, because the loader verifies each section's checksum
// before assembly.

// EntryMeta is what a base stores of a normalized copy besides its cells:
// the copy's shape, its ordinal within the shape, and the α-diameter it is
// normalized about — the vertex index mapped to (0,0) and the one mapped
// to (1,0). Its vertices and transforms follow from these and the shape
// (Base.Entry).
type EntryMeta struct {
	ShapeID int32
	Copy    int32
	DiamI   int32
	DiamJ   int32
}

// FrozenParts is a read-only view of what a base stores per copy. The
// slices alias the base's internals — callers must not mutate them.
type FrozenParts struct {
	EntryMeta []EntryMeta // one per copy, each shape's one run, in shape order
	Cells     []uint16    // every copy's vertices' field cells, copy by copy
}

// FrozenParts returns what the base stores per copy.
func (b *Base) FrozenParts() FrozenParts {
	return FrozenParts{EntryMeta: b.meta, Cells: b.fieldCells}
}

// Grid returns the oracle's segment grid.
func (b *BoundaryDist) Grid() *shapeindex.SegmentGrid { return b.grid }

// BaseSpec carries everything BaseFromParts needs to reassemble a
// base. Slices are adopted, not copied: they may alias a
// read-only memory mapping, in which case the Base must not outlive it.
type BaseSpec struct {
	Opts      Options
	Shapes    []Shape     // fully formed, ids 0..n-1 in order
	EntryMeta []EntryMeta // one per copy
	// Cells is FrozenParts' cell row. With DeriveCells it is instead a
	// buffer of the row's length that BaseFromParts fills by deriving every
	// copy — for a snapshot that holds no row computed under FieldLayout —
	// so the caller, not the parts' counts, vouches for the work.
	Cells       []uint16
	DeriveCells bool
}

// pairDriftExtent is the ratio of a shape's extent — the largest
// |coordinate| of its raw vertices — to its shortest stored α-diameter
// past which BaseFromParts derives the shape's copies to check their
// half-turn pairs. The pairs' drift grows with that ratio (DESIGN.md §4.9):
// up to 10⁴ it stays under mirrorTol/10 (TestPairDriftBelowExtentCut), so
// a pair check of meta alone is exact below it.
const pairDriftExtent = 1e4

// BaseFromParts reassembles a Base from what a snapshot stores, parts of
// no shape included. The result answers every query identically to the
// Base whose parts were serialized: meta and cells are adopted as-is, and
// only O(shapes + copies) bookkeeping (the shape → copies and shape →
// cells offsets, block costs) is rebuilt, with no pass over a copy's vertices unless DeriveCells asks
// for the cell row. It refuses parts whose layout the searches cannot
// read: a shape's copies not one run in shape order, or an odd number of
// them; a copy 2k+1 whose pair is not copy 2k's swapped — the half turn a
// search floors through; a diameter index outside its shape or a pair
// NormalizeOnto turns down; copies of more vertices than an int32 offset
// counts; a cell row of the wrong length or a cell id past the field's. A
// shape whose extent exceeds pairDriftExtent times its shortest α-diameter
// has its copies derived and its pairs checked vertex by vertex, as
// Append checks them. The climb's range index is not part of it: like an
// appended Base's, it is built on the first climb (BuildRangeIndex).
func BaseFromParts(s BaseSpec) (*Base, error) {
	ne := len(s.EntryMeta)
	for id, sh := range s.Shapes {
		if sh.ID != id {
			return nil, fmt.Errorf("core: base parts shape %d carries id %d", id, sh.ID)
		}
	}
	b := &Base{opts: s.Opts.withDefaults(), shapes: s.Shapes, meta: s.EntryMeta}
	b.shapeOff = make([]int32, len(s.Shapes)+1)
	b.cellOff = make([]int32, len(s.Shapes)+1)
	for i, m := range s.EntryMeta {
		if m.ShapeID < 0 || int(m.ShapeID) >= len(s.Shapes) {
			return nil, fmt.Errorf("core: base parts entry %d references shape %d of %d", i, m.ShapeID, len(s.Shapes))
		}
		// The layout the searches stride (scanShape): each shape's copies one
		// run of entries, the runs in shape order.
		if i > 0 && m.ShapeID < s.EntryMeta[i-1].ShapeID {
			return nil, fmt.Errorf("core: base parts shape %d: its copies are not one run in shape order (entry %d follows shape %d's)", m.ShapeID, i, s.EntryMeta[i-1].ShapeID)
		}
		c, nv := b.shapeOff[m.ShapeID+1], len(s.Shapes[m.ShapeID].Poly.Pts)
		if m.DiamI < 0 || int(m.DiamI) >= nv || m.DiamJ < 0 || int(m.DiamJ) >= nv {
			return nil, fmt.Errorf("core: base parts shape %d: copy %d's diameter (%d, %d) lies outside its %d vertices", m.ShapeID, c, m.DiamI, m.DiamJ, nv)
		}
		// The pairs the searches floor through one read (distField.floor):
		// each copy 2k+1 normalized about copy 2k's diameter swapped.
		if prev := s.EntryMeta[max(i-1, 0)]; c%2 == 1 && (m.DiamI != prev.DiamJ || m.DiamJ != prev.DiamI) {
			return nil, fmt.Errorf("core: base parts shape %d: copy %d is not the half turn of copy %d", m.ShapeID, c, c-1)
		}
		b.shapeOff[m.ShapeID+1]++
		b.totalCost += int(entryBlocks(nv))
	}
	var nCells int64
	for id, sh := range s.Shapes {
		n := b.shapeOff[id+1]
		if n == 0 {
			return nil, fmt.Errorf("core: base parts shape %d has no entries", id)
		}
		if n%2 != 0 {
			return nil, fmt.Errorf("core: base parts shape %d: an odd number of copies (%d)", id, n)
		}
		b.shapeOff[id+1] += b.shapeOff[id]
		// The offsets are int32 and index the cell row: refuse counts whose
		// vertex total does not fit before one wraps.
		if nCells += int64(n) * int64(len(sh.Poly.Pts)); nCells > math.MaxInt32 {
			return nil, fmt.Errorf("core: base parts' copies hold more than %d vertices", math.MaxInt32)
		}
		b.cellOff[id+1] = int32(nCells)
		if err := b.checkDiameters(id); err != nil {
			return nil, err
		}
	}
	if int64(len(s.Cells)) != nCells {
		return nil, fmt.Errorf("core: base parts hold %d cells, their copies %d vertices", len(s.Cells), nCells)
	}
	if s.DeriveCells {
		copiesDerived.Add(int64(ne))
		cells, buf := s.Cells[:0], []geom.Point(nil)
		for ei := range b.meta {
			buf = b.appendCopy(buf[:0], ei)
			cells = appendFieldCells(cells, buf)
		}
	} else {
		for v, c := range s.Cells {
			if c > fieldOff {
				return nil, fmt.Errorf("core: base parts vertex %d falls in cell %d, past the field's %d", v, c, fieldOff)
			}
		}
	}
	b.fieldCells = s.Cells
	return b, nil
}

// checkDiameters refuses shape id's copies if NormalizeOnto would turn a
// diameter pair down, so that deriving a copy cannot fail, and — when the
// shape's extent exceeds pairDriftExtent times its shortest α-diameter —
// derives its copies and refuses them if they are not half-turn pairs
// vertex by vertex (unpairedCopy); below that cut the meta check is exact.
func (b *Base) checkDiameters(id int) error {
	pts, lo, hi := b.shapes[id].Poly.Pts, int(b.shapeOff[id]), int(b.shapeOff[id+1])
	minDiam, extent := math.Inf(1), 0.0
	for ei, m := range b.meta[lo:hi] {
		d := pts[m.DiamJ].Sub(pts[m.DiamI]).Norm()
		if !(d > geom.Eps) {
			return fmt.Errorf("core: base parts shape %d: copy %d's diameter (%d, %d) has length %v", id, ei, m.DiamI, m.DiamJ, d)
		}
		minDiam = min(minDiam, d)
	}
	for _, p := range pts {
		extent = max(extent, math.Abs(p.X), math.Abs(p.Y))
	}
	if extent <= pairDriftExtent*minDiam {
		return nil
	}
	copiesDerived.Add(int64(hi - lo))
	copies := make([][]geom.Point, hi-lo)
	for c := range copies {
		copies[c] = b.appendCopy(nil, lo+c)
	}
	if c := unpairedCopy(len(copies), func(c int) []geom.Point { return copies[c] }); c >= 0 {
		return fmt.Errorf("core: base parts shape %d: copy %d is not the half turn of copy %d", id, c, c-1)
	}
	return nil
}

// pageSize is the block-accounting unit: the VM page, since GSIR3
// serves shards through the page cache and the paper's §4 study judges
// the index by blocks fetched, not CPU.
var pageSize = os.Getpagesize()

// entryBlocks models the storage footprint of a copy of nv vertices —
// what a snapshot holds for it: its vertices' field cells (2 B each) and
// its meta (ENTM, 16 B) — in pages. Its vertices are its shape's, held once
// per shape, and derived. The match kernel charges this cost whenever it
// evaluates the entry, turning the extstore simulation of the paper's §4
// block accounting into live counters on the real path.
func entryBlocks(nv int) int32 {
	bytes := nv*2 + // field cells
		16 // entry meta
	return int32(max((bytes+pageSize-1)/pageSize, 1))
}

// blockCost returns the page-granular cost of touching entry ei: its
// shape's copies all cost the same.
func (b *Base) blockCost(ei int32) int {
	return int(entryBlocks(len(b.shapes[b.meta[ei].ShapeID].Poly.Pts)))
}
