package core

import (
	"fmt"
	"os"

	"repro/internal/geom"
	"repro/internal/shapeindex"
)

// This file is the persistence seam of the frozen base: FrozenParts
// exposes the flattened query-time arrays so a snapshot writer can
// serialize them verbatim, and BaseFromParts reassembles a frozen Base
// from such arrays without re-deriving anything from geometry — the
// decode-free load path of the GSIR3 format. Shape checks in
// BaseFromParts guard every slice-indexing invariant the match kernel
// relies on; element values are trusted, because the loader verifies
// each section's checksum before assembly.

// EntryMeta is the fixed-size scalar part of an Entry (everything but
// the polygon, whose vertices live in the flattened vertex array, and
// the transforms, which are serialized separately as plain float64s).
type EntryMeta struct {
	ShapeID int32
	Copy    int32
	DiamI   int32
	DiamJ   int32
}

// FrozenParts is a read-only view of a frozen base's flattened state.
// The slices alias the base's live internals — callers must not mutate
// them.
type FrozenParts struct {
	Entries  []Entry
	Verts    []geom.Point
	EntryOff []int32
}

// FrozenParts returns the flattened state of a frozen base.
func (b *Base) FrozenParts() (FrozenParts, error) {
	if !b.frozen {
		return FrozenParts{}, fmt.Errorf("core: FrozenParts on an unfrozen base")
	}
	return FrozenParts{
		Entries:  b.entries,
		Verts:    b.verts,
		EntryOff: b.entryOff,
	}, nil
}

// Grid returns the oracle's segment grid.
func (b *BoundaryDist) Grid() *shapeindex.SegmentGrid { return b.grid }

// BaseSpec carries everything BaseFromParts needs to reassemble a
// frozen base. Slices are adopted, not copied: they may alias a
// read-only memory mapping, in which case the Base must not outlive it.
type BaseSpec struct {
	Opts       Options
	Shapes     []Shape          // fully formed, ids 0..n-1 in order
	EntryMeta  []EntryMeta      // one per entry
	EntryTrans []geom.Transform // 2 per entry: Norm then Inv
	Verts      []geom.Point     // flattened entry vertices
	EntryOff   []int32          // entry index → first vertex id (len entries+1)
}

// BaseFromParts reassembles a frozen Base from flattened state. The
// result answers every query identically to the Base whose parts were
// serialized: entries are adopted as-is, and only O(n)
// bookkeeping (entry polygons aliasing the vertex array, the shape→entries
// index, the vertices' distance-field cells, block-cost accounting) is
// rebuilt. The climb's range index is not part of it: like a frozen
// Base's, it is built on the first climb (BuildRangeIndex).
func BaseFromParts(s BaseSpec) (*Base, error) {
	ne := len(s.EntryMeta)
	if ne == 0 {
		return nil, fmt.Errorf("core: base parts with no entries")
	}
	if len(s.Shapes) == 0 {
		return nil, fmt.Errorf("core: base parts with no shapes")
	}
	if len(s.EntryTrans) != 2*ne {
		return nil, fmt.Errorf("core: base parts with %d transforms, want %d", len(s.EntryTrans), 2*ne)
	}
	if len(s.EntryOff) != ne+1 {
		return nil, fmt.Errorf("core: base parts entryOff len %d, want %d", len(s.EntryOff), ne+1)
	}
	if s.EntryOff[0] != 0 || int(s.EntryOff[ne]) != len(s.Verts) {
		return nil, fmt.Errorf("core: base parts entryOff does not span the vertex array")
	}
	for id, sh := range s.Shapes {
		if sh.ID != id {
			return nil, fmt.Errorf("core: base parts shape %d carries id %d", id, sh.ID)
		}
	}
	b := &Base{opts: s.Opts.withDefaults(), shapes: s.Shapes}
	b.entries = make([]Entry, ne)
	b.shapeEntries = make([][]int32, len(s.Shapes))
	for i := range b.entries {
		m := s.EntryMeta[i]
		lo, hi := s.EntryOff[i], s.EntryOff[i+1]
		if lo > hi || int(hi) > len(s.Verts) {
			return nil, fmt.Errorf("core: base parts entry %d has invalid vertex range [%d,%d)", i, lo, hi)
		}
		if m.ShapeID < 0 || int(m.ShapeID) >= len(s.Shapes) {
			return nil, fmt.Errorf("core: base parts entry %d references shape %d of %d", i, m.ShapeID, len(s.Shapes))
		}
		b.entries[i] = Entry{
			ShapeID: int(m.ShapeID),
			Copy:    int(m.Copy),
			Poly: geom.Poly{
				Pts:    s.Verts[lo:hi:hi],
				Closed: s.Shapes[m.ShapeID].Poly.Closed,
			},
			Norm:  s.EntryTrans[2*i],
			Inv:   s.EntryTrans[2*i+1],
			DiamI: int(m.DiamI),
			DiamJ: int(m.DiamJ),
		}
		b.shapeEntries[m.ShapeID] = append(b.shapeEntries[m.ShapeID], int32(i))
	}
	for id := range b.shapeEntries {
		if len(b.shapeEntries[id]) == 0 {
			return nil, fmt.Errorf("core: base parts shape %d has no entries", id)
		}
	}
	b.verts = s.Verts
	b.entryOff = s.EntryOff
	b.fieldCells = appendFieldCells(make([]uint16, 0, len(b.verts)), b.verts)
	b.frozen = true
	b.computeEntryCosts()
	return b, nil
}

// pageSize is the block-accounting unit: the VM page, since GSIR3
// serves shards through the page cache and the paper's §4 study judges
// the index by blocks fetched, not CPU.
var pageSize = os.Getpagesize()

// computeEntryCosts models each entry's storage footprint — what a
// snapshot holds for it: its vertices (EVTX), entry meta and the two
// transforms (ENTM, ENTT) — in pages. The match kernel charges this
// cost whenever it evaluates the entry, turning the extstore simulation
// of the paper's §4 block accounting into live counters on the real
// path.
func (b *Base) computeEntryCosts() {
	b.entryCost = make([]int32, len(b.entries))
	for ei := range b.entries {
		nv := int(b.entryOff[ei+1] - b.entryOff[ei])
		bytes := nv*16 + // vertices
			2*32 + // Norm + Inv transforms
			16 // entry meta
		blocks := (bytes + pageSize - 1) / pageSize
		if blocks < 1 {
			blocks = 1
		}
		b.entryCost[ei] = int32(blocks)
	}
}

// blockCost returns the page-granular cost of touching entry ei. Bases
// frozen before block accounting existed (or mid-rebuild dynamic
// overflow entries) charge a flat 1.
func (b *Base) blockCost(ei int32) int {
	if b.entryCost == nil || int(ei) >= len(b.entryCost) {
		return 1
	}
	return int(b.entryCost[ei])
}
