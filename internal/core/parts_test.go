package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/synth"
)

// specInOrder is b's parts as a snapshot would store them with the entries
// in the given order: each entry's meta and its cells.
func specInOrder(b *Base, order []int) BaseSpec {
	spec := BaseSpec{Opts: b.opts, Shapes: b.shapes, Cells: []uint16{}}
	for _, ei := range order {
		spec.EntryMeta = append(spec.EntryMeta, b.meta[ei])
		spec.Cells = append(spec.Cells, b.entryCells(int32(ei))...)
	}
	return spec
}

// TestBaseFromPartsRefusesBrokenLayout pins the checks behind the strided
// block a search reads a shape through (scanShape) and behind deriving a
// copy from its meta (copyPoly): parts whose copies of one shape are
// interleaved with another's, whose copy names a diameter vertex its shape
// does not have or two vertices at one point, whose odd copy is not its
// partner's pair swapped, or whose last copy is dropped are refused with an
// error naming the shape; a cell row one cell short or long, or holding a
// cell id past the field's, is refused too, as are copies of 2³² vertices
// in all, whose int32 offsets would wrap (wrapSpec) — and the same parts
// in the base's own order reassemble, with the cell row or deriving it.
func TestBaseFromPartsRefusesBrokenLayout(t *testing.T) {
	b := NewBase(DefaultOptions())
	for i, p := range testShapes() {
		b = mustAppend(t, b, i, p)
	}
	// Two neighbouring shapes, a and a+1, of at least two copies each.
	a := -1
	for id := 0; id+1 < b.NumShapes() && a < 0; id++ {
		if len(b.EntriesOfShape(id)) >= 2 && len(b.EntriesOfShape(id+1)) >= 2 {
			a = id
		}
	}
	if a < 0 {
		t.Fatal("no two neighbouring shapes of two copies each")
	}
	ea, eb := b.EntriesOfShape(a), b.EntriesOfShape(a+1)
	var own, interleaved []int
	for ei := range b.meta {
		own = append(own, ei)
	}
	interleaved = append(interleaved, own[:ea[0]]...)
	interleaved = append(interleaved, ea[0], eb[0])
	interleaved = append(interleaved, ea[1:]...)
	interleaved = append(interleaved, eb[1:]...)
	interleaved = append(interleaved, own[eb[len(eb)-1]+1:]...)

	if _, err := BaseFromParts(specInOrder(b, own)); err != nil {
		t.Fatalf("the base's own layout: %v", err)
	}
	noCells := specInOrder(b, own)
	noCells.Cells, noCells.DeriveCells = make([]uint16, len(noCells.Cells)), true
	if re, err := BaseFromParts(noCells); err != nil {
		t.Fatalf("the base's own layout without its cell row: %v", err)
	} else if !slices.Equal(re.fieldCells, b.fieldCells) {
		t.Fatal("the base's own layout without its cell row derives other cells")
	}
	edit := func(change func(s *BaseSpec)) BaseSpec {
		s := specInOrder(b, own)
		change(&s)
		return s
	}
	nv := int32(len(b.Shape(a).Poly.Pts))
	shape := fmt.Sprintf("parts shape %d:", a)
	for _, c := range []struct {
		name, want string
		spec       BaseSpec
	}{
		{"interleaved copies", shape, specInOrder(b, interleaved)},
		{"last copy dropped", shape, specInOrder(b, append(own[:ea[len(ea)-1]:ea[len(ea)-1]], own[ea[len(ea)-1]+1:]...))},
		{"a diameter vertex past the shape's", shape, edit(func(s *BaseSpec) { s.EntryMeta[ea[0]].DiamI = nv })},
		{"a negative diameter vertex", shape, edit(func(s *BaseSpec) { s.EntryMeta[ea[1]].DiamJ = -1 })},
		{"a diameter of one vertex", shape, edit(func(s *BaseSpec) {
			m := &s.EntryMeta[ea[0]]
			m.DiamJ = m.DiamI
			s.EntryMeta[ea[1]].DiamI, s.EntryMeta[ea[1]].DiamJ = m.DiamI, m.DiamI
		})},
		{"an odd copy not its partner's pair swapped", shape, edit(func(s *BaseSpec) { s.EntryMeta[ea[1]] = s.EntryMeta[ea[0]] })},
		{"a cell row one short", "cells", edit(func(s *BaseSpec) { s.Cells = s.Cells[:len(s.Cells)-1] })},
		{"a cell row one long", "cells", edit(func(s *BaseSpec) { s.Cells = append(s.Cells, 0) })},
		{"a cell past the field's", "past the field", edit(func(s *BaseSpec) { s.Cells[len(s.Cells)/2] = fieldOff + 1 })},
		{"a derived cell row one short", "cells", edit(func(s *BaseSpec) { s.Cells, s.DeriveCells = s.Cells[:len(s.Cells)-1], true })},
		{"copies of more vertices than an int32 offset counts", "more than", wrapSpec()},
	} {
		_, err := BaseFromParts(c.spec)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: BaseFromParts returned %v, want an error with %q", c.name, err, c.want)
		}
	}
}

// wrapSpec is parts whose every check but the vertex total's passes: one
// shape of 2¹⁷ vertices whose first two lie a unit apart and the rest at a
// point between them, and 2¹⁵ copies that alternate its diameter (0, 1)
// and (1, 0) — 2³² vertices in all, which wrap an int32 offset to 0, so an
// empty cell row would pass for theirs.
func wrapSpec() BaseSpec {
	pts := make([]geom.Point, 1<<17)
	pts[1] = geom.Pt(1, 0)
	for i := 2; i < len(pts); i++ {
		pts[i] = geom.Pt(0.5, 0.1)
	}
	spec := BaseSpec{Opts: DefaultOptions(), Shapes: []Shape{{Poly: geom.Poly{Pts: pts, Closed: true}}}, Cells: []uint16{}}
	for c := int32(0); c < 1<<15; c++ {
		spec.EntryMeta = append(spec.EntryMeta, EntryMeta{Copy: c, DiamI: c % 2, DiamJ: 1 - c%2})
	}
	if n := int64(len(spec.EntryMeta)) * int64(len(pts)); n <= math.MaxInt32 || int32(n) != 0 {
		panic("wrapSpec does not wrap")
	}
	return spec
}

// TestDemoCopyIsOneBlock pins the block accounting to what a snapshot
// holds per copy — 2 B of cell per vertex and 16 B of meta — and the demo
// base to one page a copy under it, so Stats.BlockReads of a demo search
// counts the copies it read: every copy of the 200-image demo base costs
// one block, and the base's total is its copy count.
func TestDemoCopyIsOneBlock(t *testing.T) {
	if got, want := entryBlocks((pageSize-16)/2), int32(1); got != want {
		t.Fatalf("a copy of %d vertices costs %d blocks, want %d", (pageSize-16)/2, got, want)
	}
	if got := entryBlocks((pageSize-16)/2 + 1); got != 2 {
		t.Fatalf("a copy of %d vertices costs %d blocks, want 2", (pageSize-16)/2+1, got)
	}
	b := NewBase(DefaultOptions())
	for _, img := range synth.GenerateBase(synth.PaperSpec(0.02, 1)) {
		b = mustAppend(t, b, img.ID, img.Shapes...)
	}
	for ei, c := range b.entryCost {
		if c != 1 {
			t.Fatalf("demo-200 copy %d of %d vertices costs %d blocks", ei, b.entryVertexCount(int32(ei)), c)
		}
	}
	if b.totalCost != b.NumEntries() {
		t.Fatalf("demo-200's %d copies cost %d blocks", b.NumEntries(), b.totalCost)
	}
}

// TestFieldLayoutPinned pins the cell grid a persisted cell row is read
// under: fieldCell's ids at the box's corners, the lune's ends and points
// between, and FieldLayout, the stamp a snapshot records of that grid. A
// change that moves a cell must change the stamp — FieldLayout follows the
// grid's constants by itself, and fieldCellRule must be bumped for a
// change to fieldCell's rule alone — so that a row written under the old
// grid is derived on load, not adopted; then both pins here move with it.
func TestFieldLayoutPinned(t *testing.T) {
	for _, c := range []struct {
		p    geom.Point
		want uint16
	}{
		{geom.Pt(-0.25, -1.125), 0},
		{geom.Pt(0.03125, -0.03125), 1689},
		{geom.Pt(0, 0), 1736},
		{geom.Pt(1, 0), 1768},
		{geom.Pt(0.5, 0.3), 2184},
		{geom.Pt(1.2499, 1.1249), 3455},
		{geom.Pt(1.25, 0), fieldOff},
	} {
		if got := fieldCell(c.p); got != c.want {
			t.Errorf("fieldCell(%v) = %d, pinned %d", c.p, got, c.want)
		}
	}
	if FieldLayout != 0x73b01c0f {
		t.Errorf("FieldLayout = %#x, pinned 0x73b01c0f", FieldLayout)
	}
}
