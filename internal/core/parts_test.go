package core

import (
	"fmt"
	"strings"
	"testing"
)

// specInOrder is b's parts as a snapshot would store them with the entries
// in the given order, entry order[i]'s vertices cut to keep[i] where keep
// is set.
func specInOrder(b *Base, order []int, keep map[int]int) BaseSpec {
	spec := BaseSpec{Opts: b.opts, Shapes: b.shapes, EntryOff: []int32{0}}
	for i, ei := range order {
		e := b.entries[ei]
		pts := e.Poly.Pts
		if n, ok := keep[i]; ok {
			pts = pts[:n]
		}
		spec.Verts = append(spec.Verts, pts...)
		spec.EntryOff = append(spec.EntryOff, int32(len(spec.Verts)))
		spec.EntryMeta = append(spec.EntryMeta, entryMeta(e))
		spec.EntryTrans = append(spec.EntryTrans, e.Norm, e.Inv)
	}
	return spec
}

// TestBaseFromPartsRefusesBrokenLayout pins the check behind the strided
// block a search reads a shape through (scanShape): parts whose copies of
// one shape are interleaved with another's, or whose copies of one shape
// differ in vertex count, are refused with an error naming the shape — and
// the same parts in the base's own order reassemble.
func TestBaseFromPartsRefusesBrokenLayout(t *testing.T) {
	b := NewBase(DefaultOptions())
	for i, p := range testShapes() {
		if _, err := b.AddShape(i, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Freeze(); err != nil {
		t.Fatal(err)
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
	for ei := range b.entries {
		own = append(own, ei)
	}
	interleaved = append(interleaved, own[:ea[0]]...)
	interleaved = append(interleaved, ea[0], eb[0])
	interleaved = append(interleaved, ea[1:]...)
	interleaved = append(interleaved, eb[1:]...)
	interleaved = append(interleaved, own[eb[len(eb)-1]+1:]...)

	if _, err := BaseFromParts(specInOrder(b, own, nil)); err != nil {
		t.Fatalf("the base's own layout: %v", err)
	}
	for _, c := range []struct {
		name string
		spec BaseSpec
	}{
		{"interleaved copies", specInOrder(b, interleaved, nil)},
		{"copies of unequal vertex counts", specInOrder(b, own, map[int]int{ea[1]: len(b.entries[ea[1]].Poly.Pts) - 1})},
	} {
		_, err := BaseFromParts(c.spec)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("parts shape %d:", a)) {
			t.Fatalf("%s: BaseFromParts returned %v, want an error naming shape %d", c.name, err, a)
		}
	}
}
