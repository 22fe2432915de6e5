package core

import (
	"context"
	"fmt"

	"repro/internal/geom"
)

// Dynamic is the mutable part of a live base — the dynamic-environment
// capability the paper's related work ([5, 7]) highlights for similarity
// search: an overflow area holding the shapes inserted since the last
// compaction, each as its normalized copies with the distance-field cells
// derived at insert. It has no index: every search is a linear walk over
// the live shapes — Floors for the exact search's pass 1, Within for a
// fixed cutoff (DESIGN.md §4.12). Folding the overflow into a frozen,
// indexed Base — the §4 "rehashing" moment — is the owner's job
// (compaction, internal/ingest).
type Dynamic struct {
	opts Options

	// overflow holds the live shapes in no particular order (Delete moves
	// the last one into the hole); slot maps a shape id — stable, never
	// reused — to its index there, -1 once deleted.
	overflow []overflowShape
	slot     []int
	copies   int // normalized copies across the live shapes
}

// overflowShape is one live shape: its normalized copies and the
// distance-field cells of their vertices, copy after copy — every copy has
// the shape's vertex count, so the cells are one strided block.
type overflowShape struct {
	shape   Shape
	entries []Entry
	cells   []uint16
}

// NewDynamic creates an empty dynamic base.
func NewDynamic(opts Options) *Dynamic {
	return &Dynamic{opts: opts.withDefaults()}
}

// Len returns the number of live shapes.
func (d *Dynamic) Len() int { return len(d.overflow) }

// NumEntries returns the number of normalized copies across live shapes.
func (d *Dynamic) NumEntries() int { return d.copies }

// Insert adds a shape and returns its stable id.
func (d *Dynamic) Insert(image int, p geom.Poly) (int, error) {
	if err := p.Validate(); err != nil {
		return 0, fmt.Errorf("core: invalid shape: %w", err)
	}
	entries, err := Normalize(p, d.opts.Alpha)
	if err != nil {
		return 0, err
	}
	id := len(d.slot)
	// Derive the copies' field cells once at insert: every query scans
	// them until the shape is compacted away.
	cells := make([]uint16, 0, len(entries)*len(p.Pts))
	for i := range entries {
		cells = appendFieldCells(cells, entries[i].Poly.Pts)
	}
	d.slot = append(d.slot, len(d.overflow))
	d.overflow = append(d.overflow, overflowShape{
		shape:   Shape{ID: id, Image: image, Poly: p.Clone()},
		entries: entries,
		cells:   cells,
	})
	d.copies += len(entries)
	return id, nil
}

// Delete removes a shape in O(1): the last overflow shape takes its
// place. Scan order does not reach the answer — matches are sorted by
// (distance, id).
func (d *Dynamic) Delete(id int) error {
	if id < 0 || id >= len(d.slot) {
		return fmt.Errorf("core: shape id %d out of range", id)
	}
	i := d.slot[id]
	if i < 0 {
		return fmt.Errorf("core: shape %d already deleted", id)
	}
	last := len(d.overflow) - 1
	d.copies -= len(d.overflow[i].entries)
	d.overflow[i] = d.overflow[last]
	d.slot[d.overflow[i].shape.ID] = i
	d.slot[id] = -1
	d.overflow[last] = overflowShape{}
	d.overflow = d.overflow[:last]
	return nil
}

// live returns a live shape's overflow record.
func (d *Dynamic) live(id int) (*overflowShape, error) {
	if id < 0 || id >= len(d.slot) || d.slot[id] < 0 {
		return nil, fmt.Errorf("core: shape %d not found", id)
	}
	return &d.overflow[d.slot[id]], nil
}

// Shape returns a live shape by id.
func (d *Dynamic) Shape(id int) (Shape, error) {
	s, err := d.live(id)
	if err != nil {
		return Shape{}, err
	}
	return s.shape, nil
}

// Within is Base.Within over the live shapes, in no particular order,
// EntryID the ordinal of the lowest copy realizing the distance (what
// Continuous reads); it returns the copies scanned.
func (d *Dynamic) Within(ctx context.Context, pq *PreparedQuery, cut float64, visit func(Match)) (int, error) {
	copies, _, err := within(ctx, pq, len(d.overflow), d.shapeAt, nil, cut, visit)
	return copies, err
}

// shapeAt is overflow shape i as the bounded evaluators walk it.
func (d *Dynamic) shapeAt(i int) scanShape { return d.overflow[i].scan() }

// scan is the shape as the bounded evaluators walk it.
func (s *overflowShape) scan() scanShape {
	return scanShape{id: s.shape.ID, entries: s.entries, block: s.cells, nv: len(s.entries[0].Poly.Pts)}
}

// ShapeDistancePreparedBounded scores one live shape against a prepared
// query with an admissible cutoff, mirroring Base's method of the same
// name: the distance is bit-identical to the one a frozen Base holding the
// same shape would produce (the cutoff only skips copies that provably
// cannot improve the minimum), and EntryID is the ordinal of the lowest
// copy realizing it (-1 when every copy is proven above cutoff). This is
// what lets a mutable delta shard take part in the exact search and the
// hash-candidate paths with the same distance bytes as a freshly frozen
// engine.
func (d *Dynamic) ShapeDistancePreparedBounded(id int, pq *PreparedQuery, cutoff float64) (Match, bool, error) {
	s, err := d.live(id)
	if err != nil {
		return Match{}, false, err
	}
	sc := s.scan()
	best, ei, _, _ := sc.nearest(pq, cutoff, nil)
	return Match{ShapeID: id, EntryID: ei, DistVertex: best}, best <= cutoff, nil
}

// Floors is Base.Floors over the live shapes, in no particular order; it
// returns the copies floored.
func (d *Dynamic) Floors(ctx context.Context, pq *PreparedQuery, visit func(id int, floor float64)) (int, error) {
	err := floorAll(ctx, pq, len(d.overflow), d.shapeAt, nil, visit)
	return d.copies, err
}

// Continuous is Base.Continuous for copy c of a live shape — the EntryID
// ShapeDistancePreparedBounded returned.
func (d *Dynamic) Continuous(id, c int, pq *PreparedQuery) (float64, error) {
	s, err := d.live(id)
	if err != nil {
		return 0, err
	}
	var resample []geom.Point
	return pq.distContinuous(s.entries[c].Poly, d.opts.Samples, &resample), nil
}

// ShapeFloor is Base.ShapeFloor for a live shape; 0 — no claim — for one
// that is not (deleted since it was listed).
func (d *Dynamic) ShapeFloor(id int, pq *PreparedQuery) float64 {
	s, err := d.live(id)
	if err != nil {
		return 0
	}
	sc := s.scan()
	return sc.floor(pq.distField())
}
