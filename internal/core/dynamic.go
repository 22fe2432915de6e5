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
// derived at insert. It has no index; MatchPrepared answers with one linear
// scan whose every evaluation runs under the cutoffs of a frozen part's
// search (DESIGN.md §4.12). Folding the overflow into a frozen, indexed
// Base — the §4 "rehashing" moment — is the owner's job (compaction,
// internal/ingest).
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
// distance-field cells of copy i's vertices, cells[off[i]:off[i+1]].
type overflowShape struct {
	shape   Shape
	entries []Entry
	cells   []uint16
	off     []int32
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
	off := make([]int32, len(entries)+1)
	var cells []uint16
	for i := range entries {
		cells = appendFieldCells(cells, entries[i].Poly.Pts)
		off[i+1] = int32(len(cells))
	}
	d.slot = append(d.slot, len(d.overflow))
	d.overflow = append(d.overflow, overflowShape{
		shape:   Shape{ID: id, Image: image, Poly: p.Clone()},
		entries: entries,
		cells:   cells,
		off:     off,
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

// MatchPrepared retrieves the k live shapes nearest the prepared query —
// fewer when fewer are live or the shared bound proves the rest outside
// the merged result — sorted by (DistVertex, ShapeID), under the part
// contract of Base.MatchPrepared: it is the bounded scan a frozen Base
// runs (boundedScan), over the overflow, under whatever bound o.Shared
// holds — none included. Stats.Candidates counts
// the copies that reached the exact evaluator — the tighter the cutoff,
// the fewer. EntryID is -(copy+1), the negated ordinal of the lowest copy
// realizing the distance (negative, so it cannot collide with a frozen
// entry id). DistContinuous is filled as Base.MatchPrepared fills it. A
// cancelled scan returns ctx's error and no matches.
func (d *Dynamic) MatchPrepared(ctx context.Context, pq *PreparedQuery, k int, o MatchOpts, continuous bool) ([]Match, Stats, error) {
	if k <= 0 {
		return nil, Stats{Converged: true}, fmt.Errorf("core: k must be positive, got %d", k)
	}
	out, stats, err := boundedScan(ctx, pq, k, o, len(d.overflow), func(i int) scanShape {
		return d.overflow[i].scan()
	}, d.opts.Samples, continuous)
	for i := range out {
		out[i].EntryID = -(out[i].EntryID + 1)
	}
	return out, stats, err
}

// scan is the shape as the bounded evaluators walk it.
func (s *overflowShape) scan() scanShape {
	return scanShape{id: s.shape.ID, entries: s.entries, cells: s.cells, off: s.off}
}

// ShapeDistancePreparedBounded scores one live shape against a prepared
// query with an admissible cutoff, mirroring Base's method of the same
// name: the returned value is bit-identical to the one a frozen Base
// holding the same shape would produce (the cutoff only skips copies
// that provably cannot improve the minimum). This is what lets a mutable
// delta shard participate in the hash-candidate paths with the same
// distance bytes as a freshly frozen engine.
func (d *Dynamic) ShapeDistancePreparedBounded(id int, pq *PreparedQuery, cutoff float64) (float64, bool, error) {
	s, err := d.live(id)
	if err != nil {
		return 0, false, err
	}
	sc := s.scan()
	best, _, _, _ := sc.nearest(pq, cutoff, nil)
	return best, best <= cutoff, nil
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
