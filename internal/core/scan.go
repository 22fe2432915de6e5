package core

import (
	"context"
	"math"

	"repro/internal/geom"
)

// This file holds the per-shape loops of every serving search (DESIGN.md
// §4.9): the one walk over a base's live shapes, which runs the floor pass
// of the exact search ("The exact search is two passes") and the
// fixed-cutoff scan behind the sketch tables and SimilarShapes, and the
// bounded evaluation of one shape.

// scanShape is one shape as the bounded evaluators walk it: its normalized
// copies are entries, the c-th reported as entry first+c with meta[c], and
// every copy has the shape's nv vertices, so copy c's fall in the
// distance-field cells block[c·nv:(c+1)·nv] — one strided block, a
// subslice of the base's cell array.
type scanShape struct {
	id    int
	shape geom.Poly
	meta  []EntryMeta
	block []uint16
	nv    int
	first int
	cost  int32 // each copy's block cost (entryBlocks of nv)
}

// copyCells is the field cells of copy c's vertices, one per vertex.
func (s *scanShape) copyCells(c int) []uint16 {
	return s.block[c*s.nv : (c+1)*s.nv]
}

// copyStack is how many vertices of a copy a search derives on its stack
// (every served base stores copies of at most 21 vertices); a copy with
// more pays one allocation.
const copyStack = 32

// copyPoly is copy c's normalized polygon, derived into dst's storage
// (copyOf).
func (s *scanShape) copyPoly(c int, dst []geom.Point) geom.Poly {
	return copyOf(s.shape, s.meta[c], dst[:0])
}

// eachLive hands visit the id of every shape of the base not in dead, in
// id order: the walk of the floor pass and the fixed-cutoff scan. ctx is
// checked every 32 shapes — each costs at most a table load per stored vertex
// and a few boundary probes, so the cancellation latency stays well under a
// millisecond; a cancelled walk returns ctx's error.
func (b *Base) eachLive(ctx context.Context, dead map[int]bool, visit func(id int)) error {
	for id := range b.shapes {
		if id&31 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if !dead[id] {
			visit(id)
		}
	}
	return nil
}

// Floors is pass 1 of the exact search (DESIGN.md §4.9, "The exact search
// is two passes") over the base: visit sees every shape not in dead, in id
// order, with its floor (ShapeFloor), and Floors returns the copies floored
// and their block cost — the one charge the exact search makes for a copy
// it does not re-read.
func (b *Base) Floors(ctx context.Context, pq *PreparedQuery, dead map[int]bool, visit func(id int, floor float64)) (copies, blocks int, err error) {
	f := pq.distField()
	if err := b.eachLive(ctx, dead, func(id int) { visit(id, b.shapeFloor(f, id)) }); err != nil {
		return 0, 0, err
	}
	copies, blocks = len(b.meta), b.totalCost
	for id := range dead {
		for ei := b.shapeOff[id]; ei < b.shapeOff[id+1]; ei++ {
			copies, blocks = copies-1, blocks-b.blockCost(ei)
		}
	}
	return copies, blocks, nil
}

// Within is the fixed-cutoff scan (DESIGN.md §4.9, "The fixed-cutoff
// scan") over the base: every shape not in dead goes through nearest under
// cut, and visit sees, in id order, each whose distance is ≤ cut, EntryID
// the lowest copy realizing it (what Continuous reads). Within returns the
// copies scanned and their block cost; a cancelled scan returns ctx's error
// with the copies scanned so far. The query's evaluation counter, when
// attached, is charged with the copies that reached the exact evaluator.
func (b *Base) Within(ctx context.Context, pq *PreparedQuery, dead map[int]bool, cut float64, visit func(Match)) (copies, blocks int, err error) {
	err = b.eachLive(ctx, dead, func(id int) {
		s := b.scanShape(id)
		best, ei, _, cost := s.nearest(pq, cut, nil)
		copies, blocks = copies+len(s.meta), blocks+cost
		if ei >= 0 && best <= cut {
			visit(Match{ShapeID: id, EntryID: ei, DistVertex: best})
		}
	})
	return copies, blocks, err
}

// nearestStack is how many copies' field sums nearest keeps on its stack
// (the 200-image paper base: median 16 copies a shape, at most 42); a shape
// with more α-diameter copies than that pays one allocation.
const nearestStack = 64

// nearest evaluates the shape's copies under cutoff and the best so far.
// It first sums the field over every copy, one read of copy 2k's cells for
// copies 2k and 2k+1 (sumPast), each read stopping once it proves both
// strictly above cutoff; when that turns every copy away
// the shape is done, in index order, without a floor, a division or a look
// at an entry. Otherwise it goes best-first: the surviving copy with the
// lowest floor goes to the evaluator first — the likeliest to set a best
// that the others' sums then fail against in one comparison — and the rest
// follow in index order, a copy the field rejects under min(cutoff, best)
// skipped before its entry is touched. It returns the smallest distance
// found, the entry (first + its index) of the lowest copy realizing it
// — -1 when every copy was proven strictly above cutoff — how many copies
// reached the exact evaluator, and the block cost of the copies read (all
// of them: a reject reads the copy it rejects). A distance ≤ cutoff is the
// shape's exact distance. onAccess, when set, sees every entry read. The
// query's evaluation counter, when attached, is charged with scored.
func (s *scanShape) nearest(pq *PreparedQuery, cutoff float64, onAccess func(entryID int)) (best float64, bestEi, scored, blocks int) {
	f, n := pq.distField(), len(s.meta)
	var stack [nearestStack]uint64
	sums := stack[:]
	if n > len(sums) {
		sums = make([]uint64, n)
	}
	lead, lowest, t := -1, math.Inf(1), fieldTrigger(s.nv, fieldRate(cutoff))
	for c := 0; c < n; c++ {
		if c%2 == 0 {
			sums[c], sums[c+1] = f.sumPast(s.copyCells(c), t)
		}
		if sums[c] > t {
			continue // a partial sum, above the trigger of every cutoff ≤ this one
		}
		// A survivor's sum is full: its floor is the one a full pass takes.
		if fl := fieldFloor(sums[c], s.nv); lead < 0 || fl < lowest {
			lead, lowest = c, fl
		}
	}
	if lead < 0 {
		for c := 0; c < n; c++ {
			s.access(c, &blocks, onAccess)
		}
		return math.Inf(1), -1, 0, blocks
	}
	best, bestEi = math.Inf(1), -1
	var buf [copyStack]geom.Point
	// The lowest-floor copy, then copies 0…n-1 without it.
	for v := -1; v < n; v++ {
		c := v
		if v < 0 {
			c = lead
		} else if v == lead {
			continue
		}
		s.access(c, &blocks, onAccess)
		cut := min(cutoff, best)
		if fieldRejects(sums[c], s.nv, cut) {
			continue
		}
		dv, ok, reached := pq.distWithin(s.copyPoly(c, buf[:0]), s.copyCells(c), sums[c], cut)
		if reached {
			scored++
		}
		// The lowest copy on ties, whatever order the copies came in.
		if ei := s.first + c; ok && (dv < best || dv == best && ei < bestEi) {
			best, bestEi = dv, ei
		}
	}
	if pq.evaluated != nil {
		pq.evaluated.Add(int64(scored))
	}
	return best, bestEi, scored, blocks
}

// access charges copy c's read: its block cost to *blocks, its entry to
// onAccess when set.
func (s *scanShape) access(c int, blocks *int, onAccess func(entryID int)) {
	*blocks += int(s.cost)
	if onAccess != nil {
		onAccess(s.first + c)
	}
}

// DistTopK tracks the k-th smallest of a distance stream with a size-
// bounded max-heap: Kth is +Inf until k distances have been seen, so the
// cutoff it feeds never prunes while the top-k is under-filled. It is the
// tracker of the refine pass, which adds each shape once.
type DistTopK struct {
	k int
	h []float64 // max-heap
}

// NewDistTopK presizes the heap for the k a request usually brings, so
// filling it does not reallocate its way up.
func NewDistTopK(k int) *DistTopK {
	return &DistTopK{k: k, h: make([]float64, 0, min(max(k, 0), 8))}
}

func (t *DistTopK) Kth() float64 {
	if t.k <= 0 || len(t.h) < t.k {
		return math.Inf(1)
	}
	return t.h[0]
}

func (t *DistTopK) Add(d float64) {
	if len(t.h) < t.k {
		t.h = append(t.h, d)
		for i := len(t.h) - 1; i > 0; {
			p := (i - 1) / 2
			if t.h[p] >= t.h[i] {
				break
			}
			t.h[p], t.h[i] = t.h[i], t.h[p]
			i = p
		}
		return
	}
	if t.k == 0 || d >= t.h[0] {
		return
	}
	t.h[0] = d
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(t.h) && t.h[l] > t.h[big] {
			big = l
		}
		if r < len(t.h) && t.h[r] > t.h[big] {
			big = r
		}
		if big == i {
			break
		}
		t.h[i], t.h[big] = t.h[big], t.h[i]
		i = big
	}
}
