package core

import (
	"context"
	"math"
	"sort"

	"repro/internal/geom"
)

// This file holds the bounded scan (DESIGN.md §4.9, "The seeded search is
// a scan"): the one loop behind every serving search of a frozen base and
// of the live delta, under whatever bound the request holds — none
// included.

// scanShape is one shape as the bounded evaluators walk it: its normalized
// copies are entries[idx[0]], entries[idx[1]], … — the base-wide arrays of
// a frozen Base — or, with idx nil, all of entries in order (a live
// shape's own). Entry ei's vertices fall in the distance-field cells
// cells[off[ei]:off[ei+1]].
type scanShape struct {
	id      int
	entries []Entry
	cells   []uint16
	off     []int32
	idx     []int32
	cost    []int32 // per-entry block cost; nil where storage is not block-accounted
}

func (s *scanShape) copies() int {
	if s.idx != nil {
		return len(s.idx)
	}
	return len(s.entries)
}

// entry returns the index into s.entries of the shape's c-th copy.
func (s *scanShape) entry(c int) int {
	if s.idx != nil {
		return int(s.idx[c])
	}
	return c
}

// copyCells is the field cells of entry ei's vertices, one per vertex.
func (s *scanShape) copyCells(ei int) []uint16 {
	return s.cells[s.off[ei]:s.off[ei+1]]
}

// floor is the field's lower bound on the shape's distance, the smallest
// of its copies' (fieldFloor): above a cutoff, it proves every copy — the
// shape — strictly outside it.
func (s *scanShape) floor(f *distField) float64 {
	floor := math.Inf(1)
	for c, n := 0, s.copies(); c < n; c++ {
		cells := s.copyCells(s.entry(c))
		floor = min(floor, fieldFloor(f.sum(cells), len(cells)))
	}
	return floor
}

// nearestStack is how many copies' field sums nearest keeps on its stack
// (the 200-image paper base: median 16 copies a shape, at most 42); a shape
// with more α-diameter copies than that pays one allocation.
const nearestStack = 64

// nearest evaluates the shape's copies under cutoff and the best so far.
// It first sums the field over every copy, each sum stopping once it
// proves the copy strictly above cutoff; when that turns every copy away
// the shape is done, in index order, without a floor, a division or a look
// at an entry. Otherwise it goes best-first: the surviving copy with the
// lowest floor goes to the evaluator first — the likeliest to set a best
// that the others' sums then fail against in one comparison — and the rest
// follow in index order, a copy the field rejects under min(cutoff, best)
// skipped before its entry is touched. It returns the smallest distance
// found, the entry (index into s.entries) of the lowest copy realizing it
// — -1 when every copy was proven strictly above cutoff — how many copies
// reached the exact evaluator, and the block cost of the copies read (all
// of them: a reject reads the copy it rejects). A distance ≤ cutoff is the
// shape's exact distance. onAccess, when set, sees every entry read.
func (s *scanShape) nearest(pq *PreparedQuery, cutoff float64, onAccess func(entryID int)) (best float64, bestEi, scored, blocks int) {
	f, n := pq.distField(), s.copies()
	var stack [nearestStack]uint64
	sums := stack[:]
	if n > len(sums) {
		sums = make([]uint64, n)
	}
	first, lowest, rate := -1, math.Inf(1), fieldRate(cutoff)
	for c := 0; c < n; c++ {
		cells := s.copyCells(s.entry(c))
		t := fieldTrigger(len(cells), rate)
		if sums[c] = f.sumPast(cells, t); sums[c] > t {
			continue // a partial sum, above the trigger of every cutoff ≤ this one
		}
		// A survivor's sum is full: its floor is the one a full pass takes.
		if fl := fieldFloor(sums[c], len(cells)); first < 0 || fl < lowest {
			first, lowest = c, fl
		}
	}
	if first < 0 {
		for c := 0; c < n; c++ {
			ei := s.entry(c)
			if s.cost != nil {
				blocks += int(s.cost[ei])
			}
			if onAccess != nil {
				onAccess(ei)
			}
		}
		return math.Inf(1), -1, 0, blocks
	}
	best, bestEi = math.Inf(1), -1
	// The lowest-floor copy, then copies 0…n-1 without it.
	for v := -1; v < n; v++ {
		c := v
		if v < 0 {
			c = first
		} else if v == first {
			continue
		}
		ei := s.entry(c)
		if s.cost != nil {
			blocks += int(s.cost[ei])
		}
		if onAccess != nil {
			onAccess(ei)
		}
		cut := min(cutoff, best)
		if fieldRejects(sums[c], int(s.off[ei+1]-s.off[ei]), cut) {
			continue
		}
		dv, ok, reached := pq.distWithin(s.entries[ei].Poly, sums[c], cut)
		if reached {
			scored++
		}
		// The lowest copy on ties, whatever order the copies came in.
		if ok && (dv < best || dv == best && ei < bestEi) {
			best, bestEi = dv, ei
		}
	}
	return best, bestEi, scored, blocks
}

// boundedScan retrieves the k nearest of shapeAt(0..n-1) — fewer when
// fewer are live or the shared bound proves the rest outside the merged
// result — sorted by (DistVertex, ShapeID), EntryID the index into the
// shape's entries. Shapes are visited in index order, each copy through
// the one bounded evaluator under the tightest proven cutoff: its shape's
// best so far, the running k-th, o.Shared. Every reject is strict, so a
// shape tying the cutoff survives and the matches are byte-identical to
// the exhaustive scan's wherever the bound is admissible; with o.Publish
// the scan's own k-th best tightens o.Shared (it exists only once k shapes
// are in, so a part short of k never publishes). Shapes in o.Dead are
// skipped; a shape in o.Scored is not scored again — it enters with the
// distance and entry recorded there if that is within the cutoff, exactly
// as its own evaluation would have decided. DistContinuous is filled for
// the returned matches when continuous is set.
//
// Of the stats, VerticesCounted is the copies scanned, Candidates those
// that reached the exact evaluator, BlocksRead the block cost of both the
// scan and the final re-reads. ctx is checked every 32 shapes — each costs
// a table load per stored vertex and a few boundary probes, so the
// cancellation latency stays well under a millisecond; a cancelled scan
// returns ctx's error and no matches.
func boundedScan(ctx context.Context, pq *PreparedQuery, k int, o MatchOpts, n int, shapeAt func(i int) scanShape, samples int, continuous bool) ([]Match, Stats, error) {
	stats := Stats{Converged: true}
	type hit struct {
		m  Match
		at int // shapeAt index
	}
	hits := make([]hit, 0, min(max(k, 0), 8)) // as NewDistTopK: the usual k without regrowth
	topk := NewDistTopK(k)
	for i := 0; i < n; i++ {
		if i&31 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, stats, err
			}
		}
		s := shapeAt(i)
		if o.Dead[s.id] {
			continue
		}
		cutoff := topk.Kth()
		if o.Shared != nil {
			if sv := o.Shared.Load(); sv < cutoff {
				cutoff = sv
			}
		}
		m, known := o.Scored[s.id]
		if !known {
			best, ei, scored, blocks := s.nearest(pq, cutoff, o.onAccess)
			m = Match{ShapeID: s.id, EntryID: ei, DistVertex: best}
			stats.VerticesCounted += s.copies()
			stats.Candidates += scored
			stats.BlocksRead += blocks
		}
		if m.EntryID < 0 || m.DistVertex > cutoff {
			continue // proven strictly outside the merged result
		}
		hits = append(hits, hit{m, i})
		topk.Add(m.DistVertex)
		if o.Publish && o.Shared != nil {
			if kv := topk.Kth(); !math.IsInf(kv, 1) {
				o.Shared.Tighten(kv)
			}
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].m.DistVertex != hits[j].m.DistVertex {
			return hits[i].m.DistVertex < hits[j].m.DistVertex
		}
		return hits[i].m.ShapeID < hits[j].m.ShapeID
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	out := make([]Match, len(hits))
	var resample []geom.Point
	for i, h := range hits {
		out[i] = h.m
		if !continuous {
			continue
		}
		s, ei := shapeAt(h.at), h.m.EntryID
		if o.onAccess != nil {
			o.onAccess(ei)
		}
		if s.cost != nil {
			stats.BlocksRead += int(s.cost[ei])
		}
		out[i].DistContinuous = pq.distContinuous(s.entries[ei].Poly, samples, &resample)
	}
	return out, stats, nil
}

// DistTopK tracks the k-th smallest of a distance stream with a size-
// bounded max-heap: Kth is +Inf until k distances have been seen, so the
// cutoff it feeds never prunes while the top-k is under-filled. It is the
// tracker of every pass that adds each shape once (the bounded scan, the
// hash-seed pass, candidate scoring).
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
