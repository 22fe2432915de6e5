package core

import (
	"math"
	"slices"

	"repro/internal/geom"
)

// This file holds the per-query working state of the fattening search
// (§2.5) in a form that can be recycled across queries. A base version
// serves every query with the same entry/vertex population, so the
// O(#entries + #vertices) arrays the algorithm needs are allocated once
// per worker goroutine and handed out through a sync.Pool; validity is
// tracked with epoch stamps so a reset costs O(1) instead of a clear.

// matchScratch is the recyclable working state of one climb() call.
// Every per-entry and per-vertex array is paired with a stamp array: a
// slot is live only when its stamp equals the current epoch, so bumping
// the epoch invalidates the whole scratch at once. Steady-state matching
// therefore allocates O(touched entries), not O(base size).
type matchScratch struct {
	epoch uint32

	// Per-entry state of the envelope counters (step 3).
	counters   []int32   // vertices counted inside the envelope
	distSum    []float64 // exact boundary distances of counted vertices
	entryStamp []uint32  // counters/distSum validity

	// Per-entry "resolved" flag: the entry needs no further work this
	// query. Its exact distance is known, or it is proven irrelevant —
	// strictly above every cutoff that could make it matter (current kth,
	// its shape's best). All cutoffs are monotonically non-increasing over
	// a query, so the ruling is permanent and the entry is skipped by every
	// later pass.
	doneStamp []uint32

	// Per-vertex "already counted" flag (each vertex enters the counters
	// exactly once, in its home iteration).
	vertStamp []uint32

	// Entries touched by the query — a counted vertex, or any reported one
	// in an entry-first iteration — in discovery order until
	// touchedInOrder sorts them.
	touched []int32

	// Best-first ordering buffers of the per-iteration bounds pass
	// (entries paired with their lower bounds, sorted ascending).
	orderEnt []int32
	orderLB  []float64

	// Resample buffer for the final continuous-measure fill.
	resample []geom.Point
}

func newMatchScratch(entries, verts int) *matchScratch {
	return &matchScratch{
		counters:   make([]int32, entries),
		distSum:    make([]float64, entries),
		entryStamp: make([]uint32, entries),
		doneStamp:  make([]uint32, entries),
		vertStamp:  make([]uint32, verts),
		touched:    make([]int32, 0, 256),
	}
}

// reset invalidates all state in O(1) by advancing the epoch. On the
// (rare) wraparound it clears the stamp arrays so stale stamps from
// 2^32 queries ago cannot alias the new epoch.
func (s *matchScratch) reset() {
	s.epoch++
	if s.epoch == 0 {
		clearU32(s.entryStamp)
		clearU32(s.doneStamp)
		clearU32(s.vertStamp)
		s.epoch = 1
	}
	s.touched = s.touched[:0]
}

func clearU32(a []uint32) {
	for i := range a {
		a[i] = 0
	}
}

// count returns the live counter of entry ei (0 when untouched this
// query).
func (s *matchScratch) count(ei int32) int32 {
	if s.entryStamp[ei] != s.epoch {
		return 0
	}
	return s.counters[ei]
}

// sum returns the live distance sum of entry ei.
func (s *matchScratch) sum(ei int32) float64 {
	if s.entryStamp[ei] != s.epoch {
		return 0
	}
	return s.distSum[ei]
}

// touch records entry ei as touched by this query and reports whether
// it was not yet: a first touch zeroes its counters and appends it to
// touched.
func (s *matchScratch) touch(ei int32) bool {
	if s.entryStamp[ei] == s.epoch {
		return false
	}
	s.entryStamp[ei] = s.epoch
	s.counters[ei] = 0
	s.distSum[ei] = 0
	s.touched = append(s.touched, ei)
	return true
}

// addVertex folds one counted vertex at boundary distance d into entry
// ei's counters and returns the new counter value.
func (s *matchScratch) addVertex(ei int32, d float64) int32 {
	s.touch(ei)
	s.counters[ei]++
	s.distSum[ei] += d
	return s.counters[ei]
}

// touchedInOrder sorts touched by entry index and returns it. When most
// of the base is touched, reading the stamps off in order is cheaper than
// sorting the list.
func (s *matchScratch) touchedInOrder() []int32 {
	if len(s.touched) >= len(s.entryStamp)/8 {
		s.touched = s.touched[:0]
		for ei, st := range s.entryStamp {
			if st == s.epoch {
				s.touched = append(s.touched, int32(ei))
			}
		}
	} else {
		slices.Sort(s.touched)
	}
	return s.touched
}

func (s *matchScratch) resolved(ei int32) bool { return s.doneStamp[ei] == s.epoch }
func (s *matchScratch) setResolved(ei int32)   { s.doneStamp[ei] = s.epoch }

func (s *matchScratch) counted(vid int) bool { return s.vertStamp[vid] == s.epoch }
func (s *matchScratch) setCounted(vid int)   { s.vertStamp[vid] = s.epoch }

// getScratch hands out a scratch sized for the base, resetting it
// for a fresh query. Concurrent Match calls each get their own scratch;
// steady state holds about one per active worker goroutine.
func (b *Base) getScratch() *matchScratch {
	s, _ := b.scratch.Get().(*matchScratch)
	if s == nil {
		s = newMatchScratch(len(b.meta), len(b.fieldCells))
	}
	s.reset()
	return s
}

func (b *Base) putScratch(s *matchScratch) { b.scratch.Put(s) }

// boundOrder sorts the bounds-pass work list ascending by lower bound,
// breaking ties on entry index so the evaluation order — and with it the
// Stats counters — is deterministic.
type boundOrder struct{ s *matchScratch }

func (o boundOrder) Len() int { return len(o.s.orderEnt) }
func (o boundOrder) Less(i, j int) bool {
	if o.s.orderLB[i] != o.s.orderLB[j] {
		return o.s.orderLB[i] < o.s.orderLB[j]
	}
	return o.s.orderEnt[i] < o.s.orderEnt[j]
}
func (o boundOrder) Swap(i, j int) {
	o.s.orderEnt[i], o.s.orderEnt[j] = o.s.orderEnt[j], o.s.orderEnt[i]
	o.s.orderLB[i], o.s.orderLB[j] = o.s.orderLB[j], o.s.orderLB[i]
}

// boundedTopK maintains the k-th smallest of the per-shape best
// distances incrementally. The old implementation rebuilt and sorted the
// full best-set on every bound check — O(n log n) per candidate; this is
// a size-bounded max-heap with lazy deletion, O(log k) amortized per
// update and O(1) per bound read.
//
// Invariants: heapVal maps a shape to the distance of its single live
// heap item (per-shape values strictly decrease, so any older item for
// the same shape is stale and skipped when it surfaces). live counts the
// live items, pruned down to k by evicting the current maximum — safe
// because an evicted value is ≥ every retained value and per-shape
// values at eviction time, and can only re-enter through a strictly
// smaller update.
type boundedTopK struct {
	k       int
	heapVal map[int]float64 // shape id → value of its live heap item
	items   []topkItem      // max-heap by dist
	live    int
}

type topkItem struct {
	shape int
	dist  float64
}

func newBoundedTopK(k int) *boundedTopK {
	return &boundedTopK{k: k, heapVal: make(map[int]float64)}
}

// Update records a strictly improved best distance for shape.
func (t *boundedTopK) Update(shape int, dist float64) {
	if hv, ok := t.heapVal[shape]; ok {
		if dist >= hv {
			return // not an improvement; callers never do this
		}
		t.heapVal[shape] = dist
		t.push(topkItem{shape, dist}) // the old item is now stale
		return
	}
	t.heapVal[shape] = dist
	t.push(topkItem{shape, dist})
	t.live++
	for t.live > t.k {
		top := t.pop()
		if hv, ok := t.heapVal[top.shape]; ok && hv == top.dist {
			delete(t.heapVal, top.shape)
			t.live--
		}
	}
}

// Kth returns the k-th smallest tracked distance, or +Inf while fewer
// than k shapes are tracked.
func (t *boundedTopK) Kth() float64 {
	for len(t.items) > 0 {
		top := t.items[0]
		if hv, ok := t.heapVal[top.shape]; ok && hv == top.dist {
			break
		}
		t.pop() // stale leftover of a since-improved or evicted shape
	}
	if t.live < t.k {
		return math.Inf(1)
	}
	return t.items[0].dist
}

func (t *boundedTopK) push(it topkItem) {
	t.items = append(t.items, it)
	i := len(t.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if t.items[p].dist >= t.items[i].dist {
			break
		}
		t.items[p], t.items[i] = t.items[i], t.items[p]
		i = p
	}
}

func (t *boundedTopK) pop() topkItem {
	top := t.items[0]
	last := len(t.items) - 1
	t.items[0] = t.items[last]
	t.items = t.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(t.items) && t.items[l].dist > t.items[big].dist {
			big = l
		}
		if r < len(t.items) && t.items[r].dist > t.items[big].dist {
			big = r
		}
		if big == i {
			break
		}
		t.items[i], t.items[big] = t.items[big], t.items[i]
		i = big
	}
	return top
}
