package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/envelope"
	"repro/internal/geom"
)

// Match is one retrieved shape with its similarity to the query.
type Match struct {
	ShapeID int
	EntryID int // the normalized copy that realized the distance
	// DistVertex is the symmetric vertex-averaged measure
	// (h_avg over S's vertices to Q + h_avg over Q's vertices to S)/2 —
	// the quantity the envelope counters and distance sums bound
	// (an entry untouched by the ε-envelope has DistVertex ≥ ε/2),
	// and therefore the ranking key.
	DistVertex float64
	// DistContinuous is the symmetrized continuous measure
	// (h_avg(S,Q)+h_avg(Q,S))/2, reported alongside.
	DistContinuous float64
}

// Stats records the work a retrieval performed (the quantities of the
// paper's complexity analysis in §2.5). SimilarShapes opens no envelope —
// it is one fixed-cutoff scan (DESIGN.md §4.9) — and counts differently,
// as noted per field.
type Stats struct {
	Iterations       int     // r: number of envelope fattenings (SimilarShapes: 1)
	FinalEpsilon     float64 // ε at termination (SimilarShapes: 0, it opens none)
	EpsilonMax       float64 // the stopping threshold (A/2p·l_Q)·log³n (SimilarShapes: 0, it has none)
	TrianglesQueried int     // simplex range queries issued (SimilarShapes: 0; entry-first: until every entry is marked)
	VerticesReported int     // vertices the triangle covers reported, duplicates included (SimilarShapes: 0)
	VerticesCounted  int     // K: vertices that entered counters; entry-first, the first reported vertex of each touched entry; SimilarShapes, the entries it scanned
	Candidates       int     // entries that reached the exact evaluator (not those the distance field rejected first)
	BlocksRead       int     // page-granular storage of the entries whose vertices were read, field-rejected included (§4 block accounting)
	Converged        bool    // true: the result is proven (the climb: stopped via the similarity bound; SimilarShapes: always)
}

// Match retrieves the k most similar shapes to q via the incremental
// ε-envelope fattening algorithm (§2.5) — the paper's algorithm, which the
// figures and the external-storage experiments reproduce; no serving
// search runs it. The returned matches are sorted by increasing
// DistVertex. Stats.Converged reports whether the algorithm proved
// optimality of the result (true) or gave up at ε_max (false) — in the
// latter case the paper falls back to geometric hashing (§3). The first
// climb builds the range index (BuildRangeIndex).
func (b *Base) Match(q geom.Poly, k int) ([]Match, Stats, error) {
	return b.matchPoly(q, k, nil)
}

// MatchTrace is Match with an access hook: onAccess is invoked with the
// entry id of every normalized copy the algorithm touches (candidate
// evaluations, in evaluation order, then the final re-reads for the
// continuous measure). The external-storage experiments (§4) replay this
// trace against a disk layout to count I/O operations.
func (b *Base) MatchTrace(q geom.Poly, k int, onAccess func(entryID int)) ([]Match, Stats, error) {
	return b.matchPoly(q, k, onAccess)
}

// SimilarShapes returns every shape whose vertex-averaged distance to q
// is at most tau, sorted by (DistVertex, ShapeID), each with its
// continuous measure: one fixed-cutoff scan (Within) under tau. This is
// the shape_similar(Q) primitive of the query processor (§5). No distance
// is within a negative or NaN tau. A cancelled scan returns ctx's error,
// no matches, and the work done so far.
func (b *Base) SimilarShapes(ctx context.Context, q geom.Poly, tau float64) ([]Match, Stats, error) {
	pq, err := b.prepare(q, 1)
	if err != nil {
		return nil, Stats{}, err
	}
	stats := Stats{Iterations: 1, Converged: true}
	if math.IsNaN(tau) || tau < 0 {
		return nil, stats, nil
	}
	var evaluated atomic.Int64
	pq.AttachEvalCounter(&evaluated)
	var out []Match
	stats.VerticesCounted, stats.BlocksRead, err = b.Within(ctx, pq, nil, tau, func(m Match) { out = append(out, m) })
	stats.Candidates = int(evaluated.Load())
	if err != nil {
		return nil, stats, err
	}
	sortMatches(out)
	var resample, buf []geom.Point
	for i := range out {
		ei := out[i].EntryID
		out[i].DistContinuous = pq.distContinuous(b.copyPoly(ei, buf), b.opts.Samples, &resample)
		stats.BlocksRead += b.blockCost(int32(ei))
	}
	return out, stats, nil
}

// matchable reports why the base cannot answer a top-k search, if so.
func (b *Base) matchable(k int) error {
	if k <= 0 {
		return fmt.Errorf("core: k must be positive, got %d", k)
	}
	return nil
}

// prepare checks that the base can answer a top-k search, validates q
// and prepares it.
func (b *Base) prepare(q geom.Poly, k int) (*PreparedQuery, error) {
	if err := b.matchable(k); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid query: %w", err)
	}
	return PrepareQuery(q)
}

// matchPoly validates and prepares q, builds the ε-envelope of its
// canonical normalization — only the climb fattens one — and climbs.
func (b *Base) matchPoly(q geom.Poly, k int, onAccess func(entryID int)) ([]Match, Stats, error) {
	pq, err := b.prepare(q, k)
	if err != nil {
		return nil, Stats{}, err
	}
	env, err := envelope.New(pq.entry.Poly)
	if err != nil {
		return nil, Stats{}, err
	}
	out, stats := b.climb(pq, env, k, onAccess, nil)
	return out, stats, nil
}

// climb is the paper's incremental ε-envelope fattening search (§2.5) of
// env, the envelope of pq's normalization: it honors the ε_max stopping
// rule, and onIteration, when set, observes each fattening iteration's
// width and the k-th best distance proven by its end (+Inf while the top-k
// is short).
//
// The kernel is prune-first (DESIGN.md §4.9): every candidate evaluation
// runs under the tightest currently-proven cutoff — min of the live k-th
// distance and its shape's best so far — with an admissible partial-sum
// early exit; candidates are visited in ascending lower-bound order so the
// cutoff tightens as fast as possible; and entries proven outside every
// cutoff are stamped dead exactly once (all cutoffs are monotone
// non-increasing, so a ruling never has to be revisited).
func (b *Base) climb(pq *PreparedQuery, env *envelope.Envelope, k int, onAccess func(entryID int), onIteration func(eps, kth float64)) ([]Match, Stats) {
	b.BuildRangeIndex()
	backend, vertEntry, verts := b.rng.backend, b.rng.vertEntry, b.rng.verts
	var stats Stats
	lQ := pq.entry.Poly.Perimeter()
	epsMax := b.EpsilonMax(lQ)
	stats.EpsilonMax = epsMax

	// The per-entry counters and distance sums implement the "bounds on
	// the similarity measure" of the paper's step 4: with c of v vertices
	// counted at total distance S, every unevaluated entry obeys
	//   DistVertex ≥ (S + (v-c)·ε) / v / 2
	// since each uncounted vertex is farther than the current ε. They let
	// the algorithm defer (and usually never pay for) entries that
	// provably cannot enter the top k. The arrays live in a pooled,
	// epoch-stamped scratch recycled across queries (scratch.go).
	scratch := b.getScratch()
	defer b.putScratch(scratch)
	bestByShape := make(map[int]Match)
	topk := newBoundedTopK(k)

	beta := b.opts.Beta
	grow := b.opts.GrowthFactor

	// Step 1: initial ε, adjusted upward until the envelope is plausibly
	// populated (the O(log n) presence probes of the paper).
	epsPrev := 0.0
	eps := b.InitialEpsilon(lQ)
	for probe := 0; probe < 64 && eps < epsMax; probe++ {
		if b.probeEnvelope(env, eps) {
			break
		}
		eps *= grow
	}

	// entryBound returns the proven lower bound on DistVertex for an
	// unevaluated entry: the counting bound with the current counters at
	// envelope width eps.
	entryBound := func(ei int32, eps float64) float64 {
		v := float64(b.entryVertexCount(ei))
		c := float64(scratch.count(ei))
		return (scratch.sum(ei) + (v-c)*eps) / v / 2
	}

	// evaluate resolves one entry under the tightest proven cutoff
	// (distWithin): an entry it gives up on is proven strictly worse than
	// everything that could make it matter.
	evaluate := func(ei int32) {
		scratch.setResolved(ei)
		stats.BlocksRead += b.blockCost(ei)
		if onAccess != nil {
			onAccess(int(ei))
		}
		sid := int(b.meta[ei].ShapeID)
		curBest := math.Inf(1)
		cur, haveCur := bestByShape[sid]
		if haveCur {
			curBest = cur.DistVertex
		}
		cut := min(curBest, topk.Kth())
		cells := b.entryCells(ei)
		dv, ok, scored := pq.distWithin(b.climbPoly(ei), cells, pq.distField().sum(cells), cut)
		if scored {
			stats.Candidates++
		}
		if !ok {
			return
		}
		if dv < curBest {
			bestByShape[sid] = Match{
				ShapeID:    sid,
				EntryID:    int(ei),
				DistVertex: dv,
			}
			topk.Update(sid, dv)
		} else if haveCur && dv == curBest && int(ei) < cur.EntryID {
			// Deterministic tie-break: among copies realizing the same
			// distance, report the lowest entry id regardless of the
			// order pruning happened to evaluate them in.
			cur.EntryID = int(ei)
			bestByShape[sid] = cur
		}
	}

	// kth and have read the incremental bound: the k-th smallest per-shape
	// best so far (maintained by the bounded heap) and the number of
	// shapes with an evaluated copy. A lower bound strictly above kth,
	// once the top-k is full, proves an entry irrelevant for good — the
	// cutoff only falls — and the test is strict: an entry that may tie
	// the k-th best is evaluated, so which of several tied shapes is
	// reported never depends on the order they were reached in.
	kth, have := topk.Kth(), 0
	refresh := func() { kth, have = topk.Kth(), len(bestByShape) }

	// The report callback is allocated once and shared by every triangle
	// query of every fattening iteration (it reads eps and entryFirst and
	// appends to newCandidates through the enclosing variables).
	var newCandidates []int32
	var entryFirst bool
	reportVertex := func(vid int) {
		stats.VerticesReported++
		ei := vertEntry[vid]
		if entryFirst {
			// The iteration started with a full top-k, so every entry it
			// touches is evaluated or ruled out before it ends and the
			// counting bound (≤ ε/2) can rule out next to nothing: the
			// first of an entry's vertices the cover reports only marks it
			// for the sweep below, and its other vertices cost one stamp
			// load. The exact filter is skipped: the cover contains the
			// envelope, so an entry without a reported vertex still has
			// every vertex farther than ε, and settling an entry the
			// envelope itself does not reach costs an aborted evaluation,
			// about what the filter costs per vertex.
			if scratch.touch(ei) {
				stats.VerticesCounted++
			}
			return
		}
		if scratch.counted(vid) {
			return
		}
		// Exact filter: the triangle cover may overreach the annulus;
		// only vertices truly inside the ε-envelope are counted (each
		// exactly once, in its home iteration).
		d := env.Dist(verts[vid])
		if d > eps {
			return
		}
		scratch.setCounted(vid)
		stats.VerticesCounted++
		c := scratch.addVertex(ei, d)
		need := candidateThreshold(b.entryVertexCount(ei), beta)
		if c == need && !scratch.resolved(ei) {
			newCandidates = append(newCandidates, ei)
		}
	}

	for {
		stats.Iterations++
		stats.FinalEpsilon = eps

		// With the local top-k already full, every entry this iteration
		// touches is marked at first touch and resolved before the
		// iteration ends (entryFirst).
		entryFirst = have >= k

		// Step 2: collect vertices in the envelope difference via simplex
		// range reporting over the O(m) triangle cover.
		tris := env.AnnulusTriangles(epsPrev, eps)
		newCandidates = newCandidates[:0]
		for _, tr := range tris {
			if tr.IsDegenerate() {
				continue
			}
			if entryFirst && len(scratch.touched) == len(b.meta) {
				// Every entry is marked; a further triangle has nothing to
				// add. §2.4 pins two vertices of every copy where the query
				// has two of its own, so the first few triangles get here.
				break
			}
			stats.TrianglesQueried++
			backend.ReportTriangle(tr, reportVertex)
		}

		// Step 4, bootstrap: β-candidacy (the paper's step 3/4 rule)
		// seeds the top-k before any bound is meaningful.
		for _, ei := range newCandidates {
			if have >= k {
				break
			}
			if !scratch.resolved(ei) {
				evaluate(ei)
				refresh()
			}
		}

		// Step 4, bounds pass: every touched, unresolved entry is either
		// ruled out by its proven lower bound (permanently — the cutoffs
		// only tighten) or evaluated, in ascending lower-bound order so
		// the k-th best tightens as fast as possible and later entries
		// face the sharpest cutoff. Before the top-k is populated there
		// is no bound to undercut, so only the β-candidates above run.
		//
		// An entry-first iteration instead settles every touched entry —
		// evaluated under the cutoff (no lower bound is known for it: it
		// is inside the envelope, and the distance field in front of the
		// evaluator is the filter) — in entry-index order: the cutoff is
		// already tight, so best-first buys nothing, while index order
		// walks the entries, their vertices and their bounds the way they
		// lie in memory. (Settled in kd-tree report order, every entry
		// starts with cache misses, and the search's time follows the
		// memory system's load rather than the processor's.)
		if entryFirst {
			for _, ei := range scratch.touchedInOrder() {
				if !scratch.resolved(ei) {
					evaluate(ei)
					refresh()
				}
			}
		} else if have >= k {
			scratch.orderEnt = scratch.orderEnt[:0]
			scratch.orderLB = scratch.orderLB[:0]
			for _, ei := range scratch.touched {
				if scratch.resolved(ei) {
					continue
				}
				lb := entryBound(ei, eps)
				if lb > kth {
					scratch.setResolved(ei)
					continue
				}
				scratch.orderEnt = append(scratch.orderEnt, ei)
				scratch.orderLB = append(scratch.orderLB, lb)
			}
			sort.Sort(boundOrder{scratch})
			for i, ei := range scratch.orderEnt {
				// The cutoff may have tightened since the list was built;
				// re-test the stored bound before paying for the
				// evaluation.
				if scratch.orderLB[i] > kth {
					scratch.setResolved(ei)
					continue
				}
				evaluate(ei)
				refresh()
			}
		}

		if onIteration != nil {
			onIteration(eps, kth)
		}

		// Termination: untouched entries have every vertex farther than ε
		// (DistVertex ≥ ε/2), and every touched entry is either evaluated
		// or bounded out; so once the k-th best is ≤ ε/2 the result is
		// provably final.
		if have >= k && kth <= eps/2 {
			stats.Converged = true
			break
		}
		// Step 5: grow the envelope or give up at ε_max.
		if eps >= epsMax {
			break
		}
		epsPrev = eps
		eps = growEpsilon(eps, grow, epsMax, kth, have >= k)
	}

	// Fill in the continuous measure for the reported matches and sort.
	out := make([]Match, 0, len(bestByShape))
	for _, m := range bestByShape {
		out = append(out, m)
	}
	sortMatches(out)
	if len(out) > k {
		out = out[:k]
	}
	for i := range out {
		if onAccess != nil {
			onAccess(out[i].EntryID)
		}
		ei := out[i].EntryID
		stats.BlocksRead += b.blockCost(int32(ei))
		out[i].DistContinuous = pq.distContinuous(b.climbPoly(int32(ei)), b.opts.Samples, &scratch.resample)
	}
	return out, stats
}

// scanShape is a stored shape as the bounded evaluators walk it: its
// copies' cells are the run of fieldCells from its first copy's first
// vertex to its last copy's last.
func (b *Base) scanShape(id int) scanShape {
	lo, hi := b.shapeOff[id], b.shapeOff[id+1]
	return scanShape{id: id, shape: b.shapes[id].Poly, meta: b.meta[lo:hi], block: b.fieldCells[b.cellOff[id]:b.cellOff[id+1]],
		nv: len(b.shapes[id].Poly.Pts), first: int(lo), cost: b.entryCost[lo:hi]}
}

// growEpsilon returns the next envelope width of the schedule: eps·grow,
// capped at limit — and, once the top-k is full, at the width the proven
// k-th best needs to be confirmed (2·kth, nudged so kth ≤ ε/2 holds in
// floats): the search ends on that envelope either way, so growing past
// it only counts vertices that cannot matter. An unconverged full top-k
// has kth > eps/2, so the schedule still strictly grows.
func growEpsilon(eps, grow, limit, kth float64, full bool) float64 {
	next := eps * grow
	if full {
		next = math.Min(next, 2*kth*1.0001)
	}
	return math.Min(next, limit)
}

// probeEnvelope cheaply checks whether any base vertex lies within eps of
// the query boundary, using reporting queries on the triangle cover.
func (b *Base) probeEnvelope(env *envelope.Envelope, eps float64) bool {
	found := false
	probe := func(vid int) {
		if !found && env.Dist(b.rng.verts[vid]) <= eps {
			found = true
		}
	}
	for _, tr := range env.BandTriangles(eps) {
		if tr.IsDegenerate() {
			continue
		}
		b.rng.backend.ReportTriangle(tr, probe)
		if found {
			return true
		}
	}
	return false
}

// candidateThreshold returns the counter value at which an entry with n
// vertices becomes a candidate: ⌈(1-β)·n⌉, at least 1.
func candidateThreshold(n int32, beta float64) int32 {
	t := int32(math.Ceil((1 - beta) * float64(n)))
	if t < 1 {
		t = 1
	}
	if t > n {
		t = n
	}
	return t
}
