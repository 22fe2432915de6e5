package core

import (
	"context"
	"fmt"
	"math"
	"sort"

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
// paper's complexity analysis in §2.5). A search that starts under a
// fitting bound opens no envelope — it is one bounded scan (DESIGN.md
// §4.9, "The seeded search is a scan") — and a climbing iteration that
// starts under a finite cutoff marks entries at first touch and settles
// them in index order; both count differently, as noted per field.
type Stats struct {
	Iterations       int     // r: number of envelope fattenings (the scan counts as 1)
	FinalEpsilon     float64 // ε at termination (the scan: the width 2·bound·1.0001 its bound stands for)
	EpsilonMax       float64 // the stopping threshold (A/2p·l_Q)·log³n
	TrianglesQueried int     // simplex range queries issued (the scan: 0; entry-first: until every entry is marked)
	VerticesReported int     // vertices the triangle covers reported, duplicates included (the scan: 0)
	VerticesCounted  int     // K: vertices that entered counters; entry-first, the first reported vertex of each touched entry; the scan, the entries it scanned
	Candidates       int     // entries that reached the exact evaluator (not those the distance field rejected first, nor those MatchOpts.Scored had scored already)
	BlocksRead       int     // page-granular storage of the entries whose vertices were read, field-rejected included (§4 block accounting)
	Converged        bool    // true: stopped via the similarity bound
}

// MatchOpts are the knobs of one fattening search beyond (query, k).
// The zero value is a plain top-k Match.
type MatchOpts struct {
	// Rank supplies an a-priori candidate ranking: a map from entry ids to
	// a promisingness score (higher is more promising; missing means 0),
	// and the bootstrap evaluations that seed the top-k visit
	// higher-ranked candidates first. The ranking changes only the order
	// in which the envelope's own candidates are evaluated — never which
	// entries are discovered, and every pruning decision stays
	// admissible — so the returned matches are byte-identical for any
	// rank; a good ranking (e.g. the ANN tier's signature agreement,
	// DESIGN.md §4.10) merely tightens the k-th-best cutoff sooner.
	// Stats may differ (fewer candidates paid for). It is called once, and
	// only by a search that climbs: the bounded scan visits in index order
	// and never asks for it.
	Rank func() map[int32]int32
	// Shared is a bound shared with concurrent searches over disjoint
	// partitions of one logical base. Candidates proven strictly worse
	// than it are discarded — admissible because the bound only ever
	// holds values ≥ the merged k-th best distance — and once every
	// unresolved entry is proven outside it the search stops early with
	// Converged set: its contribution to the merged result is final.
	// See DESIGN.md §4.9.
	Shared *SharedBound
	// Publish makes the search tighten Shared with its own live k-th
	// best. Set it only when k equals the global k over shapes that can
	// all appear in the merged result (a capped search's k-th best does
	// not bound the merged k-th best).
	Publish bool
	// Dead marks shape ids the search must skip (tombstoned shapes of a
	// partition): they never enter the top-k, so the k-th best — and any
	// bound published from it — reflects live shapes only.
	Dead map[int]bool
	// Scored holds shapes the caller has already scored against this query
	// under cutoffs no lower than Shared is at entry: the shape's Match
	// (DistVertex and EntryID) when the distance came back, EntryID -1 when
	// it was proven strictly above its cutoff. The bounded scan takes these
	// as its own evaluations — nothing in Scored is scored twice; a search
	// that climbs ignores them. Admissible only together with such a Shared:
	// a proof against a cutoff the bound does not cover proves nothing here.
	Scored map[int]Match

	// threshold switches from top-k to "every shape within tau".
	threshold bool
	tau       float64
	// onAccess is MatchTrace's access hook.
	onAccess func(entryID int)
	// onIteration observes each fattening iteration's width and the k-th
	// best distance proven by its end (+Inf while the top-k is short).
	onIteration func(eps, kth float64)
}

// Match retrieves the k most similar shapes to q via the incremental
// ε-envelope fattening algorithm (§2.5). The returned matches are sorted
// by increasing DistVertex. Stats.Converged reports whether the algorithm
// proved optimality of the result (true) or gave up at ε_max (false) —
// in the latter case the caller is expected to fall back to geometric
// hashing (§3).
func (b *Base) Match(q geom.Poly, k int) ([]Match, Stats, error) {
	return b.matchPoly(q, k, MatchOpts{})
}

// MatchTrace is Match with an access hook: onAccess is invoked with the
// entry id of every normalized copy the algorithm touches (candidate
// evaluations, in evaluation order, then the final re-reads for the
// continuous measure). The external-storage experiments (§4) replay this
// trace against a disk layout to count I/O operations.
func (b *Base) MatchTrace(q geom.Poly, k int, onAccess func(entryID int)) ([]Match, Stats, error) {
	return b.matchPoly(q, k, MatchOpts{onAccess: onAccess})
}

// MatchShared is Match pruning against (and, when publish is set,
// tightening) a shared bound; see MatchOpts.
func (b *Base) MatchShared(q geom.Poly, k int, shared *SharedBound, publish bool) ([]Match, Stats, error) {
	return b.matchPoly(q, k, MatchOpts{Shared: shared, Publish: publish})
}

// MatchPrepared is Match against a query prepared once (PrepareQuery)
// and shared by every partition's search, under the given options. The
// caller has validated the query shape. Only the bounded scan a fitting
// Shared selects can be cancelled (match).
func (b *Base) MatchPrepared(ctx context.Context, pq *PreparedQuery, k int, o MatchOpts) ([]Match, Stats, error) {
	if err := b.matchable(k); err != nil {
		return nil, Stats{}, err
	}
	return b.match(ctx, pq, k, o)
}

// SimilarShapes returns every shape whose vertex-averaged distance to q
// is at most tau, by fattening envelopes until the ε/2 bound on untouched
// entries exceeds tau (and bound-forcing every touched entry that might
// qualify). This is the shape_similar(Q) primitive of the query
// processor (§5).
func (b *Base) SimilarShapes(q geom.Poly, tau float64) ([]Match, Stats, error) {
	matches, stats, err := b.matchPoly(q, len(b.shapes), MatchOpts{threshold: true, tau: tau})
	if err != nil {
		return nil, stats, err
	}
	out := matches[:0]
	for _, m := range matches {
		if m.DistVertex <= tau {
			out = append(out, m)
		}
	}
	return out, stats, nil
}

// matchable reports why the base cannot answer a top-k search, if so.
func (b *Base) matchable(k int) error {
	if !b.frozen {
		return fmt.Errorf("core: base must be frozen before matching")
	}
	if k <= 0 {
		return fmt.Errorf("core: k must be positive, got %d", k)
	}
	return nil
}

// matchPoly validates and prepares q, then runs the shared driver.
func (b *Base) matchPoly(q geom.Poly, k int, o MatchOpts) ([]Match, Stats, error) {
	if err := b.matchable(k); err != nil {
		return nil, Stats{}, err
	}
	if err := q.Validate(); err != nil {
		return nil, Stats{}, fmt.Errorf("core: invalid query: %w", err)
	}
	pq, err := PrepareQuery(q)
	if err != nil {
		return nil, Stats{}, err
	}
	return b.match(context.Background(), pq, k, o)
}

// match is the shared driver. In top-k mode it honors the ε_max stopping
// rule; in threshold mode it keeps fattening until ε/2 > tau so that the
// threshold answer is complete.
//
// The kernel is prune-first (DESIGN.md §4.9): every candidate evaluation
// runs under the tightest currently-proven cutoff — min of the live k-th
// distance, its shape's best so far, tau, and the shared cross-shard
// bound — with an admissible partial-sum early exit; candidates are
// visited in ascending lower-bound order so the cutoff tightens as fast
// as possible; and entries proven outside every cutoff are stamped dead
// exactly once (all cutoffs are monotone non-increasing, so a ruling
// never has to be revisited).
//
// A top-k search that starts under a finite shared bound sv whose envelope
// 2·sv·1.0001 fits ε_max never climbs: §2.4 pins two vertices of every
// stored copy on two of the query's own, so that envelope — any envelope —
// reaches every entry, and what is left of the algorithm is settling each
// entry under the bound: the bounded scan, over the base's shapes in id
// order — ascending entry index, the order entries, their vertices and
// their oracles lie in memory. The climb below runs when there is no such
// bound: the unseeded search, a seed too wide for ε_max, the threshold
// query.
func (b *Base) match(ctx context.Context, pq *PreparedQuery, k int, o MatchOpts) ([]Match, Stats, error) {
	var stats Stats
	qe, env, oracle := pq.entry, pq.env, pq.oracle
	shared, publish, onAccess := o.Shared, o.Publish, o.onAccess
	lQ := qe.Poly.Perimeter()
	epsMax := b.EpsilonMax(lQ)
	stats.EpsilonMax = epsMax
	thresholdEps := epsMax
	topkMode := !o.threshold
	tau := o.tau
	if topkMode && shared != nil {
		if open := 2 * shared.Load() * 1.0001; open <= epsMax && !math.IsInf(open, 1) {
			out, stats, err := boundedScan(ctx, pq, k, o, len(b.shapes), b.scanShape, b.opts.Samples, true)
			stats.Iterations, stats.FinalEpsilon, stats.EpsilonMax = 1, open, epsMax
			return out, stats, err
		}
	}
	if !topkMode {
		// Completeness for the threshold query requires the ε/2 bound on
		// untouched entries to pass tau.
		thresholdEps = math.Max(thresholdEps, 2*tau*1.0001)
	}
	var rank map[int32]int32
	if o.Rank != nil {
		rank = o.Rank()
	}

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
	for probe := 0; probe < 64 && eps < thresholdEps; probe++ {
		if b.probeEnvelope(env, eps) {
			break
		}
		eps *= grow
	}

	// kthBound reads the incremental bound: the k-th smallest per-shape
	// best so far (maintained by the bounded heap) and the number of
	// shapes with an evaluated copy.
	kthBound := func() (float64, int) {
		return topk.Kth(), len(bestByShape)
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
		e := &b.entries[ei]
		curBest := math.Inf(1)
		cur, haveCur := bestByShape[e.ShapeID]
		if haveCur {
			curBest = cur.DistVertex
		}
		cut := curBest
		if topkMode {
			if kv := topk.Kth(); kv < cut {
				cut = kv
			}
		} else if tau < cut {
			cut = tau
		}
		if shared != nil {
			if sv := shared.Load(); sv < cut {
				cut = sv
			}
		}
		dv, ok, scored := pq.distWithin(e.Poly, pq.distField().sum(b.entryCells(ei)), b.entryOracle(ei), cut)
		if scored {
			stats.Candidates++
		}
		if !ok {
			return
		}
		if dv < curBest {
			bestByShape[e.ShapeID] = Match{
				ShapeID:    e.ShapeID,
				EntryID:    int(ei),
				DistVertex: dv,
			}
			topk.Update(e.ShapeID, dv)
			if publish && shared != nil {
				if kv := topk.Kth(); !math.IsInf(kv, 1) {
					shared.Tighten(kv)
				}
			}
		} else if haveCur && dv == curBest && int(ei) < cur.EntryID {
			// Deterministic tie-break: among copies realizing the same
			// distance, report the lowest entry id regardless of the
			// order pruning happened to evaluate them in.
			cur.EntryID = int(ei)
			bestByShape[e.ShapeID] = cur
		}
	}

	// ruledOut reports whether lower bound lb proves an entry irrelevant.
	// Each cutoff is monotone non-increasing over the query, so a true
	// result is permanent and the caller stamps the entry resolved. Every
	// test is strict: an entry that may tie the k-th best is evaluated, so
	// which of several tied shapes is reported never depends on the order
	// they were reached in.
	kth, have := kthBound()
	ruledOut := func(lb float64) bool {
		if topkMode {
			if have >= k && lb > kth {
				return true
			}
		} else if lb > tau {
			return true
		}
		if shared != nil && lb > shared.Load() {
			return true
		}
		return false
	}

	// resolve settles one unresolved entry on the spot: ruled out by its
	// proven lower bound lb, or evaluated under the current cutoffs.
	resolve := func(ei int32, lb float64) {
		if ruledOut(lb) {
			scratch.setResolved(ei)
			return
		}
		evaluate(ei)
		kth, have = kthBound()
	}

	// The report callback is allocated once and shared by every triangle
	// query of every fattening iteration (it reads eps and entryFirst and
	// appends to newCandidates through the enclosing variables).
	var newCandidates []int32
	var entryFirst bool
	reportVertex := func(vid int) {
		stats.VerticesReported++
		ei := b.vertEntry[vid]
		if entryFirst {
			// The iteration started under a finite cutoff, so every entry
			// it touches is evaluated or ruled out before it ends and the
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
		d := env.Dist(b.verts[vid])
		if d > eps {
			return
		}
		scratch.setCounted(vid)
		stats.VerticesCounted++
		c := scratch.addVertex(ei, d)
		if c == 1 && o.Dead != nil && o.Dead[b.entries[ei].ShapeID] {
			scratch.setResolved(ei) // tombstoned: resolved before it can be scored
		}
		need := candidateThreshold(b.entryVertexCount(ei), beta)
		if c == need && !scratch.resolved(ei) {
			newCandidates = append(newCandidates, ei)
		}
	}

	for {
		stats.Iterations++
		stats.FinalEpsilon = eps

		// One snapshot sv of the merged bound per iteration. When it is
		// already inside the envelope's reach, sv < ε/2 — or the local
		// top-k is full — every entry this iteration touches is marked at
		// first touch, resolved before the iteration ends (entryFirst), and
		// the search can stop below.
		sv := math.Inf(1)
		if shared != nil {
			sv = shared.Load()
		}
		entryFirst = sv < eps/2 || (topkMode && have >= k)

		// Step 2: collect vertices in the envelope difference via simplex
		// range reporting over the O(m) triangle cover.
		tris := env.AnnulusTriangles(epsPrev, eps)
		newCandidates = newCandidates[:0]
		for _, tr := range tris {
			if tr.IsDegenerate() {
				continue
			}
			if entryFirst && len(scratch.touched) == len(b.entries) {
				// Every entry is marked; a further triangle has nothing to
				// add. §2.4 pins two vertices of every copy where the query
				// has two of its own, so the first few triangles get here.
				break
			}
			stats.TrianglesQueried++
			b.backend.ReportTriangle(tr, reportVertex)
		}

		// Step 4, bootstrap: β-candidacy (the paper's step 3/4 rule)
		// seeds the top-k before any bound is meaningful. An a-priori
		// ranking (the ANN tier) reorders this seeding best-first: the
		// bootstrap stops once the top-k is filled, so starting from the
		// likeliest matches fills it with tighter distances and every
		// later cutoff starts sharper. Candidates not evaluated here are
		// still evaluated or admissibly ruled out in the bounds pass
		// below, so the reordering cannot change the result.
		if topkMode {
			if rank != nil && len(newCandidates) > 1 {
				sort.SliceStable(newCandidates, func(i, j int) bool {
					return rank[newCandidates[i]] > rank[newCandidates[j]]
				})
			}
			for _, ei := range newCandidates {
				if have >= k {
					break
				}
				if !scratch.resolved(ei) {
					evaluate(ei)
					kth, have = kthBound()
				}
			}
		}

		// Step 4, bounds pass: every touched, unresolved entry is either
		// ruled out by its proven lower bound (permanently — the cutoffs
		// only tighten) or evaluated, in ascending lower-bound order so
		// the k-th best tightens as fast as possible and later entries
		// face the sharpest cutoff. Before the top-k is populated there
		// is no local bound to undercut, so only the β-candidates above
		// run — unless the merged bound is already inside the envelope's
		// reach: then the pass runs on the shared test alone.
		//
		// An entry-first iteration instead settles every touched entry —
		// tombstoned, or evaluated under the cutoff (no lower bound is
		// known for it: it is inside the envelope, and the distance field
		// in front of the evaluator is the filter) — in entry-index order:
		// the cutoff is already
		// tight, so best-first buys nothing, while index order walks the
		// entries, their vertices and their bounds the way they lie in
		// memory. (Settled in kd-tree report order, every entry starts
		// with cache misses, and the search's time follows the memory
		// system's load rather than the processor's.)
		if entryFirst {
			for _, ei := range scratch.touchedInOrder() {
				if scratch.resolved(ei) {
					continue
				}
				if o.Dead != nil && o.Dead[b.entries[ei].ShapeID] {
					scratch.setResolved(ei)
					continue
				}
				evaluate(ei)
				kth, have = kthBound()
			}
		} else if !topkMode || have >= k || sv < eps/2 {
			scratch.orderEnt = scratch.orderEnt[:0]
			scratch.orderLB = scratch.orderLB[:0]
			for _, ei := range scratch.touched {
				if scratch.resolved(ei) {
					continue
				}
				lb := entryBound(ei, eps)
				if ruledOut(lb) {
					scratch.setResolved(ei)
					continue
				}
				scratch.orderEnt = append(scratch.orderEnt, ei)
				scratch.orderLB = append(scratch.orderLB, lb)
			}
			sort.Sort(boundOrder{scratch})
			for i, ei := range scratch.orderEnt {
				// The cutoffs may have tightened since the list was
				// built; re-test the stored bound before paying for the
				// evaluation.
				resolve(ei, scratch.orderLB[i])
			}
		}

		if o.onIteration != nil {
			o.onIteration(eps, kth)
		}

		// Termination: untouched entries have every vertex farther than ε
		// (DistVertex ≥ ε/2), and every touched entry is either evaluated
		// or bounded out; so once the k-th best is ≤ ε/2 the result is
		// provably final.
		if topkMode {
			if have >= k && kth <= eps/2 {
				stats.Converged = true
				break
			}
			// Merged-bound exit: sv < ε/2 resolved every touched entry in
			// the pass above, whether or not the local top-k is full: each
			// is evaluated under the cutoff or proven > sv, and every
			// untouched entry has DistVertex ≥ ε/2 > sv ≥ the merged k-th
			// best — nothing this search could still evaluate can enter
			// the merged result, so its contribution is final even when it
			// holds fewer than k matches. (Touched entries left below the
			// β-candidacy threshold would only be guaranteed DistVertex >
			// β·ε/2, which a bound in (β·ε/2, ε/2) would not dominate.)
			if sv < eps/2 {
				stats.Converged = true
				break
			}
		} else if eps/2 > tau {
			stats.Converged = true
			break
		}
		// Step 5: grow the envelope or give up at the threshold.
		if eps >= thresholdEps {
			if topkMode {
				stats.Converged = have >= k && kth <= eps/2
			} else {
				stats.Converged = eps/2 >= tau
			}
			break
		}
		epsPrev = eps
		eps = growEpsilon(eps, grow, thresholdEps, kth, topkMode && have >= k)
	}

	// Fill in the continuous measure for the reported matches and sort.
	out := make([]Match, 0, len(bestByShape))
	for _, m := range bestByShape {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DistVertex != out[j].DistVertex {
			return out[i].DistVertex < out[j].DistVertex
		}
		return out[i].ShapeID < out[j].ShapeID
	})
	if len(out) > k {
		out = out[:k]
	}
	for i := range out {
		if onAccess != nil {
			onAccess(out[i].EntryID)
		}
		ei := out[i].EntryID
		e := &b.entries[ei]
		stats.BlocksRead += b.blockCost(int32(ei))
		out[i].DistContinuous = (avgMinDistToInto(e.Poly, oracle, b.opts.Samples, &scratch.resample) +
			avgMinDistToInto(qe.Poly, b.entryOracle(int32(ei)), b.opts.Samples, &scratch.resample)) / 2
	}
	return out, stats, nil
}

// scanShape is a stored shape as the bounded evaluators walk it.
func (b *Base) scanShape(id int) scanShape {
	return scanShape{id: id, entries: b.entries, oracles: b.oracles, cells: b.fieldCells, off: b.entryOff,
		idx: b.shapeEntries[id], cost: b.entryCost}
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
// the query boundary, using counting queries on the triangle cover.
func (b *Base) probeEnvelope(env *envelope.Envelope, eps float64) bool {
	found := false
	probe := func(vid int) {
		if !found && env.Dist(b.verts[vid]) <= eps {
			found = true
		}
	}
	for _, tr := range env.BandTriangles(eps) {
		if tr.IsDegenerate() {
			continue
		}
		b.backend.ReportTriangle(tr, probe)
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
