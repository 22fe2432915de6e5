package geosir

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/geohash"
	"repro/internal/ingest"
	"repro/internal/sched"
)

// Mode selects the retrieval strategy of a Search.
type Mode int

const (
	// ModeAuto runs the exact search and falls back to geometric hashing
	// when it finds no sufficiently close match — the paper's §6
	// retrieval flow: when the best exact match is farther than τ, or when
	// K exceeds the live shapes (Stats.Converged false).
	ModeAuto Mode = iota
	// ModeExact runs only the exact search: one bounded scan, seeded from
	// the hash tier (DESIGN.md §4.9). The response never contains
	// approximate matches; Stats.Converged is false only when K exceeds
	// the live shapes.
	ModeExact
	// ModeApproximate skips the exact search and answers from the
	// geometric hash table alone (§3).
	ModeApproximate
	// ModeSketch ranks whole images against the multi-shape sketch in
	// SearchRequest.Sketch (§6); results land in SketchMatches.
	ModeSketch
)

// String names the mode for logs and wire formats.
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeExact:
		return "exact"
	case ModeApproximate:
		return "approximate"
	case ModeSketch:
		return "sketch"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMode maps a mode name back to its Mode value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "auto":
		return ModeAuto, nil
	case "exact":
		return ModeExact, nil
	case "approximate":
		return ModeApproximate, nil
	case "sketch":
		return ModeSketch, nil
	}
	return 0, fmt.Errorf("geosir: unknown search mode %q", s)
}

// ExecPolicy selects how a request's internal fan-out width is chosen —
// how many goroutines it spends walking its independent parts (shards
// and delta shards on a ShardedEngine, sketch shapes on an Engine). The
// width never changes results, only how fast they arrive: every plan
// visits the same parts with the same cross-shard pruning bound and
// merges identically (DESIGN.md §4.13).
type ExecPolicy int

const (
	// ExecAuto (the zero value) plans the width from live signals: full
	// fan-out when the engine is idle, narrowing toward sequential as
	// concurrent in-flight requests approach the core count, so cores
	// are spent within a request when alone and across requests under
	// load.
	ExecAuto ExecPolicy = iota
	// ExecFanout forces one worker per part regardless of load
	// (MaxWorkers still caps it).
	ExecFanout
	// ExecSequential forces a single-goroutine walk over the parts.
	ExecSequential
)

// String names the policy for logs and wire formats.
func (p ExecPolicy) String() string {
	switch p {
	case ExecAuto:
		return "auto"
	case ExecFanout:
		return "fanout"
	case ExecSequential:
		return "sequential"
	}
	return fmt.Sprintf("exec(%d)", int(p))
}

// ParseExecPolicy maps a policy name back to its ExecPolicy value.
func ParseExecPolicy(s string) (ExecPolicy, error) {
	switch s {
	case "", "auto":
		return ExecAuto, nil
	case "fanout":
		return ExecFanout, nil
	case "sequential":
		return ExecSequential, nil
	}
	return 0, fmt.Errorf("geosir: unknown exec policy %q", s)
}

// SchedStats is a snapshot of an engine's execution scheduler: the
// in-flight request gauge and how many plans chose fan-out versus
// sequential execution since startup. Served under /statz's "sched"
// section (schema 2).
type SchedStats struct {
	InFlight        int64
	PlansFanout     uint64
	PlansSequential uint64
}

// SearchRequest is one parameterized retrieval. The zero Mode is
// ModeAuto, so the minimal request is {Query: q, K: k}.
type SearchRequest struct {
	// Query is the query shape of the single-shape modes.
	Query Shape
	// Sketch is the multi-shape query of ModeSketch.
	Sketch []Shape
	// K is the maximum number of matches to return; it must be positive
	// (ErrBadK otherwise).
	K int
	// Exec selects how the request's internal fan-out width is planned:
	// per-sketch-shape retrievals on an Engine, per-shard searches on a
	// ShardedEngine. The zero value (ExecAuto) adapts to live load.
	Exec ExecPolicy
	// MaxWorkers caps the planned fan-out width under any policy; ≤ 0
	// means no cap.
	MaxWorkers int
	// Mode selects the retrieval strategy.
	Mode Mode
	// Ann selects the MinHash/LSH candidate tier's role: AnnOff (the
	// zero value) ignores it, AnnVerify uses it to order work without
	// changing results, AnnApprox answers from its candidate set alone
	// (sublinear, measured recall). See AnnMode.
	Ann AnnMode

	// onPrepare observes each query preparation the request performs
	// (SearchRequest.prepare); tests count them.
	onPrepare func()
}

// SearchResponse is the result of a Search.
type SearchResponse struct {
	// Matches holds the retrieved shapes of the single-shape modes,
	// ordered by increasing Distance with ShapeID tie-break.
	Matches []Match
	// SketchMatches holds the ranked images of ModeSketch.
	SketchMatches []SketchMatch
	// Stats reports the retrieval work. For a ShardedEngine it
	// aggregates over shards: counters sum and Iterations/FinalEpsilon are
	// maxima.
	Stats Stats
}

// Searcher is the unified query surface: one parameterized method
// instead of a Find* variant per strategy/knob combination. Engine and
// ShardedEngine both implement it, so callers (and the HTTP layer) are
// agnostic to whether the base is partitioned.
type Searcher interface {
	Search(ctx context.Context, req SearchRequest) (*SearchResponse, error)
}

// execPlan resolves the request's scheduling knobs to a (policy, cap)
// pair for internal/sched.
func (r SearchRequest) execPlan() (sched.Policy, int) {
	switch r.Exec {
	case ExecFanout:
		return sched.Fanout, r.MaxWorkers
	case ExecSequential:
		return sched.Sequential, r.MaxWorkers
	}
	return sched.Auto, r.MaxWorkers
}

// schedStatsFrom converts the internal planner snapshot to the public
// SchedStats shape.
func schedStatsFrom(st sched.Stats) SchedStats {
	return SchedStats{
		InFlight:        st.InFlight,
		PlansFanout:     st.PlansFanout,
		PlansSequential: st.PlansSequential,
	}
}

// SchedStats reports the engine's execution-scheduler counters. A single
// Engine is one part, so every single-shape request records a sequential
// plan; only ModeSketch (one work item per sketch shape) can fan out.
func (e *Engine) SchedStats() SchedStats { return schedStatsFrom(e.sched.Stats()) }

// Search answers one retrieval request against the frozen engine. It is
// safe for any number of concurrent callers. An Engine is the one-part
// case of the scatter–merge every request runs (search): the part is the
// engine itself, with identity shape ids and no tombstones.
func (e *Engine) Search(ctx context.Context, req SearchRequest) (*SearchResponse, error) {
	return search(ctx, &e.sched, e.frozen, e.searchView, req)
}

func (e *Engine) searchView() searchView {
	return searchView{parts: []part{&frozenPart{e: e}}, tau: e.db.Tau()}
}

// part is one independently searchable slice of a base, as a request
// sees it: a frozen shard behind its view's tombstones and id map
// (frozenPart), or a live delta (deltaPart). Parts hold disjoint sets of
// live shapes, every shape of an image lives on one part, and all parts
// hash with one deterministic curve family. Matches a part returns carry
// global shape ids, in sortMatches order.
type part interface {
	// liveShapes is the number of shapes the part can return.
	liveShapes() int
	family() *geohash.Family
	// liveBucket returns the part's live shapes (part-local ids) on the
	// hash curves of quad, widened by radius.
	liveBucket(quad geohash.Quadruple, radius int) []int
	// scoreBounded scores one liveBucket / annOrder candidate under an
	// admissible cutoff; false when it is proven strictly above cutoff
	// (or has since been deleted). entry is the part-local normalized copy
	// realizing the distance — what exact's scored takes; -1 when there is
	// no distance, and on a part whose exact ignores scored.
	scoreBounded(id int, pq *core.PreparedQuery, cutoff float64) (m Match, entry int, ok bool)
	// floor is a lower bound on the distance scoreBounded would report for
	// the candidate, at the cost of one table load per stored vertex: above
	// a cutoff it proves the candidate strictly outside it. 0 claims nothing.
	floor(id int, pq *core.PreparedQuery) float64
	// annOrder reorders candidates best-first by ANN agreement.
	annOrder(pq *core.PreparedQuery, ids []int) ([]int, Stats)
	// exact is the part's top-k under the exact measure — one bounded scan
	// of its live shapes, consuming shared and publishing its own k-th
	// best into it when that bounds the merged k-th best. scored, when not
	// nil, is what the seed pass behind shared already proved about the
	// part's shapes (core.MatchOpts.Scored, part-local ids); a part whose
	// shapes can change under the request scores them again.
	exact(ctx context.Context, pq *core.PreparedQuery, k int, shared *core.SharedBound, scored map[int]core.Match) ([]Match, Stats, error)
	// annApprox is the sublinear path: the part's top-k over its ANN
	// candidates alone, scored exactly. Each part applies the full
	// annMinShapes floor, so the union over N parts is at least as wide as
	// one part's candidate set — recall is monotone in the part count.
	// Matches are marked Approximate: the candidate set, not the
	// distances, is the approximation.
	annApprox(ctx context.Context, pq *core.PreparedQuery, k int, shared *core.SharedBound) ([]Match, Stats, error)
	// sketchTable is the best distance per live image to one sketch
	// shape; under AnnApprox, over the ANN candidates alone.
	sketchTable(ctx context.Context, pq *core.PreparedQuery, k int, ann AnnMode) (map[int]float64, Stats, error)
}

// searchView is what one request searches: the parts of one consistent
// snapshot of the base and its similarity threshold τ.
type searchView struct {
	parts []part
	tau   float64
}

// search is the request decision tree, the only one: validation, one
// query preparation, the fan-out plan, then per mode a scatter over the
// view's parts (the paper's §6 flow — the exact search; geometric hashing
// when that finds no close match). The view is taken once per request,
// so a compaction swapping shards mid-request never mixes two bases in
// one answer. The context is checked at stage boundaries, so a request
// whose deadline has passed never pays for the next stage.
//
// The width is planned once from req.Exec, the live in-flight gauge and
// GOMAXPROCS; both stages of a ModeAuto request run under the one plan.
// Width only changes how fast the answer arrives, never the answer: a
// sequential plan walks the same parts under the same shared bound and
// merges identically (DESIGN.md §4.13).
func search(ctx context.Context, pl *sched.Planner, frozen bool, view func() searchView, req SearchRequest) (*SearchResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !frozen {
		return nil, ErrNotFrozen
	}
	if req.K <= 0 {
		return nil, ErrBadK
	}
	release := pl.Enter()
	defer release()
	v := view()
	pol, maxw := req.execPlan()
	switch req.Mode {
	case ModeAuto, ModeExact, ModeApproximate:
		if len(req.Query.Pts) == 0 {
			return nil, ErrEmptyQuery
		}
		width := pl.Width(len(v.parts), pol, maxw)
		// AnnApprox answers from the ANN candidates alone — except in
		// ModeExact, whose contract is exactness: there it only orders work.
		annOnly := req.Ann == AnnApprox && req.Mode != ModeExact
		if req.Mode != ModeApproximate && !annOnly {
			// Only an exact request validates the shape; the others let
			// normalization reject what it must.
			if err := req.Query.Validate(); err != nil {
				return nil, fmt.Errorf("core: invalid query: %w", err)
			}
		}
		pq, err := req.prepare(req.Query)
		if err != nil {
			return nil, err
		}
		var blocks atomic.Int64
		pq.AttachBlockCounter(&blocks)
		respond := func(ms []Match, st Stats) (*SearchResponse, error) {
			st.BlockReads += int(blocks.Load())
			return &SearchResponse{Matches: ms, Stats: st}, nil
		}
		if annOnly {
			ms, stats, err := scatter(ctx, v.parts, req.K, width, nil, func(i int, shared *core.SharedBound) ([]Match, Stats, error) {
				return v.parts[i].annApprox(ctx, pq, req.K, shared)
			})
			if err != nil {
				return nil, err
			}
			stats.UsedANN = true
			return respond(ms, stats)
		}
		// One bucket lookup serves both the seed pass and the hashing stage.
		buckets := hashBuckets(v.parts, pq)
		if req.Mode == ModeApproximate {
			ms, stats, err := approxScatter(ctx, v.parts, pq, buckets, req.K, width, req.Ann)
			if err != nil {
				return nil, err
			}
			stats.UsedHashing = true
			return respond(ms, stats)
		}
		seed, err := scoreSeed(ctx, v.parts, pq, buckets, req.K)
		if err != nil {
			return nil, err
		}
		ms, stats, err := exactSeeded(ctx, v.parts, pq, req.K, width, seed)
		if err != nil {
			return nil, err
		}
		if req.Mode == ModeExact || (stats.Converged && exactGoodEnough(ms, v.tau)) {
			return respond(ms, stats)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		approx, astats, err := approxScatter(ctx, v.parts, pq, buckets, req.K, width, req.Ann)
		if err != nil {
			return nil, err
		}
		stats.UsedHashing = true
		stats.addANN(astats)
		if len(approx) == 0 {
			return respond(ms, stats)
		}
		return respond(approx, stats)
	case ModeSketch:
		// Sketch work items are (sketch shape × part) pairs, so the plan
		// covers the full task count.
		width := pl.Width(len(v.parts)*len(req.Sketch), pol, maxw)
		sms, stats, err := sketchScatter(ctx, v.parts, req, width)
		if err != nil {
			return nil, err
		}
		return &SearchResponse{SketchMatches: sms, Stats: stats}, nil
	}
	return nil, fmt.Errorf("geosir: unknown search mode %d", int(req.Mode))
}

// prepare normalizes one query shape and builds its oracle and envelope:
// once per request (per sketch shape), however many parts and stages then
// search it.
func (r SearchRequest) prepare(q Shape) (*core.PreparedQuery, error) {
	if r.onPrepare != nil {
		r.onPrepare()
	}
	return core.PrepareQuery(q)
}

// exactGoodEnough reports whether the exact result is close enough to
// skip the hashing fallback: the best match is within the τ similarity
// threshold.
func exactGoodEnough(ms []Match, tau float64) bool {
	return len(ms) > 0 && ms[0].Distance <= tau
}

// scatter runs op on every part, on up to width goroutines, and merges:
// the sorted per-part top-k lists exactly (mergeTopK), the stats by
// mergeStats. Parts hold disjoint live shape sets, so any part's k-th
// best bounds the merged k-th best from above, and sharing one bound lets
// parts abandon each other's hopeless candidates mid-flight without
// changing the merge (DESIGN.md §4.9). The bound is the caller's when it
// brings one (the hash seed); otherwise a fresh one — for two or more
// parts only: a lone part would read back nothing but its own k-th best,
// which already is its cutoff.
func scatter(ctx context.Context, parts []part, k, width int, shared *core.SharedBound,
	op func(i int, shared *core.SharedBound) ([]Match, Stats, error)) ([]Match, Stats, error) {
	if shared == nil && len(parts) > 1 {
		shared = core.NewSharedBound()
	}
	lists := make([][]Match, len(parts))
	stats := make([]Stats, len(parts))
	err := fanout(ctx, len(parts), width, func(i int) (err error) {
		lists[i], stats[i], err = op(i, shared)
		return err
	})
	if err != nil {
		return nil, Stats{}, err
	}
	return mergeTopK(lists, k), mergeStats(stats), nil
}

// exactScatter is the exact measure over every part under one bound
// (scatter). Because per-shape distances are intrinsic to (query, shape)
// and every shape lives on exactly one part, the merged top-k of the
// parts' scans is the true global top-k. It is proven — Converged — unless
// it asks for more matches than the base holds: the k-th best does not
// exist, even though every part, capped at what it holds, proved its own
// list, and ModeAuto must fall back to hashing.
func exactScatter(ctx context.Context, parts []part, pq *core.PreparedQuery, k, width int, shared *core.SharedBound, scored []map[int]core.Match) ([]Match, Stats, error) {
	ms, stats, err := scatter(ctx, parts, k, width, shared, func(i int, shared *core.SharedBound) ([]Match, Stats, error) {
		var known map[int]core.Match
		if scored != nil {
			known = scored[i]
		}
		return parts[i].exact(ctx, pq, k, shared, known)
	})
	if err != nil {
		return nil, Stats{}, err
	}
	live := 0
	for _, p := range parts {
		live += p.liveShapes()
	}
	stats.Converged = k <= live
	return ms, stats, nil
}

// exactSeeded is the exact phase of a request, bound first: every part
// scans under the seed (hashSeed.bound) — and each frozen part takes what
// the seed pass proved about its bucket shapes instead of scoring them
// again (hashSeed.scored). A bucket short of k live shapes seeds nothing,
// and the parts scan under a fresh shared bound instead.
//
// The seed is admissible for the shapes that were live when it was
// scored. Frozen parts and their tombstones are fixed by the view, but a
// delete may reach the active delta between the seed pass and its scan;
// the bound can then sit below the k-th best of what is left. The answer
// itself tells: k merged matches within the seed are exactly the top k
// (everything discarded is proven farther); anything less and the search
// runs again unseeded.
func exactSeeded(ctx context.Context, parts []part, pq *core.PreparedQuery, k, width int, seed *hashSeed) ([]Match, Stats, error) {
	shared, scored := seed.bound(), seed.scored
	if shared == nil {
		scored = nil // what the pass proved, it proved against the seed
	}
	for {
		ms, stats, err := exactScatter(ctx, parts, pq, k, width, shared, scored)
		if err != nil {
			return nil, Stats{}, err
		}
		if shared == nil || (len(ms) == k && ms[k-1].Distance <= seed.kth.Kth()) {
			return ms, stats, nil
		}
		shared, scored = nil, nil
	}
}

// hashBuckets returns, per part, the live shapes on the prepared query's
// hash curves. Every part shares one deterministic curve family, so the
// query hashes to the same characteristic quadruple everywhere and a
// single table's bucket is exactly the union of the per-part buckets. The
// widening decision is therefore global: only if the radius-0 union over
// every part (after tombstone filtering — a deleted shape is no
// candidate) is empty do all parts widen to the neighbor curves —
// per-part widening would admit candidates a single table never sees.
func hashBuckets(parts []part, pq *core.PreparedQuery) [][]int {
	cand := make([][]int, len(parts))
	if len(parts) == 0 {
		return cand
	}
	quad := parts[0].family().Characteristic(pq.Entry().Poly.Pts)
	for radius := 0; radius <= 1; radius++ {
		total := 0
		for i, p := range parts {
			cand[i] = p.liveBucket(quad, radius)
			total += len(cand[i])
		}
		if total > 0 {
			break
		}
	}
	return cand
}

// hashSeed is the bound-first half of an exact request (DESIGN.md §4.9):
// before the scan, the query's hash buckets are scored with the bounded
// evaluators, and the k-th smallest distance among their live shapes —
// any k live shapes bound the merged k-th best from above — becomes the
// bound every part's scan runs under.
type hashSeed struct {
	kth *core.DistTopK
	// scored is, per part, what the pass proved about each bucket shape: its
	// distance and realizing copy, or (EntryID -1) that it lies strictly
	// above the k-th running when its turn came — by its score, or by its
	// floor when the pass stopped in front of it — which the final k-th, the
	// seed, only undercuts. Nil switches the hand-over off.
	scored []map[int]core.Match
}

// scoreSeed scores the request's hash buckets, once and best-first over
// every part at once (scoreBucket), each shape under the running k-th: a
// shape proven worse than it cannot lower it.
func scoreSeed(ctx context.Context, parts []part, pq *core.PreparedQuery, buckets [][]int, k int) (*hashSeed, error) {
	s := &hashSeed{kth: core.NewDistTopK(k), scored: make([]map[int]core.Match, len(parts))}
	var stack [bucketStack]bucketShape
	cands := stack[:0]
	for i, p := range parts {
		s.scored[i] = make(map[int]core.Match, len(buckets[i]))
		cands = appendFloors(cands, p, i, buckets[i], pq)
	}
	err := scoreBucket(ctx, parts, pq, cands, s.kth.Kth, func(c bucketShape, m Match, entry int, ok bool) {
		if ok {
			s.kth.Add(m.Distance)
		}
		s.scored[c.part][int(c.id)] = core.Match{ShapeID: int(c.id), EntryID: entry, DistVertex: m.Distance}
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// bucketShape is one candidate of a bucket pass: shape id of parts[part],
// with the floor its part puts under its distance.
type bucketShape struct {
	part, id int32
	floor    float64
}

// bucketStack is how many candidates a bucket pass lists on its stack (4
// KiB; the 200-image paper base puts 157 shapes in a query's bucket): a
// larger bucket moves the list to the heap, once per pass.
const bucketStack = 256

// appendFloors appends the part's candidates ids, each with its floor.
func appendFloors(cands []bucketShape, p part, pi int, ids []int, pq *core.PreparedQuery) []bucketShape {
	for _, id := range ids {
		cands = append(cands, bucketShape{part: int32(pi), id: int32(id), floor: p.floor(id, pq)})
	}
	return cands
}

// scoreBucket is the one loop that scores hash-bucket (or ANN) candidates,
// best-first (DESIGN.md §4.9, "The bucket is scored best-first"): cands are
// sorted by floor — stably, so the order they were listed in survives among
// equal floors — and each is scored by its part under the cutoff current
// when its turn comes, which the shapes likeliest to be near have tightened
// by then. The first candidate whose floor exceeds the cutoff ends the pass:
// the cutoff only falls and the floors after it only rise, so it and
// everything behind it is proven strictly outside, unscored. took sees
// every candidate once, scored or not — ok false, entry -1 for one proven
// outside. Every reject is strict against a cutoff that never undercuts the
// final k-th, so what took is shown within the final cutoff does not depend
// on the order. ctx is checked every 32 candidates, as the scan does.
func scoreBucket(ctx context.Context, parts []part, pq *core.PreparedQuery, cands []bucketShape,
	cutoff func() float64, took func(c bucketShape, m Match, entry int, ok bool)) error {
	slices.SortStableFunc(cands, func(a, b bucketShape) int { return cmp.Compare(a.floor, b.floor) })
	for i, c := range cands {
		if i&31 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		cut := cutoff()
		if c.floor > cut {
			for _, behind := range cands[i:] {
				took(behind, Match{}, -1, false)
			}
			return nil
		}
		m, entry, ok := parts[c.part].scoreBounded(int(c.id), pq, cut)
		took(c, m, entry, ok)
	}
	return nil
}

// bound returns a shared bound tightened to the seed, or nil when the
// buckets held fewer than k live shapes: any k live shapes seed the scan,
// and the seed changes how much work it does, never its answer.
func (s *hashSeed) bound() *core.SharedBound {
	sv := s.kth.Kth()
	if math.IsInf(sv, 1) {
		return nil
	}
	sb := core.NewSharedBound()
	sb.Tighten(sv)
	return sb
}

// approxScatter answers from the parts' geometric hash tables alone (§3):
// every part's bucket, ranked with the similarity measure under one
// shared bound. A non-off ann mode reorders each bucket best-first by ANN
// agreement before scoring — a pure visit-order change (the admissible
// cutoffs make the surviving top-k order-invariant), kept among candidates
// of equal floor (scoreBucket) and reported in the returned Stats' ANN
// fields.
func approxScatter(ctx context.Context, parts []part, pq *core.PreparedQuery, buckets [][]int, k, width int, ann AnnMode) ([]Match, Stats, error) {
	return scatter(ctx, parts, k, width, nil, func(i int, shared *core.SharedBound) ([]Match, Stats, error) {
		ids := buckets[i]
		var st Stats
		if ann != AnnOff {
			ids, st = parts[i].annOrder(pq, ids)
		}
		ms, err := scoreCandidates(ctx, parts[i], pq, ids, k, shared)
		return ms, st, err
	})
}

// scoreCandidates ranks one part's candidates against a prepared query,
// best-first (scoreBucket), skipping shapes proven unable to make the final
// top-k: every candidate is scored under the tightest currently-proven
// cutoff — the k-th best distance scored so far, and (when non-nil) the
// bound shared with the sibling parts — and the bounded evaluation abandons
// a shape as soon as its floor or a partial sum proves its distance
// strictly above that cutoff. Both cutoffs only ever hold values ≥ the
// final k-th best, and the skip is strict, so the surviving list truncates
// to a top-k byte-identical to the exhaustive ranking (DESIGN.md §4.9).
// Candidates are live when they are listed, so a published bound only ever
// reflects shapes that can appear in the final answer.
func scoreCandidates(ctx context.Context, p part, pq *core.PreparedQuery, ids []int, k int, shared *core.SharedBound) ([]Match, error) {
	out := make([]Match, 0, len(ids))
	kth := core.NewDistTopK(k)
	cutoff := func() float64 {
		cut := kth.Kth()
		if shared != nil {
			cut = min(cut, shared.Load())
		}
		return cut
	}
	var stack [bucketStack]bucketShape
	cands := appendFloors(stack[:0], p, 0, ids, pq)
	err := scoreBucket(ctx, []part{p}, pq, cands, cutoff, func(_ bucketShape, m Match, _ int, ok bool) {
		if !ok {
			return
		}
		kth.Add(m.Distance)
		if shared != nil {
			if v := kth.Kth(); !math.IsInf(v, 1) {
				shared.Tighten(v)
			}
		}
		out = append(out, m)
	})
	if err != nil {
		return nil, err
	}
	sortMatches(out)
	return out, nil
}

// frozenPart is a frozen Engine as one part of a view: its shapes minus
// the view's tombstones, its local shape ids mapped to global ones. A
// single Engine is the part with neither (smap nil: ids are global
// already).
type frozenPart struct {
	e     *Engine
	shard int
	smap  *core.ShardMap
	dead  map[int]bool // tombstoned local shape ids
}

func (p *frozenPart) liveShapes() int         { return p.e.NumShapes() - len(p.dead) }
func (p *frozenPart) family() *geohash.Family { return p.e.family }

// global maps a local shape id to its global id. Within one shard local
// id order is ascending global id order, so a list sorted by (Distance,
// local id) is sorted by (Distance, global id).
func (p *frozenPart) global(local int) int {
	if p.smap == nil {
		return local
	}
	return p.smap.Global(p.shard, local)
}

// live drops the tombstoned shape ids, in place.
func (p *frozenPart) live(ids []int) []int {
	if len(p.dead) == 0 {
		return ids
	}
	out := ids[:0]
	for _, id := range ids {
		if !p.dead[id] {
			out = append(out, id)
		}
	}
	return out
}

func (p *frozenPart) liveBucket(quad geohash.Quadruple, radius int) []int {
	return p.live(p.e.table.Lookup(quad, radius))
}

func (p *frozenPart) scoreBounded(id int, pq *core.PreparedQuery, cutoff float64) (Match, int, bool) {
	base := p.e.db.Base()
	m, ok, err := base.ShapeDistancePreparedBounded(id, pq, cutoff)
	if err != nil || !ok {
		return Match{}, -1, false
	}
	return Match{ShapeID: p.global(id), ImageID: base.Shape(id).Image, Distance: m.DistVertex, Approximate: true}, m.EntryID, true
}

func (p *frozenPart) floor(id int, pq *core.PreparedQuery) float64 {
	return p.e.db.Base().ShapeFloor(id, pq)
}

// exact is the exact search — one bounded scan — for min(k, live shapes)
// matches, skipping tombstoned shapes inside the kernel, before they are
// scored: a part cannot supply more than it holds. A capped part must not
// publish — its k'-th best does not bound the merged k-th — but may
// consume, since anything it discards is proven outside the merged top-k
// (DESIGN.md §4.9).
func (p *frozenPart) exact(ctx context.Context, pq *core.PreparedQuery, k int, shared *core.SharedBound, scored map[int]core.Match) ([]Match, Stats, error) {
	kk := min(k, p.liveShapes())
	if kk == 0 {
		return nil, Stats{}, nil // every shape tombstoned
	}
	base := p.e.db.Base()
	ms, st, err := base.MatchPrepared(ctx, pq, kk, core.MatchOpts{Shared: shared, Publish: kk == k, Dead: p.dead, Scored: scored}, true)
	if err != nil {
		if p.smap != nil {
			err = fmt.Errorf("geosir: shard %d: %w", p.shard, err)
		}
		return nil, Stats{}, err
	}
	stats := Stats{
		Iterations:      st.Iterations,
		FinalEpsilon:    st.FinalEpsilon,
		VerticesCounted: st.VerticesCounted,
		Candidates:      st.Candidates,
		BlockReads:      st.BlocksRead,
	}
	out := make([]Match, len(ms))
	for i, m := range ms {
		out[i] = Match{
			ShapeID:            p.global(m.ShapeID),
			ImageID:            base.Shape(m.ShapeID).Image,
			Distance:           m.DistVertex,
			ContinuousDistance: m.DistContinuous,
		}
	}
	return out, stats, nil
}

func (p *frozenPart) annApprox(ctx context.Context, pq *core.PreparedQuery, k int, shared *core.SharedBound) ([]Match, Stats, error) {
	shapes, probes := p.e.annCandidates(pq, annMinShapes(k))
	shapes = p.live(shapes)
	ms, err := scoreCandidates(ctx, p, pq, shapes, k, shared)
	return ms, annStats(probes, len(shapes)), err
}

// sketchTable is the best distance per live image to one sketch shape: a
// scan of every live shape, tombstones skipped before they are scored —
// what the delta's sketch table is. Under AnnApprox only the live ANN
// candidates are scored (exactly); images whose every shape went unprobed
// are absent — the sketch ranking's recall cost, measured by
// BenchmarkAnnSketchApprox.
func (p *frozenPart) sketchTable(ctx context.Context, pq *core.PreparedQuery, k int, ann AnnMode) (map[int]float64, Stats, error) {
	base := p.e.db.Base()
	best := make(map[int]float64)
	keep := func(sid int, d float64) {
		img := base.Shape(sid).Image
		if cur, ok := best[img]; !ok || d < cur {
			best[img] = d
		}
	}
	var stats Stats
	if ann == AnnApprox {
		shapes, probes := p.e.annCandidates(pq, annSketchMinShapes(k))
		shapes = p.live(shapes)
		for _, sid := range shapes {
			if m, _, err := base.ShapeDistancePreparedBounded(sid, pq, math.Inf(1)); err == nil {
				keep(sid, m.DistVertex)
			}
		}
		stats = annStats(probes, len(shapes))
	} else if live := p.liveShapes(); live > 0 {
		ms, st, err := base.MatchPrepared(ctx, pq, live, core.MatchOpts{Dead: p.dead}, false)
		if err != nil {
			return nil, Stats{}, err
		}
		for _, m := range ms {
			keep(m.ShapeID, m.DistVertex)
		}
		stats.BlockReads = st.BlocksRead
	}
	return best, stats, nil
}

// deltaPart is a live delta as a part. It has no ANN tier: its exact
// search is the bounded scan a frozen part runs, over its own live shapes,
// and every live shape is an ANN candidate — strictly better recall than
// any probe. It publishes its own k-th best, which exists only once it has
// scored k live shapes (§4.12). Delta matches carry global ids already.
type deltaPart struct{ d *ingest.Delta }

func (p deltaPart) liveShapes() int         { return p.d.NumShapes() }
func (p deltaPart) family() *geohash.Family { return p.d.Family() }

func (p deltaPart) liveBucket(quad geohash.Quadruple, radius int) []int {
	return p.d.Candidates(quad, radius)
}

func (p deltaPart) scoreBounded(id int, pq *core.PreparedQuery, cutoff float64) (Match, int, bool) {
	m, ok := p.d.ScoreBounded(id, pq, cutoff)
	return Match{ShapeID: m.GID, ImageID: m.ImageID, Distance: m.Distance, Approximate: true}, -1, ok
}

func (p deltaPart) floor(id int, pq *core.PreparedQuery) float64 { return p.d.Floor(id, pq) }

func (p deltaPart) annOrder(_ *core.PreparedQuery, ids []int) ([]int, Stats) { return ids, Stats{} }

// scan is the delta's bounded scan. Exact results carry the continuous
// measure; approximate ones do not, matching the frozen paths.
func (p deltaPart) scan(ctx context.Context, pq *core.PreparedQuery, k int, shared *core.SharedBound, approx bool) ([]Match, Stats, error) {
	ms, evaluated, err := p.d.Match(ctx, pq, k, core.MatchOpts{Shared: shared, Publish: true}, !approx)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("geosir: delta: %w", err)
	}
	out := make([]Match, len(ms))
	for i, m := range ms {
		out[i] = Match{ShapeID: m.GID, ImageID: m.ImageID, Distance: m.Distance, ContinuousDistance: m.Continuous, Approximate: approx}
	}
	return out, Stats{Candidates: evaluated}, nil
}

// exact scores every live shape itself, the seed's bucket included: a
// delete can reach the delta between the seed pass and this scan.
func (p deltaPart) exact(ctx context.Context, pq *core.PreparedQuery, k int, shared *core.SharedBound, _ map[int]core.Match) ([]Match, Stats, error) {
	return p.scan(ctx, pq, k, shared, false)
}

func (p deltaPart) annApprox(ctx context.Context, pq *core.PreparedQuery, k int, shared *core.SharedBound) ([]Match, Stats, error) {
	ms, _, err := p.scan(ctx, pq, k, shared, true)
	return ms, Stats{}, err
}

func (p deltaPart) sketchTable(ctx context.Context, pq *core.PreparedQuery, _ int, _ AnnMode) (map[int]float64, Stats, error) {
	best, err := p.d.SketchTable(ctx, pq)
	return best, Stats{}, err
}

// validateSketch applies the shared sketch preconditions.
func validateSketch(sketch []Shape) error {
	if len(sketch) == 0 {
		return ErrEmptyQuery
	}
	for si, q := range sketch {
		if err := q.Validate(); err != nil {
			return fmt.Errorf("geosir: sketch shape %d: %w", si, err)
		}
	}
	return nil
}

// sketchScatter implements the §6 user flow: a query sketch is decomposed
// into several polylines, and images are ranked by how well they match
// *all* of them. Every (sketch shape, part) pair is an independent index
// read; each shape's per-part best-distance tables are unioned after the
// barrier (parts hold disjoint live image sets, so union is just map
// merge) and ranked by scoreSketchTables, so the result is identical to
// the sequential evaluation order.
func sketchScatter(ctx context.Context, parts []part, req SearchRequest, width int) ([]SketchMatch, Stats, error) {
	sketch, k := req.Sketch, req.K
	if err := validateSketch(sketch); err != nil {
		return nil, Stats{}, err
	}
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	var blocks atomic.Int64
	pqs := make([]*core.PreparedQuery, len(sketch))
	for si, q := range sketch {
		pq, err := req.prepare(q)
		if err != nil {
			return nil, Stats{}, fmt.Errorf("geosir: sketch shape %d: %w", si, err)
		}
		pq.AttachBlockCounter(&blocks)
		pqs[si] = pq
	}
	per := len(parts)
	tables := make([]map[int]float64, len(sketch)*per)
	tableStats := make([]Stats, len(tables))
	err := fanout(ctx, len(tables), width, func(t int) (err error) {
		si := t / per
		tables[t], tableStats[t], err = parts[t%per].sketchTable(ctx, pqs[si], k, req.Ann)
		if err != nil {
			return fmt.Errorf("geosir: sketch shape %d: %w", si, err)
		}
		return nil
	})
	if err != nil {
		return nil, Stats{}, err
	}
	stats := Stats{BlockReads: int(blocks.Load())}
	for _, st := range tableStats {
		stats.addANN(st)
	}
	perShape := make([]map[int]float64, len(sketch))
	for si := range sketch {
		best := make(map[int]float64)
		for _, table := range tables[si*per : (si+1)*per] {
			for img, d := range table {
				best[img] = d
			}
		}
		perShape[si] = best
	}
	return scoreSketchTables(perShape, k), stats, nil
}

// scoreSketchTables merges per-sketch-shape best-distance tables into
// the ranked per-image view: images missing a counterpart for some
// sketch shape are dropped, complete ones are scored by the mean of
// their per-shape distances and ordered by (Score, ImageID). Both the
// single engine and the sharded engine feed their tables through here,
// so the ranking rule exists exactly once.
func scoreSketchTables(perShape []map[int]float64, k int) []SketchMatch {
	perImage := make(map[int][]float64)
	for si, best := range perShape {
		for img, d := range best {
			ds, ok := perImage[img]
			if !ok {
				ds = make([]float64, len(perShape))
				for i := range ds {
					ds[i] = math.Inf(1)
				}
				perImage[img] = ds
			}
			ds[si] = d
		}
	}
	out := make([]SketchMatch, 0, len(perImage))
	for img, ds := range perImage {
		var sum float64
		complete := true
		for _, d := range ds {
			if math.IsInf(d, 1) {
				complete = false
				break
			}
			sum += d
		}
		if !complete {
			continue // the image lacks a counterpart for some sketch shape
		}
		out = append(out, SketchMatch{
			ImageID:  img,
			Score:    sum / float64(len(ds)),
			PerShape: ds,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score < out[j].Score
		}
		return out[i].ImageID < out[j].ImageID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
