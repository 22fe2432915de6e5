package geosir

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/sched"
)

// Mode selects the retrieval strategy of a Search.
type Mode int

const (
	// ModeAuto runs the exact ε-envelope fattening search and falls back
	// to geometric hashing when it fails to converge on a sufficiently
	// close match — the paper's §6 retrieval flow.
	ModeAuto Mode = iota
	// ModeExact runs only the exact fattening search. The response never
	// contains approximate matches; Stats.Converged reports whether the
	// result is proven optimal.
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
	// Workers is the pre-ExecPolicy fan-out knob.
	//
	// Deprecated: set Exec and MaxWorkers instead. A positive Workers
	// (with Exec and MaxWorkers unset) still behaves as it always did —
	// it maps onto ExecFanout with MaxWorkers = Workers — and ≤ 0, the
	// old "use GOMAXPROCS" default, maps onto ExecAuto.
	Workers int
	// Mode selects the retrieval strategy.
	Mode Mode
	// Ann selects the MinHash/LSH candidate tier's role: AnnOff (the
	// zero value) ignores it, AnnVerify uses it to order work without
	// changing results, AnnApprox answers from its candidate set alone
	// (sublinear, measured recall). See AnnMode.
	Ann AnnMode
}

// SearchResponse is the result of a Search.
type SearchResponse struct {
	// Matches holds the retrieved shapes of the single-shape modes,
	// ordered by increasing Distance with ShapeID tie-break.
	Matches []Match
	// SketchMatches holds the ranked images of ModeSketch.
	SketchMatches []SketchMatch
	// Stats reports the retrieval work. For a ShardedEngine it
	// aggregates over shards: counters sum, Iterations/FinalEpsilon are
	// maxima, and Converged is true only if every shard converged.
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
// pair for internal/sched, folding the deprecated Workers alias in: a
// positive Workers with Exec and MaxWorkers unset reproduces the old
// explicit-workers behavior exactly — forced fan-out capped at Workers —
// while the old ≤ 0 default falls through to ExecAuto.
func (r SearchRequest) execPlan() (sched.Policy, int) {
	switch r.Exec {
	case ExecFanout:
		return sched.Fanout, r.MaxWorkers
	case ExecSequential:
		return sched.Sequential, r.MaxWorkers
	}
	if r.MaxWorkers <= 0 && r.Workers > 0 {
		return sched.Fanout, r.Workers
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

// SchedStats reports the engine's execution-scheduler counters. Only
// ModeSketch requests plan a fan-out on a single Engine, so the plan
// counters stay zero under the single-shape modes.
func (e *Engine) SchedStats() SchedStats { return schedStatsFrom(e.sched.Stats()) }

// Search answers one retrieval request against the frozen engine. It is
// safe for any number of concurrent callers. The context is checked at
// stage boundaries (before the exact search and again before the
// hashing fallback), so a request whose deadline has passed never pays
// for the next stage.
func (e *Engine) Search(ctx context.Context, req SearchRequest) (*SearchResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !e.frozen {
		return nil, ErrNotFrozen
	}
	if req.K <= 0 {
		return nil, ErrBadK
	}
	release := e.sched.Enter()
	defer release()
	switch req.Mode {
	case ModeAuto, ModeExact:
		if len(req.Query.Pts) == 0 {
			return nil, ErrEmptyQuery
		}
		if req.Mode == ModeAuto && req.Ann == AnnApprox && e.ann != nil {
			ms, stats, err := e.searchAnnApprox(req.Query, req.K, nil)
			if err != nil {
				return nil, err
			}
			return &SearchResponse{Matches: ms, Stats: stats}, nil
		}
		pq, err := prepareExact(req.Query)
		if err != nil {
			return nil, err
		}
		seed := newHashSeed(pq, req.K)
		seed.addShard(e, e.hashBucket(pq))
		rank, annStats := e.annRank(req.Query, req.Ann)
		ms, stats, err := e.searchExactShared(pq, req.K, core.MatchOpts{Rank: rank, Shared: seed.bound()})
		if err != nil {
			return nil, err
		}
		stats.BlockReads += seed.blockReads()
		stats.addANN(annStats)
		if req.Mode == ModeExact || (stats.Converged && exactGoodEnough(ms, e.db.Tau())) {
			return &SearchResponse{Matches: ms, Stats: stats}, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		approx, astats, err := e.searchApprox(req.Query, req.K, req.Ann)
		if err != nil {
			return nil, err
		}
		stats.UsedHashing = true
		stats.addANN(astats)
		if len(approx) == 0 {
			return &SearchResponse{Matches: ms, Stats: stats}, nil
		}
		return &SearchResponse{Matches: approx, Stats: stats}, nil
	case ModeApproximate:
		if len(req.Query.Pts) == 0 {
			return nil, ErrEmptyQuery
		}
		if req.Ann == AnnApprox && e.ann != nil {
			ms, stats, err := e.searchAnnApprox(req.Query, req.K, nil)
			if err != nil {
				return nil, err
			}
			return &SearchResponse{Matches: ms, Stats: stats}, nil
		}
		ms, stats, err := e.searchApprox(req.Query, req.K, req.Ann)
		if err != nil {
			return nil, err
		}
		stats.UsedHashing = true
		return &SearchResponse{Matches: ms, Stats: stats}, nil
	case ModeSketch:
		pol, maxw := req.execPlan()
		width := e.sched.Width(len(req.Sketch), pol, maxw)
		sms, stats, err := e.searchSketch(ctx, req.Sketch, req.K, width, req.Ann)
		if err != nil {
			return nil, err
		}
		return &SearchResponse{SketchMatches: sms, Stats: stats}, nil
	}
	return nil, fmt.Errorf("geosir: unknown search mode %d", int(req.Mode))
}

// exactGoodEnough reports whether the exact result is close enough to
// skip the hashing fallback: the best match is within the τ similarity
// threshold.
func exactGoodEnough(ms []Match, tau float64) bool {
	return len(ms) > 0 && ms[0].Distance <= tau
}

// prepareExact validates q and prepares it for the fattening search:
// one normalization, oracle and envelope per request, however many
// shards then search it.
func prepareExact(q Shape) (*core.PreparedQuery, error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid query: %w", err)
	}
	return core.PrepareQuery(q)
}

// hashSeed is the bound-first half of an exact request (DESIGN.md §4.9):
// before the fattening search, the query's hash bucket is scored with the
// bounded evaluators, and the k-th smallest distance among its live
// shapes — any k live shapes bound the merged k-th best from above —
// becomes the bound every part's search opens at.
type hashSeed struct {
	pq     *core.PreparedQuery
	kth    *distTopK
	epsMax float64 // smallest ε_max among the frozen parts added
	blocks atomic.Int64
}

func newHashSeed(pq *core.PreparedQuery, k int) *hashSeed {
	s := &hashSeed{pq: pq, kth: newDistTopK(k), epsMax: math.Inf(1)}
	pq.AttachBlockCounter(&s.blocks)
	return s
}

// addShard scores one frozen part's live bucket shapes, each under the
// running k-th: a shape proven worse than it cannot lower it. The part
// will search under the seed, so its ε_max joins the fit rule (bound).
func (s *hashSeed) addShard(e *Engine, ids []int) {
	base := e.db.Base()
	s.epsMax = min(s.epsMax, base.EpsilonMax(s.pq.Entry().Poly.Perimeter()))
	for _, sid := range ids {
		if d, ok, err := base.ShapeDistancePreparedBounded(sid, s.pq, s.kth.Kth()); err == nil && ok {
			s.kth.Add(d)
		}
	}
}

// addDelta is addShard for a mutable part (it opens no envelope, so it
// has no ε_max to fit).
func (s *hashSeed) addDelta(d *ingest.Delta, ids []int) {
	for _, id := range ids {
		if m, ok := d.ScoreBounded(id, s.pq, s.kth.Kth()); ok {
			s.kth.Add(m.Distance)
		}
	}
}

// bound returns a shared bound tightened to the seed, or nil when there
// is none to use: the bucket held fewer than k live shapes, or the one
// envelope a search under the seed opens with (core's openingEpsilon
// width) does not fit under the ε_max of every frozen part that would
// consume it. Under a fitting seed every part converges on that first
// envelope, so Converged — and ModeAuto's fallback decision — does not
// depend on which sibling publishes first, and a search that converges
// without the seed returns the same bytes with it.
func (s *hashSeed) bound() *core.SharedBound {
	sv := s.kth.Kth()
	if math.IsInf(sv, 1) || 2*sv*1.0001 > s.epsMax {
		return nil
	}
	sb := core.NewSharedBound()
	sb.Tighten(sv)
	return sb
}

// blockReads is the page-granular storage the seed pass touched.
func (s *hashSeed) blockReads() int { return int(s.blocks.Load()) }

// searchExactShared is the fattening search of one prepared query (§2.5)
// under the sharing options of a partitioned base (bound, publication,
// tombstones) and an optional a-priori rank; see core.MatchOpts.
func (e *Engine) searchExactShared(pq *core.PreparedQuery, k int, o core.MatchOpts) ([]Match, Stats, error) {
	ms, st, err := e.db.Base().MatchPrepared(pq, k, o)
	if err != nil {
		return nil, Stats{}, err
	}
	stats := Stats{
		Iterations:      st.Iterations,
		FinalEpsilon:    st.FinalEpsilon,
		VerticesCounted: st.VerticesCounted,
		Candidates:      st.Candidates,
		Converged:       st.Converged,
		BlockReads:      st.BlocksRead,
	}
	return e.toMatches(ms, false), stats, nil
}

// searchApprox answers from the geometric hash table alone (§3): hash
// the query, collect the shapes on the same (widening once to adjacent)
// curves, rank them with the similarity measure. The query is normalized
// and its boundary oracle built exactly once; every candidate is scored
// through the prepared query against the base's frozen per-entry
// oracles. A non-off ann mode reorders the candidates best-first by ANN
// agreement before scoring — a pure visit-order change (the admissible
// cutoffs make the surviving top-k order-invariant), reported in the
// returned Stats' ANN fields.
func (e *Engine) searchApprox(q Shape, k int, ann AnnMode) ([]Match, Stats, error) {
	pq, err := core.PrepareQuery(q)
	if err != nil {
		return nil, Stats{}, err
	}
	var blocks atomic.Int64
	pq.AttachBlockCounter(&blocks)
	ids := e.hashBucket(pq)
	var st Stats
	if ann != AnnOff {
		ids, st = e.annOrderShapes(q, ids)
	}
	out := e.scoreApprox(pq, ids, k, nil)
	st.BlockReads = int(blocks.Load())
	sortMatches(out)
	if len(out) > k {
		out = out[:k]
	}
	return out, st, nil
}

// hashBucket returns the shapes on the prepared query's hash curves,
// widening once to the neighbor curves when there are none.
func (e *Engine) hashBucket(pq *core.PreparedQuery) []int {
	quad := e.family.Characteristic(pq.Entry().Poly.Pts)
	ids := e.table.Lookup(quad, 0)
	if len(ids) == 0 {
		ids = e.table.Lookup(quad, 1)
	}
	return ids
}

// scoreApprox ranks hash-table candidates against a prepared query,
// skipping shapes proven unable to make the final top-k: every candidate
// is scored under the tightest currently-proven cutoff — the k-th best
// distance scored so far, and (when non-nil) the bound shared with the
// sibling shards of a partitioned base — and the bounded evaluation
// abandons a shape as soon as a partial sum proves its distance strictly
// above that cutoff. Both cutoffs only ever hold values ≥ the final k-th
// best, and the skip is strict, so the surviving list truncates to a
// top-k byte-identical to the exhaustive ranking (DESIGN.md §4.9).
// Shapes that fail to score (stale ids) are also skipped.
func (e *Engine) scoreApprox(pq *core.PreparedQuery, ids []int, k int, shared *core.SharedBound) []Match {
	base := e.db.Base()
	out := make([]Match, 0, len(ids))
	kth := newDistTopK(k)
	for _, sid := range ids {
		cut := kth.Kth()
		if shared != nil {
			if sv := shared.Load(); sv < cut {
				cut = sv
			}
		}
		d, ok, err := base.ShapeDistancePreparedBounded(sid, pq, cut)
		if err != nil || !ok {
			continue
		}
		kth.Add(d)
		if shared != nil {
			if v := kth.Kth(); !math.IsInf(v, 1) {
				shared.Tighten(v)
			}
		}
		out = append(out, Match{
			ShapeID:     sid,
			ImageID:     base.Shape(sid).Image,
			Distance:    d,
			Approximate: true,
		})
	}
	return out
}

// distTopK tracks the k-th smallest of a distance stream with a size-
// bounded max-heap: Kth is +Inf until k distances have been seen, so the
// cutoff it feeds never prunes while the top-k is under-filled.
type distTopK struct {
	k int
	h []float64 // max-heap
}

func newDistTopK(k int) *distTopK { return &distTopK{k: k} }

func (t *distTopK) Kth() float64 {
	if t.k <= 0 || len(t.h) < t.k {
		return math.Inf(1)
	}
	return t.h[0]
}

func (t *distTopK) Add(d float64) {
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

// searchSketch implements the §6 user flow: a query sketch is decomposed
// into several polylines, and images are ranked by how well they match
// *all* of them. The per-sketch-shape retrievals are independent index
// reads and run concurrently on up to width goroutines — the planned
// fan-out width from internal/sched (work-stealing, see fanout); the
// per-image tables are merged after the barrier, so the result is
// identical to the sequential evaluation order.
func (e *Engine) searchSketch(ctx context.Context, sketch []Shape, k, width int, ann AnnMode) ([]SketchMatch, Stats, error) {
	if err := validateSketch(sketch); err != nil {
		return nil, Stats{}, err
	}
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}

	// For each sketch shape, the best distance per image, filled in by
	// that shape's worker (no shared writes before the barrier).
	useAnn := ann == AnnApprox && e.ann != nil
	perShape := make([]map[int]float64, len(sketch))
	perStats := make([]Stats, len(sketch))
	err := fanout(ctx, len(sketch), width, func(si int) error {
		var t map[int]float64
		var err error
		if useAnn {
			t, perStats[si], err = e.sketchShapeTableAnn(sketch[si], k)
		} else {
			t, perStats[si], err = e.sketchShapeTable(sketch[si])
		}
		if err != nil {
			return fmt.Errorf("geosir: sketch shape %d: %w", si, err)
		}
		perShape[si] = t
		return nil
	})
	if err != nil {
		return nil, Stats{}, err
	}
	var stats Stats
	for _, st := range perStats {
		stats.addANN(st)
	}
	return scoreSketchTables(perShape, k), stats, nil
}

// sketchShapeTable retrieves one sketch shape generously (enough shapes
// to cover every image once) and reduces the matches to the best
// distance per image.
func (e *Engine) sketchShapeTable(q Shape) (map[int]float64, Stats, error) {
	base := e.db.Base()
	ms, st, err := base.Match(q, base.NumShapes())
	if err != nil {
		return nil, Stats{}, err
	}
	best := make(map[int]float64)
	for _, m := range ms {
		img := base.Shape(m.ShapeID).Image
		if d, ok := best[img]; !ok || m.DistVertex < d {
			best[img] = m.DistVertex
		}
	}
	return best, Stats{BlockReads: st.BlocksRead}, nil
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
