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
	// ModeExact runs only the exact search: the query's distance field
	// floors every live shape, and shapes are scored in ascending floor
	// order until the next floor lies above the K-th best (DESIGN.md §4.9).
	// The response never contains approximate matches; Stats.Converged is
	// false only when K exceeds the live shapes.
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
// lists the same parts and refines them in one order (DESIGN.md §4.13).
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
	// zero value) ignores it, AnnApprox answers from its candidate set
	// alone (sublinear, measured recall). See AnnMode.
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
// case of the passes every request runs (search): the part is the engine
// itself, with identity shape ids and no tombstones.
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
// global shape ids.
type part interface {
	family() *geohash.Family
	// liveBucket returns the part's live shapes (part-local ids) on the
	// hash curves of quad, widened by radius: the hashing stage's listing
	// (hashBuckets), each then floored.
	liveBucket(quad geohash.Quadruple, radius int) []int
	// scoreBounded scores one listed shape under an admissible cutoff;
	// false when it is proven strictly above cutoff (or has since been
	// deleted). entry is the part-local normalized copy realizing the
	// distance, which continuous reads.
	scoreBounded(id int, pq *core.PreparedQuery, cutoff float64) (m Match, entry int, ok bool)
	// continuous is the continuous measure of a shape scoreBounded matched,
	// from its copy entry, and the block cost of re-reading that copy; 0 for
	// a shape deleted since (stale reports it).
	continuous(id, entry int, pq *core.PreparedQuery) (float64, int)
	// floor is a lower bound on the distance scoreBounded would report for
	// the candidate, at the cost of one table load per stored vertex: above
	// a cutoff it proves the candidate strictly outside it. 0 claims nothing.
	floor(id int, pq *core.PreparedQuery) float64
	// floors is pass 1 of the exact search (exactSearch): every live shape
	// of the part, as parts[pi], with its floor, and the copies floored and
	// their block cost in VerticesCounted and BlockReads.
	floors(ctx context.Context, pq *core.PreparedQuery, pi int32) ([]bucketShape, Stats, error)
	// annFloors is the listing of the sublinear ann:approx stage: the
	// part's ANN candidates for k, each with its floor, and the tier's
	// accounting. Each part applies the full annMinShapes floor, so the
	// union over N parts is at least as wide as one part's candidate set —
	// recall is monotone in the part count.
	annFloors(ctx context.Context, pq *core.PreparedQuery, k int, pi int32) ([]bucketShape, Stats, error)
	// stale reports whether a shape the last listing held has been deleted
	// since: only a live delta's can be.
	stale() bool
	// sketchTable is the best distance per live image to one sketch
	// shape; under AnnApprox, over the ANN candidates alone.
	sketchTable(ctx context.Context, pq *core.PreparedQuery, k int, ann AnnMode) (map[int]float64, Stats, error)
}

// searchView is what one request searches: the parts of one consistent
// snapshot of the base and its similarity threshold τ. The parts are built
// for the one request: a delta's keeps what its last listing saw (stale).
type searchView struct {
	parts []part
	tau   float64
}

// search is the request decision tree, the only one: validation, one
// query preparation, the fan-out plan, then per mode the paper's §6 flow
// over the view's parts — the exact search (exactSearch); geometric
// hashing when that finds no close match. Every single-shape stage is the
// same two passes (refine) over its own listing: every live shape, the hash
// bucket, or the ANN candidates. The view is taken once per request, so a
// compaction swapping shards mid-request never mixes two bases in one
// answer. The context is checked at stage boundaries, so a request whose
// deadline has passed never pays for the next stage.
//
// The width is planned once from req.Exec, the live in-flight gauge and
// GOMAXPROCS; both stages of a ModeAuto request run under the one plan.
// Width only changes how fast the answer arrives, never the answer or its
// Stats: only a stage's listing fans out, and its refine pass runs on the
// request's goroutine over a total order (DESIGN.md §4.13).
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
		// ModeExact, whose contract is exactness: there it is AnnOff.
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
		var blocks, evaluated atomic.Int64
		pq.AttachEvalCounter(&evaluated)
		respond := func(ms []Match, st Stats) (*SearchResponse, error) {
			st.BlockReads += int(blocks.Load())
			st.Candidates = int(evaluated.Load())
			return &SearchResponse{Matches: ms, Stats: st}, nil
		}
		var exact []Match
		var stats Stats
		if req.Mode != ModeApproximate && !annOnly {
			ms, st, err := exactSearch(ctx, v.parts, pq, req.K, width)
			if err != nil {
				return nil, err
			}
			if req.Mode == ModeExact || (st.Converged && exactGoodEnough(ms, v.tau)) {
				return respond(ms, st)
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			exact, stats = ms, st
		}
		// The exact search charged its block reads itself, each copy once;
		// the candidate stages charge theirs through the query.
		pq.AttachBlockCounter(&blocks)
		if annOnly {
			ms, stats, err := refine(ctx, v.parts, pq, req.K, width, false, func() listing {
				return func(i int) ([]bucketShape, Stats, error) { return v.parts[i].annFloors(ctx, pq, req.K, int32(i)) }
			})
			if err != nil {
				return nil, err
			}
			stats.UsedANN = true
			return respond(ms, stats)
		}
		approx, _, err := refine(ctx, v.parts, pq, req.K, width, false, func() listing {
			buckets := hashBuckets(v.parts, pq)
			return func(i int) ([]bucketShape, Stats, error) {
				return floored(v.parts[i], buckets[i], pq, int32(i)), Stats{}, nil
			}
		})
		if err != nil {
			return nil, err
		}
		stats.UsedHashing = true
		if len(approx) == 0 && req.Mode == ModeAuto {
			return respond(exact, stats)
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

// exactSearch is the exact stage of a request (DESIGN.md §4.9, "The exact
// search is two passes"): refine over every live shape of the view, each
// floored by the query's distance field. Only its k best are re-read for
// their continuous measure, and they alone are not Approximate. Converged
// unless k exceeds the live shapes; each copy's blocks are charged once, at
// its floor, plus the re-reads.
func exactSearch(ctx context.Context, parts []part, pq *core.PreparedQuery, k, width int) ([]Match, Stats, error) {
	return refine(ctx, parts, pq, k, width, true, func() listing {
		return func(i int) ([]bucketShape, Stats, error) { return parts[i].floors(ctx, pq, int32(i)) }
	})
}

// listing is pass 1 of a stage over the view's part i: the shapes the
// stage hands to the refine pass, each with its floor, and the work of
// listing them.
type listing func(i int) ([]bucketShape, Stats, error)

// refine runs the two passes of a single-shape stage; a stage is its
// listing, which stage returns anew for every run. Pass 1 fans the listing
// out over the parts. Pass 2, on the request's goroutine, pops one heap of
// (floor, part, id) across all parts and scores each shape under the
// running k-th best of the whole view, until the next floor lies strictly
// above it: a listed shape within the final k-th has a floor no higher, so
// the k best are the exhaustive ranking's of what was listed, at any width.
// exact marks the exact stage, which re-reads its k best for their
// continuous measure (exactSearch); a candidate stage's matches stay
// Approximate. A delete that reaches the active delta after its listing
// makes the passes run again, so the answer is the view's as of one
// listing. ctx is checked every 32 shapes.
func refine(ctx context.Context, parts []part, pq *core.PreparedQuery, k, width int, exact bool, stage func() listing) ([]Match, Stats, error) {
	type hit struct {
		m     Match
		c     bucketShape
		entry int
	}
	for {
		list := stage()
		lists := make([][]bucketShape, len(parts))
		stats := make([]Stats, len(parts))
		err := fanout(ctx, len(parts), width, func(i int) (err error) {
			lists[i], stats[i], err = list(i)
			return err
		})
		if err != nil {
			return nil, Stats{}, err
		}
		var h []bucketShape
		if len(lists) == 1 {
			h = lists[0] // slices.Concat would copy it
		} else {
			h = slices.Concat(lists...)
		}
		st := mergeStats(stats)
		if exact {
			st.Iterations, st.Converged = 1, k <= len(h)
		}
		for i := len(h)/2 - 1; i >= 0; i-- {
			siftFloor(h, i)
		}
		kth := core.NewDistTopK(k)
		var hits []hit
		for n := 0; len(h) > 0; n++ {
			if n&31 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, Stats{}, err
				}
			}
			cut := kth.Kth()
			c := h[0]
			if c.floor > cut {
				break // every floor behind it is higher still
			}
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			siftFloor(h, 0)
			if m, entry, ok := parts[c.part].scoreBounded(int(c.id), pq, cut); ok {
				hits = append(hits, hit{m, c, entry})
				kth.Add(m.Distance)
			}
		}
		slices.SortFunc(hits, func(a, b hit) int {
			return cmp.Or(cmp.Compare(a.m.Distance, b.m.Distance), cmp.Compare(a.m.ShapeID, b.m.ShapeID))
		})
		out := make([]Match, min(k, len(hits)))
		for i, hit := range hits[:len(out)] {
			out[i] = hit.m
			if exact {
				d, blocks := parts[hit.c.part].continuous(int(hit.c.id), hit.entry, pq)
				out[i].Approximate, out[i].ContinuousDistance = false, d
				st.BlockReads += blocks
			}
		}
		if !slices.ContainsFunc(parts, part.stale) {
			return out, st, nil
		}
	}
}

// mergeStats sums the parts' listing stats: the copies floored, their
// blocks and the ANN tier's accounting.
func mergeStats(ss []Stats) Stats {
	var out Stats
	for _, s := range ss {
		out.VerticesCounted += s.VerticesCounted
		out.addANN(s)
	}
	return out
}

// siftFloor restores the min-heap order of pass 2 below h[i]: by floor,
// then part, then id — a total order, so which shapes pass 2 scores does
// not depend on how pass 1 was scheduled.
func siftFloor(h []bucketShape, i int) {
	less := func(a, b bucketShape) bool {
		if a.floor != b.floor {
			return a.floor < b.floor
		}
		return a.part < b.part || a.part == b.part && a.id < b.id
	}
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		if r := l + 1; r < len(h) && less(h[r], h[l]) {
			l = r
		}
		if !less(h[l], h[i]) {
			return
		}
		h[i], h[l] = h[l], h[i]
		i = l
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

// floored lists ids of part p, the view's parts[pi], each with its floor:
// the listing of a candidate stage.
func floored(p part, ids []int, pq *core.PreparedQuery, pi int32) []bucketShape {
	out := make([]bucketShape, len(ids))
	for i, id := range ids {
		out[i] = bucketShape{part: pi, id: int32(id), floor: p.floor(id, pq)}
	}
	return out
}

// bucketShape is a shape of parts[part] with the floor its part puts
// under its distance: one entry of a listing, and of the refine pass's
// heap.
type bucketShape struct {
	part, id int32
	floor    float64
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

func (p *frozenPart) continuous(_, entry int, pq *core.PreparedQuery) (float64, int) {
	return p.e.db.Base().Continuous(entry, pq)
}

func (p *frozenPart) floors(ctx context.Context, pq *core.PreparedQuery, pi int32) ([]bucketShape, Stats, error) {
	out := make([]bucketShape, 0, p.liveShapes())
	copies, blocks, err := p.e.db.Base().Floors(ctx, pq, p.dead, func(id int, floor float64) {
		out = append(out, bucketShape{part: pi, id: int32(id), floor: floor})
	})
	return out, Stats{VerticesCounted: copies, BlockReads: blocks}, err
}

func (p *frozenPart) stale() bool { return false }

func (p *frozenPart) annFloors(_ context.Context, pq *core.PreparedQuery, k int, pi int32) ([]bucketShape, Stats, error) {
	shapes, probes := p.e.annCandidates(pq, annMinShapes(k))
	shapes = p.live(shapes)
	return floored(p, shapes, pq, pi), annStats(probes, len(shapes)), nil
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

// deltaPart is a live delta as a part. It has no ANN tier: every live
// shape is an ANN candidate — strictly better recall than any probe — and
// its shapes join the refine pass's one heap like any part's (§4.12). Delta
// matches carry global ids already. listed is the delta's delete count as
// its last listing found it.
type deltaPart struct {
	d      *ingest.Delta
	listed uint64
}

func (p *deltaPart) family() *geohash.Family { return p.d.Family() }

func (p *deltaPart) liveBucket(quad geohash.Quadruple, radius int) []int {
	p.listed = p.d.Deletes()
	return p.d.Candidates(quad, radius)
}

func (p *deltaPart) scoreBounded(id int, pq *core.PreparedQuery, cutoff float64) (Match, int, bool) {
	m, ok := p.d.ScoreBounded(id, pq, cutoff)
	return Match{ShapeID: m.GID, ImageID: m.ImageID, Distance: m.Distance, Approximate: true}, m.Copy, ok
}

func (p *deltaPart) continuous(id, entry int, pq *core.PreparedQuery) (float64, int) {
	d, _ := p.d.Continuous(id, entry, pq)
	return d, 0
}

func (p *deltaPart) floor(id int, pq *core.PreparedQuery) float64 { return p.d.Floor(id, pq) }

func (p *deltaPart) floors(ctx context.Context, pq *core.PreparedQuery, pi int32) ([]bucketShape, Stats, error) {
	var out []bucketShape
	p.listed = p.d.Deletes()
	copies, err := p.d.Floors(ctx, pq, func(id int, floor float64) {
		out = append(out, bucketShape{part: pi, id: int32(id), floor: floor})
	})
	return out, Stats{VerticesCounted: copies}, err
}

func (p *deltaPart) stale() bool { return p.d.Deletes() != p.listed }

// annFloors lists every live shape of the delta — each is an ANN candidate
// — as floors does; the copies floored are no exact search's
// (Stats.VerticesCounted).
func (p *deltaPart) annFloors(ctx context.Context, pq *core.PreparedQuery, _ int, pi int32) ([]bucketShape, Stats, error) {
	shapes, _, err := p.floors(ctx, pq, pi)
	return shapes, Stats{}, err
}

func (p *deltaPart) sketchTable(ctx context.Context, pq *core.PreparedQuery, _ int, _ AnnMode) (map[int]float64, Stats, error) {
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
