package geosir

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/annindex"
	"repro/internal/core"
	"repro/internal/geohash"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/sched"
)

// Mode selects the retrieval strategy of a Search.
type Mode int

const (
	// ModeAuto (the zero value) answers what ModeExact answers. The
	// paper's §6 flow fell back to geometric hashing past its ε-climb's
	// reach; the exact search reaches every distance, and a hash bucket
	// is a subset of the live shapes, so hashing could only answer
	// farther. With AnnApprox it answers from the ANN tier.
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
	// ExecSequential forces a single-goroutine walk over the parts.
	ExecSequential
)

// String names the policy for logs and wire formats.
func (p ExecPolicy) String() string {
	switch p {
	case ExecAuto:
		return "auto"
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
	InFlight        int64  `json:"in_flight"`
	PlansFanout     uint64 `json:"plans_fanout"`
	PlansSequential uint64 `json:"plans_sequential"`
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
	// Mode selects the retrieval strategy.
	Mode Mode
	// Ann selects the MinHash/LSH candidate tier's role: AnnOff (the
	// zero value) ignores it, AnnApprox answers from its candidate set
	// alone (capped exact work, measured recall). See AnnMode.
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
	// Stats reports the retrieval work of the whole request. On a
	// ShardedEngine every part's counters sum; each stage refines the
	// whole view at once, so the exact stage reports its 1 iteration at
	// width 0 whatever the part count.
	Stats Stats
}

// Searcher is the unified query surface: one parameterized method
// instead of a Find* variant per strategy/knob combination. Engine and
// ShardedEngine both implement it, so callers (and the HTTP layer) are
// agnostic to whether the base is partitioned.
type Searcher interface {
	Search(ctx context.Context, req SearchRequest) (*SearchResponse, error)
}

// execPlan resolves the request's scheduling policy for internal/sched.
func (r SearchRequest) execPlan() sched.Policy {
	if r.Exec == ExecSequential {
		return sched.Sequential
	}
	return sched.Auto
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
	return searchView{parts: []part{e.part()}}
}

// part is one independently searchable slice of a view, as a request sees
// it: a frozen shard or a live delta, behind the view's tombstones and
// global ids. Parts hold disjoint sets of live shapes, every shape of an image
// lives on one part, and all parts hash with one deterministic curve
// family. Matches a part returns carry global shape ids. Everything a part
// reads is immutable — a frozen shard, or one version of a delta — so a
// request answers from its view as of the moment it took it.
type part struct {
	db   *query.DB // the images, read behind dead (topological)
	base *core.Base
	dead map[int]bool // tombstoned local shape ids
	// A local id s maps to the global id ids[s], the part's slot of the
	// image log, or, with ids nil (a single Engine, whose ids are global
	// already), to s.
	ids    []int32
	family *geohash.Family
	// lookup is the hash listing: the local ids on the hash curves of
	// quad, widened by radius, tombstoned ones included — the frozen
	// shard's geohash.Table.Lookup, or the delta's.
	lookup func(quad geohash.Quadruple, radius int) []int
	// ann is the shard's ANN index, derived at its first call
	// (Engine.ANNIndex); nil for a delta, where every live shape is an ANN
	// candidate — strictly better recall than any probe.
	ann func() *annindex.Index
}

// part is the engine as one part: identity ids, no tombstones.
func (e *Engine) part() part {
	return part{db: e.db, base: e.db.Base(), family: e.family, lookup: e.table.Lookup, ann: e.ANNIndex}
}

func (p *part) liveShapes() int { return p.base.NumShapes() - len(p.dead) }

// global maps a local shape id to its global id. Within one part local id
// order is ascending global id order, so a list sorted by (Distance, local
// id) is sorted by (Distance, global id).
func (p *part) global(local int) int {
	if p.ids == nil {
		return local
	}
	return int(p.ids[local])
}

// live drops the tombstoned shape ids, in place.
func (p *part) live(ids []int) []int {
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

// liveBucket returns the part's live shapes on the hash curves of quad,
// widened by radius: the hashing stage's listing (hashBuckets), each then
// floored.
func (p *part) liveBucket(quad geohash.Quadruple, radius int) []int {
	return p.live(p.lookup(quad, radius))
}

// scoreBounded scores one listed shape under an admissible cutoff; false
// when it is proven strictly above cutoff. entry is the normalized copy
// realizing the distance, which the exact stage re-reads (Base.Continuous).
func (p *part) scoreBounded(id int, pq *core.PreparedQuery, cutoff float64) (Match, int, bool) {
	m, ok, err := p.base.ShapeDistancePreparedBounded(id, pq, cutoff)
	if err != nil || !ok {
		return Match{}, -1, false
	}
	return Match{ShapeID: p.global(id), ImageID: p.base.Shape(id).Image, Distance: m.DistVertex, Approximate: true}, m.EntryID, true
}

// floors is pass 1 of the exact search (exactSearch): every live shape of
// the part, as parts[pi], with its floor, appended to dst, and the copies
// floored and their block cost in VerticesCounted and BlockReads.
func (p *part) floors(ctx context.Context, pq *core.PreparedQuery, pi int32, dst []bucketShape) ([]bucketShape, Stats, error) {
	copies, blocks, err := p.base.Floors(ctx, pq, p.dead, func(id int, floor float64) {
		dst = append(dst, bucketShape{part: pi, id: int32(id), floor: floor})
	})
	return dst, Stats{VerticesCounted: copies, BlockReads: blocks}, err
}

// annFloors is the listing of the ann:approx stage: the part's live ANN
// candidates for k under the query's signature sig, each with its floor,
// appended to dst, and the tier's accounting. Each part applies the full
// annMinShapes floor, so the union over N parts is at least as wide as one
// part's candidate set — recall is monotone in the part count. A delta (no
// index) lists every live shape, as floors does; the copies floored are no
// exact search's.
func (p *part) annFloors(ctx context.Context, pq *core.PreparedQuery, sig []uint64, k int, pi int32, dst []bucketShape) ([]bucketShape, Stats, error) {
	if p.ann == nil {
		shapes, _, err := p.floors(ctx, pq, pi, dst)
		return shapes, Stats{}, err
	}
	shapes, probes := p.annCandidates(sig, annMinShapes(k))
	shapes = p.live(shapes)
	return floored(p, shapes, pq, pi, dst), annStats(probes, len(shapes)), nil
}

// sketchTable is the best distance per live image to one sketch shape: a
// scan of every live shape under the fixed cutoff +Inf (Base.Within),
// tombstones skipped before they are scored. Given an ANN signature sig, a
// shard scores only its live candidates (exactly), a delta every live shape;
// images whose every shape went unprobed are absent — the sketch ranking's
// recall cost, measured by BenchmarkAnnSketchApprox. ctx is checked every
// 32 shapes either way.
func (p *part) sketchTable(ctx context.Context, pq *core.PreparedQuery, sig []uint64, k int) (map[int]float64, Stats, error) {
	best := make(map[int]float64)
	keep := func(sid int, d float64) {
		img := p.base.Shape(sid).Image
		if cur, ok := best[img]; !ok || d < cur {
			best[img] = d
		}
	}
	if sig == nil || p.ann == nil {
		_, blocks, err := p.base.Within(ctx, pq, p.dead, math.Inf(1), func(m core.Match) { keep(m.ShapeID, m.DistVertex) })
		if err != nil {
			return nil, Stats{}, err
		}
		return best, Stats{BlockReads: blocks}, nil
	}
	shapes, probes := p.annCandidates(sig, annSketchMinShapes(k))
	shapes = p.live(shapes)
	for i, sid := range shapes {
		if i&31 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, Stats{}, err
			}
		}
		if m, _, err := p.base.ShapeDistancePreparedBounded(sid, pq, math.Inf(1)); err == nil {
			keep(sid, m.DistVertex)
		}
	}
	return best, annStats(probes, len(shapes)), nil
}

// searchView is what one request searches: the parts of one immutable
// snapshot of the base.
type searchView struct {
	parts []part
}

// search is the request decision tree, the only one: validation, one
// query preparation, the fan-out plan, then one stage over the view's
// parts. A single-shape request has three: ModeApproximate answers from
// the geometric hash buckets, AnnApprox (outside ModeExact) from the ANN
// candidates, and every other request from the exact search over every
// live shape (exactSearch). Each is the same two passes (refine) over its
// own listing. The view is taken once per request and every part of it
// is immutable, so the request answers from the base as of that moment:
// neither a write nor a compaction landing mid-request reaches it.
//
// The width is planned once from req.Exec, the live in-flight gauge and
// GOMAXPROCS. Width only changes how fast the answer arrives, never the
// answer or its Stats: only a stage's listing fans out, and its refine
// pass runs on the request's goroutine over a total order (DESIGN.md
// §4.13).
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
	pol := req.execPlan()
	switch req.Mode {
	case ModeAuto, ModeExact, ModeApproximate:
		if len(req.Query.Pts) == 0 {
			return nil, ErrEmptyQuery
		}
		width := pl.Width(len(v.parts), pol)
		// AnnApprox answers from the ANN candidates alone — except in
		// ModeExact, whose contract is exactness: there it is AnnOff.
		annOnly := req.Ann == AnnApprox && req.Mode != ModeExact
		exact := req.Mode != ModeApproximate && !annOnly
		if exact {
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
		defer pq.Release() // every pass of the stage is over by then
		var blocks, evaluated atomic.Int64
		pq.AttachEvalCounter(&evaluated)
		var ms []Match
		var st Stats
		switch {
		case exact:
			// The exact search charges its block reads itself, each copy
			// once; the candidate stages charge theirs through the query.
			ms, st, err = exactSearch(ctx, v.parts, pq, req.K, width)
		case annOnly:
			pq.AttachBlockCounter(&blocks)
			sig := annSign(pq.Entry().Poly)
			ms, st, err = refine(ctx, v.parts, pq, req.K, width, false, func(i int, dst []bucketShape) ([]bucketShape, Stats, error) {
				return v.parts[i].annFloors(ctx, pq, sig, req.K, int32(i), dst)
			})
			st.UsedANN = true
		default:
			pq.AttachBlockCounter(&blocks)
			buckets := hashBuckets(v.parts, pq)
			ms, st, err = refine(ctx, v.parts, pq, req.K, width, false, func(i int, dst []bucketShape) ([]bucketShape, Stats, error) {
				return floored(&v.parts[i], buckets[i], pq, int32(i), dst), Stats{}, nil
			})
			st.UsedHashing = true
		}
		if err != nil {
			return nil, err
		}
		st.BlockReads += int(blocks.Load())
		st.Candidates = int(evaluated.Load())
		return &SearchResponse{Matches: ms, Stats: st}, nil
	case ModeSketch:
		// Sketch work items are (sketch shape × part) pairs, so the plan
		// covers the full task count.
		width := pl.Width(len(v.parts)*len(req.Sketch), pol)
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

// exactSearch is the exact stage of a request (DESIGN.md §4.9, "The exact
// search is two passes"): refine over every live shape of the view, each
// floored by the query's distance field. Only its k best are re-read for
// their continuous measure, and they alone are not Approximate. Converged
// unless k exceeds the live shapes; each copy's blocks are charged once, at
// its floor, plus the re-reads.
func exactSearch(ctx context.Context, parts []part, pq *core.PreparedQuery, k, width int) ([]Match, Stats, error) {
	return refine(ctx, parts, pq, k, width, true, func(i int, dst []bucketShape) ([]bucketShape, Stats, error) {
		return parts[i].floors(ctx, pq, int32(i), dst)
	})
}

// listing is pass 1 of a stage over the view's part i: the shapes the
// stage hands to the refine pass, each with its floor, appended to dst, and
// the work of listing them. A listing holds live shapes of the part, each
// once, so it never outgrows the part's liveShapes().
type listing func(i int, dst []bucketShape) ([]bucketShape, Stats, error)

// refine runs the two passes of a single-shape stage, which is its
// listing. Pass 1 fans the listing out over the parts (listAll); pass 2,
// on the request's goroutine, ranks what was listed (rank). exact marks the
// exact stage, which re-reads its k best for their continuous measure
// (exactSearch); a candidate stage's matches stay Approximate. Each part is
// listed once: the view's parts do not change under the request.
func refine(ctx context.Context, parts []part, pq *core.PreparedQuery, k, width int, exact bool, list listing) ([]Match, Stats, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc) // the answer holds nothing of it
	h, st, err := listAll(ctx, parts, width, list, sc.shapes)
	sc.shapes = h
	if err != nil {
		return nil, Stats{}, err
	}
	if exact {
		st.Iterations, st.Converged = 1, k <= len(h)
	}
	hits, err := rank(ctx, h, k, func(c bucketShape, cut float64) (Match, int, bool) {
		return parts[c.part].scoreBounded(int(c.id), pq, cut)
	})
	if err != nil {
		return nil, Stats{}, err
	}
	out := make([]Match, len(hits))
	for i, hit := range hits {
		out[i] = hit.m
		if exact {
			d, blocks := parts[hit.c.part].base.Continuous(hit.entry, pq, &sc.resample)
			out[i].Approximate, out[i].ContinuousDistance = false, d
			st.BlockReads += blocks
		}
	}
	return out, st, nil
}

// scratch is what a single-shape stage lists into and re-reads through,
// kept across requests in scratchPool: the listing is 16 B a live shape of
// the view, most of what a served exact search would otherwise allocate.
type scratch struct {
	shapes   []bucketShape
	resample []geom.Point
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// listAll is pass 1: the listing of every part, fanned out on up to width
// goroutines into one slice (buf's memory when it is large enough), where
// part i appends into a window of its liveShapes() entries; the windows
// are then closed up in part order, and the parts' stats summed.
func listAll(ctx context.Context, parts []part, width int, list listing, buf []bucketShape) ([]bucketShape, Stats, error) {
	n := len(parts)
	off := make([]int, n+1)
	for i := range parts {
		off[i+1] = off[i] + parts[i].liveShapes()
	}
	all := slices.Grow(buf[:0], off[n])[:off[n]]
	lists := make([][]bucketShape, n)
	stats := make([]Stats, n)
	err := fanout(ctx, n, width, func(i int) (err error) {
		lists[i], stats[i], err = list(i, all[off[i]:off[i]:off[i+1]])
		return err
	})
	if err != nil {
		return nil, Stats{}, err
	}
	h := all[:0]
	for _, l := range lists {
		h = append(h, l...) // l starts at or past len(h): it moves down
	}
	return h, mergeStats(stats), nil
}

// hit is a shape pass 2 scored within its cutoff: its match, its listing
// entry and the copy realizing the distance.
type hit struct {
	m     Match
	c     bucketShape
	entry int
}

// rank is pass 2: it pops one heap of (floor, part, id) across all parts
// and scores each shape under the running k-th best of the whole view,
// until the next floor lies strictly above it. A listed shape within the
// final k-th has a floor no higher, so the k best are the exhaustive
// ranking's of what was listed, at any width. It returns them ordered by
// (distance, global id); h is consumed. ctx is checked every 32 shapes.
func rank(ctx context.Context, h []bucketShape, k int, score func(c bucketShape, cut float64) (Match, int, bool)) ([]hit, error) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftFloor(h, i)
	}
	kth := core.NewDistTopK(k)
	var hits []hit
	for n := 0; len(h) > 0; n++ {
		if n&31 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
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
		if m, entry, ok := score(c, cut); ok {
			hits = append(hits, hit{m, c, entry})
			kth.Add(m.Distance)
		}
	}
	slices.SortFunc(hits, func(a, b hit) int {
		return cmp.Or(cmp.Compare(a.m.Distance, b.m.Distance), cmp.Compare(a.m.ShapeID, b.m.ShapeID))
	})
	return hits[:min(k, len(hits))], nil
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
	quad := parts[0].family.Characteristic(pq.Entry().Poly.Pts)
	for radius := 0; radius <= 1; radius++ {
		total := 0
		for i := range parts {
			cand[i] = parts[i].liveBucket(quad, radius)
			total += len(cand[i])
		}
		if total > 0 {
			break
		}
	}
	return cand
}

// floored appends ids of part p, the view's parts[pi], to dst, each with
// its floor (Base.ShapeFloor): the listing of a candidate stage.
func floored(p *part, ids []int, pq *core.PreparedQuery, pi int32, dst []bucketShape) []bucketShape {
	for _, id := range ids {
		dst = append(dst, bucketShape{part: pi, id: int32(id), floor: p.base.ShapeFloor(id, pq)})
	}
	return dst
}

// bucketShape is a shape of parts[part] with the floor its part puts
// under its distance: one entry of a listing, and of the refine pass's
// heap.
type bucketShape struct {
	part, id int32
	floor    float64
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
	var blocks, evaluated atomic.Int64
	per := len(parts)
	pqs := make([]*core.PreparedQuery, len(sketch))
	sigs := make([][]uint64, len(sketch)) // sketch shape si's ANN signature, nil without AnnApprox
	for si, q := range sketch {
		pq, err := req.prepare(q)
		if err != nil {
			return nil, Stats{}, fmt.Errorf("geosir: sketch shape %d: %w", si, err)
		}
		pq.AttachBlockCounter(&blocks)
		pq.AttachEvalCounter(&evaluated)
		pqs[si] = pq
		if req.Ann == AnnApprox {
			sigs[si] = annSign(pq.Entry().Poly)
		}
	}
	tables := make([]map[int]float64, len(sketch)*per)
	tableStats := make([]Stats, len(tables))
	err := fanout(ctx, len(tables), width, func(t int) (err error) {
		si := t / per
		tables[t], tableStats[t], err = parts[t%per].sketchTable(ctx, pqs[si], sigs[si], k)
		if err != nil {
			return fmt.Errorf("geosir: sketch shape %d: %w", si, err)
		}
		return nil
	})
	if err != nil {
		return nil, Stats{}, err
	}
	stats := Stats{BlockReads: int(blocks.Load()), Candidates: int(evaluated.Load())}
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
