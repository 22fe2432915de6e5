package geosir

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/geohash"
	"repro/internal/ingest"
	"repro/internal/sched"
)

// Compile-time check: both engines answer the unified Search API.
var (
	_ Searcher = (*Engine)(nil)
	_ Searcher = (*ShardedEngine)(nil)
)

// ShardedEngine partitions the image base across N independent shards,
// each a full Engine with its own fattening index and geometric hash
// table. Images are routed to shards by a stable hash of their id
// (core.ShardFor), Freeze builds every shard index in parallel, and
// Search fans each request out across the shards and merges the
// per-shard answers with an exact bounded top-k merge — results are
// identical, byte for byte, to a single Engine over the same base (see
// DESIGN.md §4.8 for why the merge is exact).
//
// Shape ids in results are global: the ids a single unpartitioned
// Engine would have assigned, via the core.ShardMap recorded at
// AddImage time. Image ids need no translation (they are caller-chosen
// and stored verbatim).
//
// After Freeze the engine can optionally go live (EnableIngest): a
// mutable delta shard then accepts InsertImage/DeleteImage without a
// rebuild, queries union the delta with the frozen shards, and a
// background compaction folds the delta into a new immutable shard
// (DESIGN.md §4.12). All of that is coordinated through an immutable
// shardView swapped atomically, so Search never takes a lock.
//
// Concurrency: not safe for concurrent mutation before Freeze; after
// Freeze, Search is fully concurrent, and with ingestion enabled the
// mutation API (InsertImage/DeleteImage/Compact) is itself safe for
// concurrent callers and concurrent with Search.
type ShardedEngine struct {
	opts   Options
	shards []*Engine
	smap   *core.ShardMap
	order  []shardImage // AddImage order, persisted as the snapshot manifest
	frozen bool

	// view is the atomically-published query snapshot; non-nil once
	// frozen. Mutations (live ingestion, compaction) install a fresh
	// view; in-flight queries keep the one they loaded.
	view atomic.Pointer[shardView]
	// mutEpoch counts visible mutations: every acknowledged insert,
	// delete, and compaction swap bumps it, so result caches keyed on it
	// invalidate exactly when answers may change.
	mutEpoch atomic.Uint64
	// ing is the live-ingestion coordinator, non-nil after EnableIngest.
	// Atomic because CloseIngest (snapshot swap/reload) clears it
	// concurrently with mutations and stats reads.
	ing atomic.Pointer[ingestor]

	// sched plans each request's fan-out width over the live parts from
	// the in-flight load gauge; the zero value is ready to use
	// (DESIGN.md §4.13).
	sched sched.Planner
}

// shardImage is one image in the manifest log: the image id, how many
// shapes it contributed, which shard physically holds it (-1 when it
// only ever reserved ids), and whether it has since been deleted. The
// sequence of these fixes every global shape id.
type shardImage struct {
	ID      int
	Shapes  int
	Shard   int
	Deleted bool
}

// shardView is one immutable snapshot of everything a query needs. A
// view is built once, published with an atomic store, and never mutated
// afterwards; queries that loaded an old view keep a consistent base
// while mutations install successors.
type shardView struct {
	shards []*Engine
	smap   *core.ShardMap
	order  []shardImage
	gen    uint64 // compaction generation, for statz and the manifest

	// sealed is the delta a running compaction is folding (read-only),
	// active the delta accepting new writes. Both nil before
	// EnableIngest; sealed is nil outside a compaction window. sealed
	// precedes active: its global ids are lower, preserving merge order.
	sealed *ingest.Delta
	active *ingest.Delta

	// deadShapes marks, per shard, the local shape ids whose frozen copy
	// is tombstoned (image deleted after its shard froze), for the paths
	// that filter shapes before scoring them (exact kernel, hashing, ANN).
	// deadIn is the same set at image granularity, for the paths that
	// filter whole images (sketch tables, topological queries). Both are
	// nil until the first tombstone. An image id may legitimately appear
	// dead in one shard and live in another — delete then re-insert then
	// compact — so the per-shard grouping is not redundant with a flat
	// image set.
	deadShapes []map[int]bool
	deadIn     []map[int]bool
}

// deltas returns the live mutable parts of the view, sealed first so
// the k-way merge sees ascending global-id ranges.
func (v *shardView) deltas() []*ingest.Delta {
	out := make([]*ingest.Delta, 0, 2)
	if v.sealed != nil && v.sealed.NumShapes() > 0 {
		out = append(out, v.sealed)
	}
	if v.active != nil && v.active.NumShapes() > 0 {
		out = append(out, v.active)
	}
	return out
}

// liveShards returns the indices of shards that can answer queries:
// frozen and non-empty. A shard dropped wholesale by snapshot recovery
// is left empty and simply contributes nothing (partial results).
func (v *shardView) liveShards() []int {
	out := make([]int, 0, len(v.shards))
	for i, sh := range v.shards {
		if sh != nil && sh.Frozen() && sh.NumShapes() > 0 {
			out = append(out, i)
		}
	}
	return out
}

// deadOf returns one shard's set from the view's per-shard dead sets
// (deadIn or deadShapes), nil when it has none: the slices are nil until
// the first tombstone and stop short of shards a compaction added since.
func deadOf(sets []map[int]bool, shard int) map[int]bool {
	if shard < len(sets) {
		return sets[shard]
	}
	return nil
}

// markDead records frozen image im, whose first global shape id is gid,
// as tombstoned on its shard. It writes in place: the caller owns v's
// dead sets (a view not yet published, over fresh copies of the shard's
// sets when it succeeds a published one).
func (v *shardView) markDead(im shardImage, gid int) {
	if v.deadIn == nil {
		v.deadIn = make([]map[int]bool, len(v.shards))
		v.deadShapes = make([]map[int]bool, len(v.shards))
	}
	if v.deadIn[im.Shard] == nil {
		v.deadIn[im.Shard] = make(map[int]bool)
		v.deadShapes[im.Shard] = make(map[int]bool)
	}
	v.deadIn[im.Shard][im.ID] = true
	for g := gid; g < gid+im.Shapes; g++ {
		if _, local, ok := v.smap.Locate(g); ok {
			v.deadShapes[im.Shard][local] = true
		}
	}
}

// liveLocal drops a shard's tombstoned candidate shape ids, in place.
// Filtering happens before scoring, so the per-shard running k-th best —
// and any bound published from it — only ever reflects shapes that can
// appear in the final answer.
func (v *shardView) liveLocal(shard int, ids []int) []int {
	dead := deadOf(v.deadShapes, shard)
	if len(dead) == 0 {
		return ids
	}
	out := ids[:0]
	for _, id := range ids {
		if !dead[id] {
			out = append(out, id)
		}
	}
	return out
}

// toGlobal rewrites a shard's local shape ids to global ids in place.
// Within one shard local id order is ascending global id order, so a
// list sorted by (Distance, local id) stays sorted by (Distance,
// global id).
func (v *shardView) toGlobal(shard int, ms []Match) []Match {
	for i := range ms {
		ms[i].ShapeID = v.smap.Global(shard, ms[i].ShapeID)
	}
	return ms
}

// liveShapeCount is the number of shapes a query can return: frozen
// shapes minus tombstones plus the deltas' live shapes.
func (v *shardView) liveShapeCount() int {
	n := 0
	for _, sh := range v.shards {
		if sh != nil && sh.NumImages() > 0 {
			n += sh.NumShapes()
		}
	}
	for _, dead := range v.deadShapes {
		n -= len(dead)
	}
	if v.sealed != nil {
		n += v.sealed.NumShapes()
	}
	if v.active != nil {
		n += v.active.NumShapes()
	}
	return n
}

// NewSharded creates an empty sharded engine over the given number of
// partitions (values < 1 are treated as 1). Every shard shares the same
// options.
func NewSharded(opts Options, shards int) *ShardedEngine {
	if shards < 1 {
		shards = 1
	}
	engines := make([]*Engine, shards)
	for i := range engines {
		engines[i] = New(opts)
	}
	return &ShardedEngine{
		opts:   engines[0].opts, // post-defaulting, same as Engine.Options()
		shards: engines,
		smap:   core.NewShardMap(shards),
	}
}

// newShardedFromParts assembles a sharded engine from already-loaded
// shards (see LoadShardedDir). Shards must be frozen or empty.
func newShardedFromParts(opts Options, shards []*Engine, smap *core.ShardMap, order []shardImage, gen uint64) *ShardedEngine {
	se := &ShardedEngine{opts: opts, shards: shards, smap: smap, order: order, frozen: true}
	se.publishBaseView(gen)
	return se
}

// publishBaseView installs the initial query view over the frozen
// shards, deriving the tombstone sets from the manifest log's Deleted
// flags (all empty on a freshly built engine).
func (se *ShardedEngine) publishBaseView(gen uint64) {
	v := &shardView{shards: se.shards, smap: se.smap, order: se.order, gen: gen}
	gid := 0
	for _, im := range se.order {
		if im.Deleted && im.Shard >= 0 {
			v.markDead(im, gid)
		}
		gid += im.Shapes
	}
	se.view.Store(v)
}

// snapshot returns the current query view, or a transient one over the
// build-phase state before Freeze has published the first view.
func (se *ShardedEngine) snapshot() *shardView {
	if v := se.view.Load(); v != nil {
		return v
	}
	return &shardView{shards: se.shards, smap: se.smap, order: se.order}
}

// AddImage routes an image to its shard. Global shape ids are assigned
// in AddImage call order, exactly as a single Engine would assign them.
func (se *ShardedEngine) AddImage(imageID int, shapes []Shape) error {
	if se.frozen {
		return ErrFrozen
	}
	shard := core.ShardFor(imageID, len(se.shards))
	if err := se.shards[shard].AddImage(imageID, shapes); err != nil {
		return err
	}
	se.smap.AssignImage(shard, len(shapes))
	se.order = append(se.order, shardImage{ID: imageID, Shapes: len(shapes), Shard: shard})
	return nil
}

// Freeze builds every shard's retrieval index and hash table in
// parallel, one goroutine per non-empty shard. Empty shards (possible
// when shards > images) stay unfrozen and are skipped by queries.
func (se *ShardedEngine) Freeze() error {
	if se.frozen {
		return nil
	}
	if se.NumImages() == 0 {
		return errors.New("geosir: cannot freeze an empty engine")
	}
	errs := make([]error, len(se.shards))
	var wg sync.WaitGroup
	for i, sh := range se.shards {
		if sh.NumImages() == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, sh *Engine) {
			defer wg.Done()
			errs[i] = sh.Freeze()
		}(i, sh)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("geosir: freezing shard %d: %w", i, err)
		}
	}
	se.frozen = true
	se.publishBaseView(0)
	return nil
}

// Options returns the shared per-shard configuration (after defaulting).
func (se *ShardedEngine) Options() Options { return se.opts }

// Frozen reports whether Freeze has completed.
func (se *ShardedEngine) Frozen() bool { return se.frozen }

// NumShards returns the partition count (compaction grows it).
func (se *ShardedEngine) NumShards() int { return len(se.snapshot().shards) }

// Shard exposes one partition's Engine for inspection (per-shard statz,
// tests). Treat it as read-only.
func (se *ShardedEngine) Shard(i int) *Engine { return se.snapshot().shards[i] }

// IDMap exposes the global⇄(shard, local) shape-id mapping of the
// current view.
func (se *ShardedEngine) IDMap() *core.ShardMap { return se.snapshot().smap }

// StorageStats aggregates the shards' storage backing: MappedBytes and
// ResidentBytes sum over mmap-served shards, and LoadMode is "mmap"
// when at least one shard serves from a mapping. A -1 resident estimate
// from any shard makes the aggregate -1 (unknown).
func (se *ShardedEngine) StorageStats() StorageStats {
	out := StorageStats{LoadMode: "heap"}
	for _, sh := range se.snapshot().shards {
		st := sh.StorageStats()
		if st.LoadMode != "mmap" {
			continue
		}
		out.LoadMode = "mmap"
		out.MappedBytes += st.MappedBytes
		if st.ResidentBytes < 0 || out.ResidentBytes < 0 {
			out.ResidentBytes = -1
		} else {
			out.ResidentBytes += st.ResidentBytes
		}
	}
	return out
}

// Close releases every shard's snapshot mapping (no-op for heap-backed
// shards). The engine must not be queried afterward.
func (se *ShardedEngine) Close() error {
	var first error
	for _, sh := range se.snapshot().shards {
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// MutationEpoch returns the count of visible mutations (inserts,
// deletes, compaction swaps) since startup. Any two Searches bracketed
// by equal epochs saw the same logical base, so caches may key on it.
func (se *ShardedEngine) MutationEpoch() uint64 { return se.mutEpoch.Load() }

// Generation returns the compaction generation of the current view.
func (se *ShardedEngine) Generation() uint64 { return se.snapshot().gen }

// NumImages returns the number of live images: frozen images minus
// tombstones plus the deltas' live images.
func (se *ShardedEngine) NumImages() int {
	v := se.snapshot()
	n := 0
	for _, sh := range v.shards {
		n += sh.NumImages()
	}
	for _, dead := range v.deadIn {
		n -= len(dead)
	}
	if v.sealed != nil {
		n += v.sealed.NumImages()
	}
	if v.active != nil {
		n += v.active.NumImages()
	}
	return n
}

// NumShapes returns the number of live shapes (see liveShapeCount).
func (se *ShardedEngine) NumShapes() int { return se.snapshot().liveShapeCount() }

// NumEntries returns the number of stored normalized copies across all
// shards and deltas. Tombstoned frozen shapes' copies remain stored
// until a rebuild and are still counted.
func (se *ShardedEngine) NumEntries() int {
	v := se.snapshot()
	n := 0
	for _, sh := range v.shards {
		if sh.NumImages() > 0 {
			n += sh.NumEntries()
		}
	}
	if v.sealed != nil {
		n += v.sealed.NumEntries()
	}
	if v.active != nil {
		n += v.active.NumEntries()
	}
	return n
}

// tau returns the shared similarity threshold, used by the ModeAuto
// fallback decision.
func (se *ShardedEngine) tau(v *shardView) float64 {
	for _, si := range v.liveShards() {
		return v.shards[si].db.Tau()
	}
	if se.opts.Tau > 0 {
		return se.opts.Tau
	}
	return DefaultOptions().Tau // mirror of New()'s defaulting
}

// Search answers one retrieval request by fanning it out across the
// live shards — and, when ingestion is enabled, the mutable delta(s) —
// and merging the answers. The decision structure mirrors Engine.Search
// stage for stage: same validation order, same ModeAuto fallback rule
// (fall back to hashing unless every live part converged and the merged
// best match is within τ), same empty-approximate recovery. The view is
// loaded once per request, so a compaction swapping shards mid-request
// never mixes two bases in one answer.
//
// The fan-out width is planned once per request by internal/sched from
// req.Exec, the live in-flight gauge, and GOMAXPROCS; both stages of a
// ModeAuto request (exact, then the hashing fallback) run under the one
// plan. Width only changes how fast the answer arrives, never the
// answer: a sequential plan walks the same parts under the same shared
// bound and merges identically (DESIGN.md §4.13).
func (se *ShardedEngine) Search(ctx context.Context, req SearchRequest) (*SearchResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !se.frozen {
		return nil, ErrNotFrozen
	}
	if req.K <= 0 {
		return nil, ErrBadK
	}
	release := se.sched.Enter()
	defer release()
	v := se.snapshot()
	pol, maxw := req.execPlan()
	nparts := len(v.liveShards()) + len(v.deltas())
	switch req.Mode {
	case ModeAuto, ModeExact:
		if len(req.Query.Pts) == 0 {
			return nil, ErrEmptyQuery
		}
		width := se.sched.Width(nparts, pol, maxw)
		if req.Mode == ModeAuto && req.Ann == AnnApprox {
			ms, stats, err := se.annApproxFanout(ctx, v, req.Query, req.K, width)
			if err != nil {
				return nil, err
			}
			return &SearchResponse{Matches: ms, Stats: stats}, nil
		}
		pq, err := prepareExact(req.Query)
		if err != nil {
			return nil, err
		}
		ms, stats, err := se.exactSeeded(ctx, v, pq, req, width, se.scoreSeed(v, pq, req.K))
		if err != nil {
			return nil, err
		}
		if req.Mode == ModeExact || (stats.Converged && exactGoodEnough(ms, se.tau(v))) {
			return &SearchResponse{Matches: ms, Stats: stats}, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		approx, astats, err := se.approxFanout(ctx, v, req.Query, req.K, width, req.Ann)
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
		width := se.sched.Width(nparts, pol, maxw)
		if req.Ann == AnnApprox {
			ms, stats, err := se.annApproxFanout(ctx, v, req.Query, req.K, width)
			if err != nil {
				return nil, err
			}
			return &SearchResponse{Matches: ms, Stats: stats}, nil
		}
		ms, stats, err := se.approxFanout(ctx, v, req.Query, req.K, width, req.Ann)
		if err != nil {
			return nil, err
		}
		stats.UsedHashing = true
		return &SearchResponse{Matches: ms, Stats: stats}, nil
	case ModeSketch:
		// Sketch work items are (sketch shape × part) pairs, so the
		// plan covers the full task count.
		width := se.sched.Width(nparts*len(req.Sketch), pol, maxw)
		sms, stats, err := se.sketchFanout(ctx, v, req.Sketch, req.K, width, req.Ann)
		if err != nil {
			return nil, err
		}
		return &SearchResponse{SketchMatches: sms, Stats: stats}, nil
	}
	return nil, fmt.Errorf("geosir: unknown search mode %d", int(req.Mode))
}

// SchedStats reports the engine's execution-scheduler counters: the
// in-flight request gauge and the fan-out/sequential plan counts.
func (se *ShardedEngine) SchedStats() SchedStats { return schedStatsFrom(se.sched.Stats()) }

// Query evaluates a topological query (§5) against every live shard
// and unions the matching image ids. Topological predicates relate
// shapes within one image, and every image lives whole on exactly one
// shard, so the per-shard evaluation loses nothing. Images tombstoned
// after freeze are filtered out; images still in the mutable delta are
// not yet visible to topological queries (they gain topology graphs at
// compaction). Like Engine.Query it updates shared selectivity
// estimators and must not race with itself; use one goroutine for
// topological queries.
func (se *ShardedEngine) Query(src string, binds map[string]Shape) ([]int, string, error) {
	if !se.frozen {
		return nil, "", ErrNotFrozen
	}
	v := se.snapshot()
	var all []int
	var plan string
	for _, si := range v.liveShards() {
		ids, p, err := v.shards[si].Query(src, binds)
		if err != nil {
			return nil, "", err
		}
		if dead := deadOf(v.deadIn, si); len(dead) > 0 {
			kept := ids[:0]
			for _, id := range ids {
				if !dead[id] {
					kept = append(kept, id)
				}
			}
			ids = kept
		}
		all = append(all, ids...)
		plan = p
	}
	sort.Ints(all)
	return all, plan, nil
}

// exactSeeded is the exact phase of a request, bound first: a seed that
// fits every live shard (hashSeed.bound) makes each of them converge on its first envelope whatever its siblings publish
// meanwhile, so both modes share it. Without one, Converged depends on
// which shard publishes first — reporting in ModeExact, which still
// shares a fresh bound, but control flow for ModeAuto's fallback, which
// then searches unshared.
//
// The seed is admissible for the shapes that were live when it was
// scored. Frozen shards and their tombstones are fixed by the view, but a
// delete may reach the active delta between the seed pass and its scan;
// the bound can then sit below the k-th best of what is left. The answer
// itself tells: k merged matches within the seed are exactly the top k
// (everything discarded is proven farther); anything less and the search
// runs again unseeded.
func (se *ShardedEngine) exactSeeded(ctx context.Context, v *shardView, pq *core.PreparedQuery, req SearchRequest, width int, seed *hashSeed) ([]Match, Stats, error) {
	k := req.K
	shared := seed.bound()
	seeded := shared != nil
	for {
		if shared == nil && req.Mode == ModeExact {
			shared = core.NewSharedBound()
		}
		ms, stats, err := se.exactFanout(ctx, v, pq, req.Query, k, width, shared, req.Ann)
		if err != nil {
			return nil, Stats{}, err
		}
		if !seeded || (len(ms) == k && ms[k-1].Distance <= seed.kth.Kth()) {
			stats.BlockReads += seed.blockReads()
			return ms, stats, nil
		}
		seeded, shared = false, nil
	}
}

// exactFanout runs the fattening search on every live shard — and the
// bounded scan of every live delta — concurrently and merges the sorted
// per-part top-k lists exactly. The caller has validated and prepared the
// query once for all of them.
//
// Each shard is asked for min(k, its live shape count) matches and skips
// its tombstoned shapes inside the kernel, before they are scored: a
// shard cannot supply more than it holds, and capping lets small shards
// reach the convergence condition (the k-th best must exist to be
// proven within ε/2). Because the per-shape distances are intrinsic to
// (query, shape) and every shape lives on exactly one part, the merged
// top-k of converged parts is the true global top-k. A delta has no
// index to converge on: its scan visits every live shape, so its list is
// final as it stands.
//
// With a shared bound — fresh, or seeded from the hash tier by Search,
// in which case even a lone live shard opens at it — the shards
// additionally prune against each other mid-flight through that one
// atomic cell: every uncapped shard publishes its live k-th best, every
// shard discards candidates proven strictly worse than the tightest
// published value and stops once the bound is inside its envelope's
// reach. Capped shards must not publish — their k'-th best does not
// bound the global k-th — but may consume, since anything they discard is
// proven outside the merged top-k (DESIGN.md §4.9). A delta is a part
// like any other: it scans under the same bound and publishes its own
// k-th best, which exists only once it has scored k live shapes (§4.12).
func (se *ShardedEngine) exactFanout(ctx context.Context, v *shardView, pq *core.PreparedQuery, q Shape, k, width int, shared *core.SharedBound, ann AnnMode) ([]Match, Stats, error) {
	live := v.liveShards()
	deltas := v.deltas()
	n := len(live) + len(deltas)
	lists := make([][]Match, n)
	stats := make([]Stats, n)
	err := fanout(ctx, n, width, func(i int) error {
		if i >= len(live) {
			dms, evaluated, err := deltas[i-len(live)].Match(ctx, pq, k, core.MatchOpts{Shared: shared, Publish: true}, true)
			if err != nil {
				return fmt.Errorf("geosir: delta: %w", err)
			}
			lists[i] = deltaToMatches(dms, false)
			stats[i] = Stats{Converged: true, Candidates: evaluated}
			return nil
		}
		si := live[i]
		sh := v.shards[si]
		dead := deadOf(v.deadShapes, si)
		kk := min(k, sh.NumShapes()-len(dead))
		if kk == 0 {
			stats[i] = Stats{Converged: true} // every shape tombstoned
			return nil
		}
		// Each shard ranks its own bootstrap candidates against its own
		// ANN index — a per-shard visit-order change, so the per-shard
		// (and thus merged) matches are byte-identical to AnnOff.
		rank, annSt := sh.annRank(q, ann)
		ms, st, err := sh.searchExactShared(pq, kk, core.MatchOpts{
			Rank: rank, Shared: shared, Publish: kk == k, Dead: dead,
		})
		if err != nil {
			return fmt.Errorf("geosir: shard %d: %w", si, err)
		}
		st.addANN(annSt)
		lists[i] = v.toGlobal(si, ms)
		stats[i] = st
		return nil
	})
	if err != nil {
		return nil, Stats{}, err
	}
	merged := mergeStats(stats)
	// Mirror the single engine's convergence semantics: asking for more
	// matches than the base holds can never converge there (the k-th
	// best does not exist), so it must not count as converged here
	// either, even though every capped shard proved its own list.
	if k > v.liveShapeCount() {
		merged.Converged = false
	}
	return mergeTopK(lists, k), merged, nil
}

// hashBuckets returns, per part (live shards, then deltas; at least one),
// the live shapes on the prepared query's hash curves. Every part shares
// one deterministic curve family, so the query hashes to the same
// characteristic quadruple everywhere and a single table's bucket is
// exactly the union of the per-part buckets. The widening decision is
// therefore global: only if the radius-0 union over every part (after
// tombstone filtering — a deleted shape is no candidate) is empty do all
// parts widen to the neighbor curves — per-part widening would admit
// candidates a single engine never sees.
func (v *shardView) hashBuckets(pq *core.PreparedQuery, live []int, deltas []*ingest.Delta) [][]int {
	var family *geohash.Family
	if len(live) > 0 {
		family = v.shards[live[0]].family
	} else {
		family = deltas[0].Family()
	}
	quad := family.Characteristic(pq.Entry().Poly.Pts)
	cand := make([][]int, len(live)+len(deltas))
	for radius := 0; radius <= 1; radius++ {
		total := 0
		for i, si := range live {
			cand[i] = v.liveLocal(si, v.shards[si].table.Lookup(quad, radius))
			total += len(cand[i])
		}
		for j, d := range deltas {
			cand[len(live)+j] = d.Candidates(quad, radius)
			total += len(cand[len(live)+j])
		}
		if total > 0 {
			break
		}
	}
	return cand
}

// scoreSeed scores the request's hash buckets, once and over every
// part, into the seed of its exact search.
func (se *ShardedEngine) scoreSeed(v *shardView, pq *core.PreparedQuery, k int) *hashSeed {
	seed := newHashSeed(pq, k)
	live := v.liveShards()
	deltas := v.deltas()
	if len(live)+len(deltas) == 0 {
		return seed
	}
	cand := v.hashBuckets(pq, live, deltas)
	for i, si := range live {
		seed.addShard(v.shards[si], cand[i])
	}
	for j, d := range deltas {
		seed.addDelta(d, cand[len(live)+j])
	}
	return seed
}

// approxFanout answers from the shards' and deltas' geometric hash
// tables (hashBuckets), scoring every part's bucket under one shared
// bound.
func (se *ShardedEngine) approxFanout(ctx context.Context, v *shardView, q Shape, k, width int, ann AnnMode) ([]Match, Stats, error) {
	pq, err := core.PrepareQuery(q)
	if err != nil {
		return nil, Stats{}, err
	}
	var blocks atomic.Int64
	pq.AttachBlockCounter(&blocks)
	live := v.liveShards()
	deltas := v.deltas()
	n := len(live) + len(deltas)
	if n == 0 {
		return []Match{}, Stats{}, nil
	}
	cand := v.hashBuckets(pq, live, deltas)
	// Parts hold disjoint live shape sets, so any part's running k-th
	// best bounds the merged k-th best from above; sharing it lets parts
	// abandon each other's hopeless candidates mid-score. Candidates are
	// tombstone-filtered before scoring, so published bounds only ever
	// reflect live shapes and stay admissible. The skipped shapes are
	// exactly those proven outside the merged top-k, so the merge below
	// is unchanged (DESIGN.md §4.9).
	var shared *core.SharedBound
	if n > 1 {
		shared = core.NewSharedBound()
	}
	lists := make([][]Match, n)
	stats := make([]Stats, n)
	err = fanout(ctx, n, width, func(i int) error {
		if i >= len(live) {
			d := deltas[i-len(live)]
			lists[i] = scoreDeltaApprox(d, pq, cand[i], k, shared)
			return nil
		}
		sh := v.shards[live[i]]
		ids := cand[i]
		if ann != AnnOff {
			// Per-shard best-first ordering against the shard's own ANN
			// index; the admissible cutoffs keep the surviving top-k
			// identical (DESIGN.md §4.9), only the bounds tighten sooner.
			ids, stats[i] = sh.annOrderShapes(q, ids)
		}
		ms := sh.scoreApprox(pq, ids, k, shared)
		sortMatches(ms) // local ids; local order == global order within a shard
		lists[i] = v.toGlobal(live[i], ms)
		return nil
	})
	if err != nil {
		return nil, Stats{}, err
	}
	var merged Stats
	for _, st := range stats {
		merged.addANN(st)
	}
	merged.BlockReads += int(blocks.Load())
	return mergeTopK(lists, k), merged, nil
}

// annApproxFanout is the sharded sublinear path: every live shard probes
// its own ANN index for candidates (each shard applies the full
// annMinShapes floor, so the union is at least as wide as a single
// engine's candidate set) and scores them exactly under one shared
// cross-part bound; the per-part top-k lists merge exactly. Deltas have
// no ANN index — every live shape of theirs is a candidate, strictly
// better recall than any probe, scored by the same bounded scan as on the
// exact path, under the same bound. The result can differ from a single
// engine's AnnApprox answer only by having *more* candidates verified —
// recall is monotone in the shard count.
func (se *ShardedEngine) annApproxFanout(ctx context.Context, v *shardView, q Shape, k, width int) ([]Match, Stats, error) {
	pq, err := core.PrepareQuery(q)
	if err != nil {
		return nil, Stats{}, err
	}
	var blocks atomic.Int64
	pq.AttachBlockCounter(&blocks)
	live := v.liveShards()
	deltas := v.deltas()
	n := len(live) + len(deltas)
	if n == 0 {
		return []Match{}, Stats{UsedANN: true}, nil
	}
	var shared *core.SharedBound
	if n > 1 {
		shared = core.NewSharedBound()
	}
	lists := make([][]Match, n)
	stats := make([]Stats, n)
	err = fanout(ctx, n, width, func(i int) error {
		if i >= len(live) {
			dms, _, err := deltas[i-len(live)].Match(ctx, pq, k, core.MatchOpts{Shared: shared, Publish: true}, false)
			if err != nil {
				return fmt.Errorf("geosir: delta: %w", err)
			}
			lists[i] = deltaToMatches(dms, true)
			return nil
		}
		sh := v.shards[live[i]]
		if sh.ann == nil {
			lists[i] = []Match{}
			return nil
		}
		cand := sh.ann.Probe(sh.ann.Signature(pq.Entry().Poly), annMinShapes(k))
		shapes := cand.Shapes
		if max := annCapShapes(annMinShapes(k)); len(shapes) > max {
			shapes = shapes[:max]
		}
		shapes = v.liveLocal(live[i], shapes)
		stats[i] = Stats{UsedANN: true, ANNProbes: cand.Probes, ANNCandidates: len(shapes)}
		ms := sh.scoreApprox(pq, shapes, k, shared)
		sortMatches(ms) // local ids; local order == global order within a shard
		lists[i] = v.toGlobal(live[i], ms)
		return nil
	})
	if err != nil {
		return nil, Stats{}, err
	}
	merged := Stats{UsedANN: true}
	for _, st := range stats {
		merged.addANN(st)
	}
	merged.BlockReads += int(blocks.Load())
	return mergeTopK(lists, k), merged, nil
}

// sketchFanout evaluates every (sketch shape, part) pair concurrently (a
// delta's table is its scan with k = all live shapes and no bound),
// unions each shape's per-part best-distance tables (parts hold
// disjoint live image sets, so union is just map merge; tombstoned
// images are removed from their shard's table first), and feeds the
// result through the same scoreSketchTables ranking as the single
// engine.
func (se *ShardedEngine) sketchFanout(ctx context.Context, v *shardView, sketch []Shape, k, width int, ann AnnMode) ([]SketchMatch, Stats, error) {
	if err := validateSketch(sketch); err != nil {
		return nil, Stats{}, err
	}
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	live := v.liveShards()
	deltas := v.deltas()
	per := len(live) + len(deltas)
	parts := make([]map[int]float64, len(sketch)*per)
	partStats := make([]Stats, len(parts))
	err := fanout(ctx, len(parts), width, func(t int) error {
		si, pi := t/per, t%per
		if pi >= len(live) {
			pq, err := core.PrepareQuery(sketch[si])
			if err == nil {
				parts[t], err = deltas[pi-len(live)].SketchTable(ctx, pq)
			}
			if err != nil {
				return fmt.Errorf("geosir: sketch shape %d: %w", si, err)
			}
			return nil
		}
		sh := v.shards[live[pi]]
		var m map[int]float64
		var err error
		if ann == AnnApprox && sh.ann != nil {
			m, partStats[t], err = sh.sketchShapeTableAnn(sketch[si], k)
		} else {
			m, partStats[t], err = sh.sketchShapeTable(sketch[si])
		}
		if err != nil {
			return fmt.Errorf("geosir: sketch shape %d: %w", si, err)
		}
		if dead := deadOf(v.deadIn, live[pi]); len(dead) > 0 {
			for img := range dead {
				delete(m, img)
			}
		}
		parts[t] = m
		return nil
	})
	if err != nil {
		return nil, Stats{}, err
	}
	var stats Stats
	for _, st := range partStats {
		stats.addANN(st)
	}
	perShape := make([]map[int]float64, len(sketch))
	for si := range sketch {
		best := make(map[int]float64)
		for pi := 0; pi < per; pi++ {
			for img, d := range parts[si*per+pi] {
				best[img] = d
			}
		}
		perShape[si] = best
	}
	return scoreSketchTables(perShape, k), stats, nil
}

// deltaToMatches converts delta matches (already global ids) to the
// public Match shape. Exact-path results carry the continuous measure;
// hashing-path results (approx) do not, matching the frozen paths.
func deltaToMatches(ms []ingest.Match, approx bool) []Match {
	out := make([]Match, 0, len(ms))
	for _, m := range ms {
		om := Match{ShapeID: m.GID, ImageID: m.ImageID, Distance: m.Distance, Approximate: approx}
		if !approx {
			om.ContinuousDistance = m.Continuous
		}
		out = append(out, om)
	}
	return out
}

// scoreDeltaApprox ranks a delta's hash-table candidates against a
// prepared query, mirroring Engine.scoreApprox exactly: every candidate
// is scored under the tightest currently-proven cutoff — the local k-th
// best and the cross-part shared bound — and the bounded evaluation
// abandons a shape as soon as a partial sum proves it strictly worse.
// The delta holds only live shapes disjoint from every other part, so
// its published bounds are admissible for the same reason a shard's are
// (DESIGN.md §4.9).
func scoreDeltaApprox(d *ingest.Delta, pq *core.PreparedQuery, ids []int, k int, shared *core.SharedBound) []Match {
	out := make([]Match, 0, len(ids))
	kth := newDistTopK(k)
	for _, id := range ids {
		cut := kth.Kth()
		if shared != nil {
			if sv := shared.Load(); sv < cut {
				cut = sv
			}
		}
		m, ok := d.ScoreBounded(id, pq, cut)
		if !ok {
			continue
		}
		kth.Add(m.Distance)
		if shared != nil {
			if bound := kth.Kth(); !math.IsInf(bound, 1) {
				shared.Tighten(bound)
			}
		}
		out = append(out, Match{
			ShapeID:     m.GID,
			ImageID:     m.ImageID,
			Distance:    m.Distance,
			Approximate: true,
		})
	}
	sortMatches(out)
	return out
}

// mergeStats aggregates per-shard retrieval stats: work counters sum,
// the iteration/ε high-water marks are maxima, and the merged result
// counts as converged only if every shard converged (only then is the
// merged top-k proven to be the true global top-k).
func mergeStats(ss []Stats) Stats {
	out := Stats{Converged: true}
	for _, s := range ss {
		out.Iterations = max(out.Iterations, s.Iterations)
		out.FinalEpsilon = max(out.FinalEpsilon, s.FinalEpsilon)
		out.VerticesCounted += s.VerticesCounted
		out.Candidates += s.Candidates
		out.Converged = out.Converged && s.Converged
		out.UsedANN = out.UsedANN || s.UsedANN
		out.ANNProbes += s.ANNProbes
		out.ANNCandidates += s.ANNCandidates
		out.BlockReads += s.BlockReads
	}
	return out
}

// fanout runs n independent work items on up to workers goroutines.
// Items are claimed from one atomic counter, so workers that finish
// cheap items immediately steal the next pending one — unlike a static
// split (or a single dispatcher goroutine feeding an unbuffered
// channel, which adds one rendezvous per item and idles workers while
// the dispatcher is descheduled), uneven item costs never strand work
// behind a slow peer. A context cancelled while items are still
// unclaimed stops the claiming and returns ctx.Err(); otherwise the
// first item error (by index) is returned. Cancellation detection is
// deliberately best-effort: a cancel that lands after every item has
// been claimed (but while some still run) is ignored and the call
// returns full results, and a cancel racing the final claims may
// resolve either way depending on which a worker observes first —
// callers get ctx.Err() only as a guarantee that some items never ran,
// never as a guarantee that the deadline was strictly respected.
func fanout(ctx context.Context, n, workers int, run func(i int) error) error {
	if n == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// A sequential plan runs inline on the caller's goroutine: no
		// spawn, no barrier, same item order and same cancellation
		// contract (ctx.Err() is returned only when items never ran).
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := run(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var aborted atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					if next.Load() < int64(n) {
						aborted.Store(true)
					}
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = run(i)
			}
		}()
	}
	wg.Wait()
	if aborted.Load() {
		return ctx.Err()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mergeHeap is the k-way merge frontier over per-shard match lists,
// each already sorted by (Distance, ShapeID). The heap orders list
// indices by their head element under the same comparator, so popping
// heads yields the globally sorted sequence.
type mergeHeap struct {
	lists [][]Match
	pos   []int // cursor into each list
	order []int // heap of list indices, keyed by lists[i][pos[i]]
}

func (h *mergeHeap) Len() int { return len(h.order) }

func (h *mergeHeap) Less(i, j int) bool {
	a := h.lists[h.order[i]][h.pos[h.order[i]]]
	b := h.lists[h.order[j]][h.pos[h.order[j]]]
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	return a.ShapeID < b.ShapeID
}

func (h *mergeHeap) Swap(i, j int) { h.order[i], h.order[j] = h.order[j], h.order[i] }

func (h *mergeHeap) Push(x any) { h.order = append(h.order, x.(int)) }

func (h *mergeHeap) Pop() any {
	x := h.order[len(h.order)-1]
	h.order = h.order[:len(h.order)-1]
	return x
}

// mergeTopK merges sorted match lists into the k smallest elements
// under the sortMatches order (Distance, then ShapeID). The merge is
// exact and bounded: it inspects at most k + len(lists) heads, never
// materializing the full concatenation.
func mergeTopK(lists [][]Match, k int) []Match {
	h := &mergeHeap{lists: lists, pos: make([]int, len(lists))}
	total := 0
	for li, l := range lists {
		if len(l) > 0 {
			h.order = append(h.order, li)
			total += len(l)
		}
	}
	heap.Init(h)
	out := make([]Match, 0, min(k, total))
	for h.Len() > 0 && len(out) < k {
		li := h.order[0]
		out = append(out, h.lists[li][h.pos[li]])
		h.pos[li]++
		if h.pos[li] == len(h.lists[li]) {
			heap.Pop(h)
		} else {
			heap.Fix(h, 0)
		}
	}
	return out
}
