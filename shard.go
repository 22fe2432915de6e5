package geosir

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
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
// Search lists each request's shapes on every shard and refines them in
// one heap across the shards — results are identical, byte for byte, to a
// single Engine over the same base (see DESIGN.md §4.8 for why).
//
// Shape ids in results are global: the ids a single unpartitioned
// Engine would have assigned, which the image log (imageLog) hands out
// in AddImage order. Image ids need no translation (they are
// caller-chosen and stored verbatim).
//
// After Freeze the engine can optionally go live (EnableIngest): a live
// delta then takes InsertImage/DeleteImage without a rebuild, each write
// publishing a new immutable version of it, queries union the delta with
// the frozen shards, and a background compaction folds the delta into a
// new immutable shard (DESIGN.md §4.12). All of that is coordinated through an immutable
// shardView swapped atomically, so Search never takes a lock.
//
// Concurrency: not safe for concurrent mutation before Freeze; after
// Freeze, Search is fully concurrent, and with ingestion enabled the
// mutation API (InsertImage/DeleteImage/Compact) is itself safe for
// concurrent callers and concurrent with Search.
type ShardedEngine struct {
	opts   Options
	shards []*Engine
	log    imageLog // until Freeze; views carry their own from then on
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

// shardImage is one entry of the image log: the image id, how many
// shapes it contributed, which shard physically holds it (-1 when it
// only reserves ids), whether it has since been deleted, and the first
// global and local ids imageLog.place gave its shapes.
type shardImage struct {
	ID      int
	Shapes  int
	Shard   int
	Deleted bool
	GID     int // the image's first global shape id
	Local   int // its first local shape id on Shard; 0 when Shard is -1
}

// imageLog is the image log: every image in AddImage order, the list
// MANIFEST.json persists, and the one place a global shape id is
// assigned (place). ids holds, per shard, the global id of each local
// id, ascending; successor views share each shard's slice.
type imageLog struct {
	images []shardImage
	ids    [][]int32
}

func newImageLog(shards int) imageLog { return imageLog{ids: make([][]int32, shards)} }

// next is the global id the next placed shape takes.
func (l *imageLog) next() int {
	if len(l.images) == 0 {
		return 0
	}
	last := l.images[len(l.images)-1]
	return last.GID + last.Shapes
}

// place appends an image of n shapes: they take the next n global ids
// and, when shard is not -1, that shard's next n local ids. An image
// placed on shard -1 (dropped at load, or deleted before compaction
// froze it) still reserves its ids, so every later shape keeps the id a
// single Engine gives it.
func (l *imageLog) place(id, n, shard int, deleted bool) {
	im := shardImage{ID: id, Shapes: n, Shard: shard, Deleted: deleted, GID: l.next()}
	if shard >= 0 {
		im.Local = len(l.ids[shard])
		for g := im.GID; g < im.GID+n; g++ {
			l.ids[shard] = append(l.ids[shard], int32(g))
		}
	}
	l.images = append(l.images, im)
}

// grow returns a copy of the log over extra more (empty) shards, which
// place may extend while views keep reading l. The copy shares l's
// shards' id slices, so it places no image on them.
func (l *imageLog) grow(extra int) imageLog {
	return imageLog{images: slices.Clip(l.images), ids: append(slices.Clip(l.ids), make([][]int32, extra)...)}
}

// shardView is one immutable snapshot of everything a query needs. A
// view is built once, published with an atomic store, and never mutated
// afterwards; queries that loaded an old view keep a consistent base
// while mutations install successors.
type shardView struct {
	shards []*Engine
	log    imageLog
	gen    uint64 // compaction generation, for statz and the manifest

	// sealed is the delta version a running compaction is folding,
	// active the latest version of the delta taking new writes — each
	// write publishes a successor view holding its successor version.
	// Both nil before EnableIngest; sealed is nil outside a compaction
	// window. sealed precedes active: its global ids are lower.
	sealed *ingest.Delta
	active *ingest.Delta

	// deadShapes marks, per shard, the local shape ids whose frozen copy
	// is tombstoned (image deleted after its shard froze): every read skips
	// them before they are scored or name an image. Nil until the first
	// tombstone. An image id may legitimately be dead in one shard and
	// live in another — delete then re-insert then compact — so the sets
	// are per shard, and of shapes, not images.
	deadShapes []map[int]bool
}

// deltas returns the view's delta versions that hold live shapes, sealed
// first: ascending global-id ranges.
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

// deadOf returns one shard's dead shapes, nil when it has none: the view's
// sets are nil until the first tombstone and stop short of shards a
// compaction added since.
func (v *shardView) deadOf(shard int) map[int]bool {
	if shard < len(v.deadShapes) {
		return v.deadShapes[shard]
	}
	return nil
}

// markDead records the shapes of frozen image im, its local range on
// its shard, as tombstoned. It writes in place: the caller owns v's dead
// sets (a view not yet published, over a fresh copy of the shard's set
// when it succeeds a published one).
func (v *shardView) markDead(im shardImage) {
	if v.deadShapes == nil {
		v.deadShapes = make([]map[int]bool, len(v.shards))
	}
	if v.deadShapes[im.Shard] == nil {
		v.deadShapes[im.Shard] = make(map[int]bool)
	}
	for local := im.Local; local < im.Local+im.Shapes; local++ {
		v.deadShapes[im.Shard][local] = true
	}
}

// parts lists what a request searches: the live shards, each behind its
// tombstones and global ids, then the deltas (sealed first) — ascending
// global-id ranges.
func (v *shardView) parts() []part {
	live := v.liveShards()
	deltas := v.deltas()
	out := make([]part, 0, len(live)+len(deltas))
	for _, si := range live {
		p := v.shards[si].part()
		p.ids, p.dead = v.log.ids[si], v.deadOf(si)
		out = append(out, p)
	}
	for _, d := range deltas {
		out = append(out, deltaPart(d))
	}
	return out
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
		log:    newImageLog(shards),
	}
}

// newShardedFromParts assembles a sharded engine from already-loaded
// shards and the image log placing their images (see loadShardedDir).
// Shards must be frozen or empty.
func newShardedFromParts(opts Options, shards []*Engine, log imageLog, gen uint64) *ShardedEngine {
	se := &ShardedEngine{opts: opts, shards: shards, log: log, frozen: true}
	se.publishBaseView(gen)
	return se
}

// publishBaseView installs the initial query view over the frozen
// shards, deriving the tombstone sets from the image log's Deleted
// flags (all empty on a freshly built engine).
func (se *ShardedEngine) publishBaseView(gen uint64) {
	v := &shardView{shards: se.shards, log: se.log, gen: gen}
	for _, im := range se.log.images {
		if im.Deleted && im.Shard >= 0 {
			v.markDead(im)
		}
	}
	se.view.Store(v)
}

// snapshot returns the current query view, or a transient one over the
// build-phase state before Freeze has published the first view.
func (se *ShardedEngine) snapshot() *shardView {
	if v := se.view.Load(); v != nil {
		return v
	}
	return &shardView{shards: se.shards, log: se.log}
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
	se.log.place(imageID, len(shapes), shard, false)
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

// NumImages returns the number of live images: each shard's behind its
// tombstones plus the deltas' live images.
func (se *ShardedEngine) NumImages() int {
	v := se.snapshot()
	n := 0
	for i, sh := range v.shards {
		n += sh.db.Without(v.deadOf(i)).NumImages()
	}
	for _, d := range v.deltas() {
		n += d.NumImages()
	}
	return n
}

// NumShapes returns the number of live shapes (see liveShapeCount).
func (se *ShardedEngine) NumShapes() int { return se.snapshot().liveShapeCount() }

// NumEntries returns the number of stored normalized copies across all
// shards and deltas. Deleted shapes' copies remain stored — a frozen
// one's until a rebuild, a delta one's until compaction — and are still
// counted.
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

// Search answers one retrieval request over the live shards — and, when
// ingestion is enabled, the live delta(s): the request flow of search,
// over this engine's current view.
func (se *ShardedEngine) Search(ctx context.Context, req SearchRequest) (*SearchResponse, error) {
	return search(ctx, &se.sched, se.frozen, se.searchView, req)
}

func (se *ShardedEngine) searchView() searchView {
	return searchView{parts: se.snapshot().parts()}
}

// SchedStats reports the engine's execution-scheduler counters: the
// in-flight request gauge and the fan-out/sequential plan counts.
func (se *ShardedEngine) SchedStats() SchedStats { return schedStatsFrom(se.sched.Stats()) }

// Query evaluates a topological query (§5) over the request's view —
// the live shards behind their tombstones and, when ingestion is
// enabled, the live delta(s) — as Engine.Query does over its one part
// (topological): the images a single Engine over the live images
// answers, with a plan whose counts sum the parts'. Like Search it takes
// no lock and is safe to call from any number of goroutines.
func (se *ShardedEngine) Query(ctx context.Context, src string, binds map[string]Shape) ([]int, string, error) {
	return topological(ctx, se.frozen, se.searchView, src, binds)
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
