package geosir

import (
	"context"
	"errors"
	"fmt"
	"maps"
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
// in AddImage, then InsertImage, order. Image ids need no translation
// (they are caller-chosen and stored verbatim).
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
// shapes it contributed, which slot physically holds it (-1 when it only
// reserves ids), whether it has since been deleted, and the first global
// and local ids imageLog.place gave its shapes.
type shardImage struct {
	ID      int
	Shapes  int
	Shard   int // the image's slot
	Deleted bool
	GID     int // the image's first global shape id
	Local   int // its first local shape id in its slot; 0 when Shard is -1
}

// imageLog is the image log: every image the engine holds, frozen or in
// a delta, in the order it was sent — the one place a global shape id is
// assigned (place) and the one record of which images are live. Its
// slots are the frozen shards, then the deltas, sealed first; a delta
// image's entry is always in the log's tail, so the entries before the
// first in a slot ≥ len(shards) are the list MANIFEST.json persists. ids
// holds, per slot, the global id of each local id, ascending; dead, per
// slot, the local ids of shapes whose copy belongs to a deleted image
// (nil until the first). An image id may be dead in one slot and live in
// another — delete, re-insert, compact — so the sets are per slot, and of
// shapes, not images. Successor views share each slot's slice and set.
type imageLog struct {
	images []shardImage
	ids    [][]int32
	dead   []map[int]bool
}

func newImageLog(shards int) imageLog {
	return imageLog{ids: make([][]int32, shards), dead: make([]map[int]bool, shards)}
}

// next is the global id the next placed shape takes.
func (l *imageLog) next() int {
	if len(l.images) == 0 {
		return 0
	}
	last := l.images[len(l.images)-1]
	return last.GID + last.Shapes
}

// place appends an image of n shapes: they take the next n global ids
// and, when slot is not -1, that slot's next n local ids, which are
// tombstoned when the image is deleted (a manifest replay). An image
// placed on slot -1 (dropped at load, or deleted before compaction froze
// it) still reserves its ids, so every later shape keeps the id a single
// Engine gives it.
func (l *imageLog) place(id, n, slot int, deleted bool) {
	im := shardImage{ID: id, Shapes: n, Shard: slot, Deleted: deleted, GID: l.next()}
	if slot >= 0 {
		im.Local = len(l.ids[slot])
		for g := im.GID; g < im.GID+n; g++ {
			l.ids[slot] = append(l.ids[slot], int32(g))
		}
		if deleted {
			l.tombstone(im)
		}
	}
	l.images = append(l.images, im)
}

// tombstone adds the local ids of image im to its slot's dead set, in
// place.
func (l *imageLog) tombstone(im shardImage) {
	if l.dead[im.Shard] == nil {
		l.dead[im.Shard] = make(map[int]bool, im.Shapes)
	}
	for local := im.Local; local < im.Local+im.Shapes; local++ {
		l.dead[im.Shard][local] = true
	}
}

// inserted returns the successor of l that holds an image of n shapes in
// slot s, a delta's. It clones the slot list only: the entry list and the
// slot's ids grow past l's ends, so views reading l keep their answers,
// and of the successors of one log only one may be kept.
func (l *imageLog) inserted(id, n, s int) imageLog {
	nl := imageLog{images: l.images, ids: slices.Clone(l.ids), dead: l.dead}
	nl.place(id, n, s, false)
	return nl
}

// deleted returns the successor of l in which entry i, a live image, is
// deleted. It copies the entry list and that entry's slot's dead set, and
// shares the rest, so views reading l keep their answers.
func (l *imageLog) deleted(i int) imageLog {
	im := l.images[i]
	nl := imageLog{images: slices.Clone(l.images), ids: l.ids, dead: slices.Clone(l.dead)}
	nl.images[i].Deleted = true
	nl.dead[im.Shard] = maps.Clone(l.dead[im.Shard])
	nl.tombstone(im)
	return nl
}

// live returns the index of the image's latest entry when that entry is
// a live, physically present copy, in any slot, and -1 otherwise.
func (l *imageLog) live(id int) int {
	for i := len(l.images) - 1; i >= 0; i-- {
		if im := l.images[i]; im.ID == id {
			if im.Deleted || im.Shard < 0 {
				return -1
			}
			return i
		}
	}
	return -1
}

// liveImages is the number of live images in slot s.
func (l *imageLog) liveImages(s int) int {
	n := 0
	for _, im := range l.images {
		if im.Shard == s && !im.Deleted {
			n++
		}
	}
	return n
}

// liveShapes is the number of live shapes in slot s.
func (l *imageLog) liveShapes(s int) int { return len(l.ids[s]) - len(l.dead[s]) }

// manifest is the log's frozen prefix, the entries before the first delta
// image's: the list MANIFEST.json persists for the given shard count.
func (l *imageLog) manifest(shards int) []shardImage {
	for i, im := range l.images {
		if im.Shard >= shards {
			return l.images[:i]
		}
	}
	return l.images
}

// grow returns a copy of l with one more, empty slot: a new active
// delta's, after the slots l has.
func (l *imageLog) grow() imageLog {
	return imageLog{
		images: slices.Clip(l.images),
		ids:    append(slices.Clip(l.ids), nil),
		dead:   append(slices.Clip(l.dead), nil),
	}
}

// folded returns the successor of l in which the images of delta slot s
// are frozen onto a new shard s: the live ones re-homed there under local
// ids that count live shapes only (the order compaction adds them in),
// the deleted ones moved to slot -1, where they keep their reservations.
// With no live image no shard is added: slot s goes, and the slots after
// it move down by one.
func (l *imageLog) folded(s int) imageLog {
	nl := imageLog{images: slices.Clone(l.images), ids: slices.Clone(l.ids), dead: slices.Clone(l.dead)}
	var ids []int32
	for i := range nl.images {
		switch im := &nl.images[i]; {
		case im.Shard != s:
		case im.Deleted:
			im.Shard, im.Local = -1, 0
		default:
			im.Local = len(ids)
			for g := im.GID; g < im.GID+im.Shapes; g++ {
				ids = append(ids, int32(g))
			}
		}
	}
	nl.ids[s], nl.dead[s] = ids, nil
	if len(ids) > 0 {
		return nl
	}
	nl.ids, nl.dead = slices.Delete(nl.ids, s, s+1), slices.Delete(nl.dead, s, s+1)
	for i := range nl.images {
		if nl.images[i].Shard > s {
			nl.images[i].Shard--
		}
	}
	return nl
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
	// window. Each holds the images of a log slot after the shards',
	// sealed first, so the active delta's is the last.
	sealed *ingest.Delta
	active *ingest.Delta
}

// deltas returns the view's delta versions, sealed first: the j-th holds
// log slot len(shards)+j.
func (v *shardView) deltas() []*ingest.Delta {
	switch {
	case v.sealed != nil:
		return []*ingest.Delta{v.sealed, v.active}
	case v.active != nil:
		return []*ingest.Delta{v.active}
	}
	return nil
}

// activeSlot is the log slot of the active delta: the last.
func (v *shardView) activeSlot() int { return len(v.log.ids) - 1 }

// parts lists what a request searches, each behind its slot's tombstones
// and global ids: the shards that store a shape, then the deltas that hold
// live shapes (sealed first) — ascending global-id ranges. A shard
// dropped wholesale by snapshot recovery is left empty and simply
// contributes nothing (partial results).
func (v *shardView) parts() []part {
	out := make([]part, 0, len(v.log.ids))
	for s, sh := range v.shards {
		if sh.NumShapes() > 0 {
			p := sh.part()
			p.ids, p.dead = v.log.ids[s], v.log.dead[s]
			out = append(out, p)
		}
	}
	for j, d := range v.deltas() {
		if s := len(v.shards) + j; v.log.liveShapes(s) > 0 {
			out = append(out, part{db: d.DB(), base: d.Base(), ids: v.log.ids[s], dead: v.log.dead[s], family: d.Family(), lookup: d.Lookup})
		}
	}
	return out
}

// liveShapeCount is the number of shapes a query can return: every
// slot's live shapes.
func (v *shardView) liveShapeCount() int {
	n := 0
	for s := range v.log.ids {
		n += v.log.liveShapes(s)
	}
	return n
}

// inserted returns the successor of v whose active delta holds the image
// too, or the error that refused its shapes.
func (v *shardView) inserted(id int, shapes []Shape) (*shardView, error) {
	next, err := v.active.Insert(id, shapes)
	if err != nil {
		return nil, err
	}
	nv := *v
	nv.active = next
	nv.log = v.log.inserted(id, len(shapes), v.activeSlot())
	return &nv, nil
}

// deleted returns the successor of v in which the image of log entry i
// is deleted, in whichever slot holds it.
func (v *shardView) deleted(i int) *shardView {
	nv := *v
	nv.log = v.log.deleted(i)
	return &nv
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
// shards and the image log placing their images (see loadShardedDir),
// tombstones included. Shards must be frozen.
func newShardedFromParts(opts Options, shards []*Engine, log imageLog, gen uint64) *ShardedEngine {
	se := &ShardedEngine{opts: opts, shards: shards, log: log, frozen: true}
	se.view.Store(&shardView{shards: shards, log: log, gen: gen})
	return se
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

// Freeze freezes every shard in parallel, one goroutine a shard, empty
// ones (possible when shards > images) included: a shard of no shapes is
// frozen like any other, and no view searches it.
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
	se.view.Store(&shardView{shards: se.shards, log: se.log})
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

// NumImages returns the number of live images: every slot's.
func (se *ShardedEngine) NumImages() int {
	v := se.snapshot()
	n := 0
	for s := range v.log.ids {
		n += v.log.liveImages(s)
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
		n += sh.NumEntries()
	}
	for _, d := range v.deltas() {
		n += d.NumEntries()
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
