package geosir

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/ingest"
)

// Live ingestion (DESIGN.md §4.12). A frozen ShardedEngine becomes
// mutable by attaching a write-ahead log and a live delta, whose every
// write publishes a new immutable version:
//
//	InsertImage ──▶ delta + image log entry (queryable immediately) + DELTA.wal record
//	DeleteImage ──▶ image log tombstone, in the image's slot (shard or delta)
//	Compact     ──▶ freeze the delta into shard-N, rewrite MANIFEST.json
//	                (the commit point), truncate the folded WAL prefix
//
// Every acknowledged mutation is durable before it is acknowledged: the
// WAL append (fsynced unless NoSync) happens inside the mutation call.
// Crash recovery is EnableIngest replaying DELTA.wal against the loaded
// snapshot, skipping operations at or below the manifest's walSeq
// watermark — that watermark is what keeps the replay idempotent when a
// crash lands between compaction's manifest rename and its WAL rewrite.

// Errors of the live-ingestion API.
var (
	// ErrIngestOff is returned by mutation calls before EnableIngest.
	ErrIngestOff = errors.New("geosir: live ingestion not enabled")
	// ErrCompacting is returned for mutations that cannot proceed while
	// a compaction is folding the sealed delta: deletes of frozen or
	// sealed images (inserts are never blocked).
	ErrCompacting = errors.New("geosir: compaction in progress")
	// ErrNoImage is returned by DeleteImage for an unknown or already
	// deleted image id.
	ErrNoImage = errors.New("geosir: image not found")
	// ErrImageExists is returned by InsertImage for an id that is
	// already live (in a frozen shard or the delta).
	ErrImageExists = errors.New("geosir: image already present")
)

// DefaultCompactThreshold is the delta shape count that triggers a
// background compaction when IngestConfig.CompactThreshold is 0.
const DefaultCompactThreshold = 2048

// IngestConfig configures EnableIngest.
type IngestConfig struct {
	// Dir is the snapshot directory that holds (or will hold) the
	// MANIFEST.json, shard files, and DELTA.wal. Required. If the
	// directory has no manifest yet, the engine is saved there first.
	Dir string
	// CompactThreshold is the delta shape count at which a background
	// compaction starts: 0 selects DefaultCompactThreshold, negative
	// disables automatic compaction (Compact must be called manually).
	CompactThreshold int
	// NoSync skips the per-append fsync of the WAL. Faster, but a crash
	// may lose acknowledged writes — for benchmarks and tests only.
	NoSync bool
	// wrapWAL and wrapManifest intercept the WAL's and the manifest's
	// payload writes (fault injection in tests).
	wrapWAL      func(io.Writer) io.Writer
	wrapManifest func(io.Writer) io.Writer
	// crashStage, when non-nil, is called between compaction stages
	// ("built", "shard-saved", "manifest-written", "wal-rewritten") and
	// aborts the compaction at that point when it returns an error —
	// simulating a crash for recovery tests.
	crashStage func(stage string) error
}

// IngestStats is the live-ingestion section of /statz.
type IngestStats struct {
	Enabled    bool   `json:"enabled"`
	Compacting bool   `json:"compacting"`
	Generation uint64 `json:"generation"`
	Epoch      uint64 `json:"epoch"`

	DeltaImages  int `json:"delta_images"`
	DeltaShapes  int `json:"delta_shapes"`
	SealedImages int `json:"sealed_images,omitempty"`
	SealedShapes int `json:"sealed_shapes,omitempty"`

	WALOps   int   `json:"wal_ops"`
	WALBytes int64 `json:"wal_bytes"`
	WALTorn  bool  `json:"wal_torn,omitempty"` // a torn tail was cut at startup

	Inserts         uint64 `json:"inserts"`
	Deletes         uint64 `json:"deletes"`
	Compactions     uint64 `json:"compactions"`
	AutoCompactions uint64 `json:"auto_compactions"`
	Replayed        int    `json:"replayed,omitempty"` // WAL ops re-applied at startup

	LastCompactError string `json:"last_compact_error,omitempty"`
}

// ingestor coordinates the mutable side of a live ShardedEngine. One
// mutex serializes every mutation (inserts, deletes, and compaction's
// two short critical sections); queries never take it — they read the
// atomically-published view.
type ingestor struct {
	se  *ShardedEngine
	cfg IngestConfig

	mu      sync.Mutex
	wal     *ingest.WAL
	pending []ingest.Op // WAL ops not yet folded, ascending Seq
	// walFloor is the manifest's fold watermark: every op with
	// Seq ≤ walFloor is reflected in the frozen shards + manifest.
	walFloor uint64
	// sealSeq is the watermark a running (or failed, retryable)
	// compaction is folding up to; meaningful while view.sealed != nil.
	sealSeq uint64
	// closed is set (under both compactMu and mu) by CloseIngest;
	// mutations and compactions against a closed ingestor fail with
	// ErrIngestOff instead of touching the detached WAL or manifest.
	closed bool

	// compactMu serializes compactions and is held for a compaction's
	// whole duration; CloseIngest acquires it to wait out an in-flight
	// fold before releasing the WAL, so a stale compaction can never
	// rewrite the manifest a successor engine is serving. compacting
	// mirrors it for lock-free reads (stats, the auto-compact trigger,
	// DeleteImage's frozen-delete fence).
	compactMu  sync.Mutex
	compacting atomic.Bool

	walTorn bool
	replay  int
	ins     uint64
	dels    uint64
	comps   uint64
	autos   uint64
	lastErr string
}

// newDelta creates an empty delta, storing its images under the frozen
// shards' options (queryOptions) and hashing them with their curve
// family: the delta must match them exactly for result identity.
func (g *ingestor) newDelta() (*ingest.Delta, error) {
	return ingest.NewDelta(queryOptions(g.se.opts), g.se.opts.HashCurves)
}

// IngestEnabled reports whether EnableIngest has completed.
func (se *ShardedEngine) IngestEnabled() bool { return se.ing.Load() != nil }

// EnableIngest attaches live ingestion to a frozen engine: it opens (or
// creates) the snapshot directory's write-ahead log, replays any
// operations past the manifest's fold watermark, and publishes a view
// with an empty live delta. Call once, after Freeze or load, before
// serving mutations; it is not safe concurrently with itself.
func (se *ShardedEngine) EnableIngest(cfg IngestConfig) error {
	if !se.frozen {
		return ErrNotFrozen
	}
	if se.ing.Load() != nil {
		return errors.New("geosir: live ingestion already enabled")
	}
	if cfg.Dir == "" {
		return errors.New("geosir: ingest: snapshot directory required")
	}
	manPath := filepath.Join(cfg.Dir, manifestName)
	if _, err := os.Stat(manPath); err != nil {
		if !os.IsNotExist(err) {
			return fmt.Errorf("geosir: ingest: %w", err)
		}
		if err := se.SaveDir(cfg.Dir); err != nil {
			return err
		}
	}
	man, err := readManifest(manPath)
	if err != nil {
		return err
	}
	v := se.view.Load()
	frozen := v.log.manifest(len(v.shards))
	if man.Shards != len(v.shards) || len(man.Images) != len(frozen) {
		return fmt.Errorf("geosir: ingest: snapshot dir %q does not match engine (%d/%d shards, %d/%d images)",
			cfg.Dir, man.Shards, len(v.shards), len(man.Images), len(frozen))
	}
	if cfg.CompactThreshold == 0 {
		cfg.CompactThreshold = DefaultCompactThreshold
	}
	g := &ingestor{se: se, cfg: cfg, walFloor: man.WALSeq}
	wal, ops, torn, err := ingest.OpenWAL(filepath.Join(cfg.Dir, walName), ingest.Options{
		NoSync:     cfg.NoSync,
		WrapWriter: cfg.wrapWAL,
	})
	if err != nil {
		return err
	}
	g.wal = wal
	g.walTorn = torn
	active, err := g.newDelta()
	if err != nil {
		wal.Close()
		return err
	}
	// The view's frozen part, with the active delta in a slot after the
	// shards'. A view left by an earlier ingestor loses its deltas here:
	// the WAL replays them.
	base := imageLog{images: frozen, ids: v.log.ids[:len(v.shards)], dead: v.log.dead[:len(v.shards)]}
	se.view.Store(&shardView{shards: v.shards, log: base.grow(), gen: v.gen, active: active})
	se.ing.Store(g)

	// Crash recovery: re-apply every operation past the fold watermark.
	// Application is idempotent (an insert of an image that is already
	// live anywhere is a fold the manifest beat us to; a delete of an
	// image that is nowhere live already happened), which covers every
	// crash window and a SaveDir that reset the watermark to 0.
	for _, op := range ops {
		if op.Seq <= g.walFloor {
			continue
		}
		if err := g.applyReplay(op); err != nil {
			se.ing.Store(nil)
			se.view.Store(v)
			wal.Close()
			return fmt.Errorf("geosir: ingest: replaying wal op %d: %w", op.Seq, err)
		}
		g.pending = append(g.pending, op)
		g.replay++
	}
	return nil
}

// applyReplay re-applies one WAL operation during EnableIngest: the
// write decision with no fold running, which reads ErrImageExists and
// ErrNoImage as the operation having already happened.
func (g *ingestor) applyReplay(op ingest.Op) error {
	nv, err := g.se.view.Load().apply(op, false)
	switch {
	case errors.Is(err, ErrImageExists), errors.Is(err, ErrNoImage):
		return nil
	case err != nil:
		return err
	}
	g.se.view.Store(nv)
	return nil
}

// InsertImage adds an image to the live base: validated into a successor
// of the active delta, durably logged, then published — visible to the
// next Search — before acknowledgment. The image id must not be live
// anywhere — frozen shards, sealed delta, or active delta; re-using the id
// of a deleted image is allowed and assigns fresh global shape ids.
func (se *ShardedEngine) InsertImage(ctx context.Context, imageID int, shapes []Shape) error {
	return se.write(ctx, ingest.Op{Kind: ingest.OpInsert, Image: imageID, Shapes: shapes})
}

// DeleteImage removes an image from the live base, durably logged
// before acknowledgment: its shapes are tombstoned in its slot — a frozen
// shard's file, like a delta version, is immutable, and the tombstone
// filters them out of every query path. Deletes of frozen images are
// refused with ErrCompacting while a compaction is folding, and of sealed
// ones until the fold commits, so the fold's input stays exactly the
// write prefix it sealed.
func (se *ShardedEngine) DeleteImage(ctx context.Context, imageID int) error {
	return se.write(ctx, ingest.Op{Kind: ingest.OpDelete, Image: imageID})
}

// write runs one live write under the writer mutex: decide
// (shardView.apply) — nothing refused may reach the log — then append to
// the WAL, then publish, then count. A failed append publishes nothing,
// so an unacknowledged write leaves no trace, an insert's global-id
// reservation included. An insert that fills the active delta to the
// threshold starts a background compaction.
func (se *ShardedEngine) write(ctx context.Context, op ingest.Op) error {
	g := se.ing.Load()
	if g == nil {
		return ErrIngestOff
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return ErrIngestOff
	}
	nv, err := se.view.Load().apply(op, g.compacting.Load())
	if err != nil {
		g.mu.Unlock()
		return err
	}
	if err := g.wal.Append(&op); err != nil {
		g.mu.Unlock()
		return fmt.Errorf("geosir: logging %s: %w", op.Kind, err)
	}
	se.view.Store(nv)
	g.pending = append(g.pending, op)
	se.mutEpoch.Add(1)
	trigger := false
	if op.Kind == ingest.OpDelete {
		g.dels++
	} else {
		g.ins++
		trigger = g.cfg.CompactThreshold > 0 &&
			nv.log.liveShapes(nv.activeSlot()) >= g.cfg.CompactThreshold &&
			!g.compacting.Load()
		if trigger {
			g.autos++
		}
	}
	g.mu.Unlock()
	if trigger {
		go func() {
			if err := se.Compact(); err != nil && !errors.Is(err, ErrCompacting) && !errors.Is(err, ErrIngestOff) {
				g.mu.Lock()
				g.lastErr = err.Error()
				g.mu.Unlock()
			}
		}()
	}
	return nil
}

// Compact folds the delta into a new immutable shard: it seals the
// current delta (a fresh one takes over new inserts immediately),
// builds and freezes a full Engine over the sealed live images, writes
// it as the next shard file, atomically rewrites the manifest — the
// commit point, recording the placement, the deleted reservations, and
// the WAL fold watermark — hot-swaps the query view, and finally drops
// the folded prefix from the WAL. Queries run uninterrupted throughout:
// they see {shards, sealed, active} until the swap and {shards+1,
// active} after, both answering identically.
//
// A failed compaction leaves the sealed delta in place, still serving
// queries; calling Compact again retries the fold from where it left
// off. A crash at any point recovers via EnableIngest: the manifest
// either still names the old watermark (the fold never happened — the
// WAL replays it into a fresh delta) or the new one (the fold committed
// — the folded prefix is skipped).
func (se *ShardedEngine) Compact() error {
	g := se.ing.Load()
	if g == nil {
		return ErrIngestOff
	}
	if !g.compactMu.TryLock() {
		return ErrCompacting
	}
	defer g.compactMu.Unlock()
	g.compacting.Store(true)
	defer g.compacting.Store(false)

	// Phase 1 (short critical section): seal the delta, install its
	// successor, fix the fold watermark.
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return ErrIngestOff
	}
	v := se.view.Load()
	if v.sealed == nil { // else retrying a failed fold
		if len(g.pending) == 0 {
			g.mu.Unlock()
			return nil // nothing to fold
		}
		g.sealSeq = g.pending[len(g.pending)-1].Seq
		active, err := g.newDelta()
		if err != nil {
			g.mu.Unlock()
			return err
		}
		v = &shardView{shards: v.shards, log: v.log.grow(), gen: v.gen, sealed: v.active, active: active}
		se.view.Store(v)
	}
	sealSeq := g.sealSeq
	g.mu.Unlock()

	// Phase 2 (no lock): build and persist the new shard over the sealed
	// slot's live images, in log order, their polygons read from the
	// sealed version. Inserts keep landing in the successor delta, no
	// delete reaches the sealed slot, and queries keep reading it.
	newShard := len(v.shards)
	var eng *Engine
	for _, im := range v.log.images {
		if im.Shard != newShard || v.log.tombstoned(im) {
			continue
		}
		shapes := make([]Shape, im.Shapes)
		for j := range shapes {
			shapes[j] = v.sealed.Base().Shape(im.Local + j).Poly
		}
		if eng == nil {
			eng = New(se.opts)
		}
		if err := eng.AddImage(im.ID, shapes); err != nil {
			return fmt.Errorf("geosir: compaction rebuild: %w", err)
		}
	}
	if eng != nil {
		if err := eng.Freeze(); err != nil {
			return fmt.Errorf("geosir: compaction freeze: %w", err)
		}
	}
	if err := g.stage("built"); err != nil {
		return err
	}
	if eng != nil {
		// The compacted shard is frozen, so the next reload assembles
		// (or mmaps) it instead of re-deriving the index.
		if err := eng.SaveFile(filepath.Join(g.cfg.Dir, shardFileName(newShard))); err != nil {
			return fmt.Errorf("geosir: saving compacted shard: %w", err)
		}
	}
	if err := g.stage("shard-saved"); err != nil {
		return err
	}

	// Phase 3 (short critical section): commit. The manifest rename is
	// the point of no return; everything after it is idempotent cleanup.
	// CloseIngest cannot have run — it blocks on compactMu, held since
	// phase 1 — so the closed re-check only guards future call paths.
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return ErrIngestOff
	}
	cur := se.view.Load()
	nshards := cur.shards
	if eng != nil {
		nshards = append(slices.Clip(cur.shards), eng)
	}
	nv := &shardView{shards: nshards, log: cur.log.folded(newShard), gen: cur.gen + 1, active: cur.active}
	if err := writeManifest(filepath.Join(g.cfg.Dir, manifestName), manifestFromView(nv, sealSeq), g.cfg.wrapManifest); err != nil {
		g.mu.Unlock()
		return fmt.Errorf("geosir: committing compaction: %w", err)
	}
	se.view.Store(nv)
	g.walFloor = sealSeq
	keep := g.pending[:0:0]
	for _, op := range g.pending {
		if op.Seq > sealSeq {
			keep = append(keep, op)
		}
	}
	g.pending = keep
	g.comps++
	se.mutEpoch.Add(1)
	postErr := g.stage("manifest-written")
	var walErr error
	if postErr == nil {
		// Drop the folded prefix. Failure here is benign — the watermark
		// already makes replay skip the stale prefix — so the compaction
		// still counts as committed.
		if walErr = g.wal.Rewrite(g.pending); walErr == nil {
			walErr = g.stage("wal-rewritten")
		}
	}
	g.mu.Unlock()
	if postErr != nil {
		return postErr
	}
	if walErr != nil {
		return fmt.Errorf("geosir: compaction committed; wal truncation failed: %w", walErr)
	}
	return nil
}

// stage invokes the compaction crash-test hook.
func (g *ingestor) stage(name string) error {
	if g.cfg.crashStage != nil {
		return g.cfg.crashStage(name)
	}
	return nil
}

// IngestStats reports the live-ingestion state for /statz.
func (se *ShardedEngine) IngestStats() IngestStats {
	g := se.ing.Load()
	if g == nil {
		return IngestStats{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	v := se.view.Load()
	st := IngestStats{
		Enabled:          true,
		Compacting:       g.compacting.Load(),
		Generation:       v.gen,
		Epoch:            se.mutEpoch.Load(),
		WALOps:           g.wal.Len(),
		WALBytes:         g.wal.Size(),
		WALTorn:          g.walTorn,
		Inserts:          g.ins,
		Deletes:          g.dels,
		Compactions:      g.comps,
		AutoCompactions:  g.autos,
		Replayed:         g.replay,
		LastCompactError: g.lastErr,
	}
	if v.active != nil {
		s := v.activeSlot()
		st.DeltaImages, st.DeltaShapes = v.log.liveImages(s), v.log.liveShapes(s)
	}
	if v.sealed != nil {
		s := len(v.shards)
		st.SealedImages, st.SealedShapes = v.log.liveImages(s), v.log.liveShapes(s)
	}
	return st
}

// CloseIngest quiesces ingestion and releases the WAL file handle: it
// waits out any in-flight compaction (so a stale fold can never rewrite
// the manifest or WAL after a successor engine opens them), then marks
// the ingestor closed. Pending (unfolded) writes stay durable in the
// log; a later EnableIngest replays them. Mutations after CloseIngest
// fail with ErrIngestOff.
func (se *ShardedEngine) CloseIngest() error {
	g := se.ing.Load()
	if g == nil {
		return nil
	}
	g.compactMu.Lock()
	defer g.compactMu.Unlock()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil
	}
	g.closed = true
	se.ing.CompareAndSwap(g, nil)
	return g.wal.Close()
}
