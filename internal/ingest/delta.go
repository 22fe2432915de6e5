package ingest

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/geohash"
	"repro/internal/geom"
)

// Delta is the mutable shard of a sharded engine: a core.Dynamic holding
// the images inserted since the last compaction, plus its own geometric
// hash table over the shared deterministic curve family so the delta
// participates in the approximate (hashing) path with the same buckets a
// frozen shard would hold. All methods are safe for concurrent use.
// Compaction — freezing the delta into a real immutable shard — is what
// gives its shapes an index.
//
// Global shape ids are assigned here, at insert time, by the same rule
// the manifest replay uses after compaction (sequential from the id
// space's current end, in insert order, with deleted images keeping
// their reservation), so a shape's id is identical before and after the
// delta it was born in gets compacted — and identical to what a fresh
// unpartitioned Engine over the same AddImage sequence would assign.
type Delta struct {
	mu     sync.RWMutex
	opts   core.Options
	dyn    *core.Dynamic
	family *geohash.Family
	table  *geohash.Table

	images  []imageRec
	byImage map[int]int // image id → latest images index

	gids       []int // dyn shape id → global shape id
	imageOf    []int // dyn shape id → image id
	deletedDyn []bool

	liveImages int
	liveShapes int
	nextGID    int
	sealed     bool
}

// imageRec is one Insert call, in order — the delta's slice of the
// manifest image log.
type imageRec struct {
	ID      int
	GIDBase int
	DynIDs  []int
	Deleted bool
}

// ImageState is one delta image as seen by compaction: live images
// carry their original polygons (to be fed to the new shard's
// AddImage), deleted ones only their shape count (their global-id
// reservation must survive in the manifest).
type ImageState struct {
	ID        int
	Deleted   bool
	NumShapes int
	Shapes    []geom.Poly // nil when Deleted
}

// Match is one delta query result, already in global id space.
type Match struct {
	GID        int
	ImageID    int
	Distance   float64
	Continuous float64
}

// NewDelta creates an empty delta. gidBase is the engine's current
// global-id high-water mark (core.ShardMap.NumGlobal plus any earlier
// deltas' reservations); hashCurves sizes the curve family exactly like
// the frozen shards' (it must match for bucket identity).
func NewDelta(opts core.Options, hashCurves, gidBase int) (*Delta, error) {
	family, err := geohash.NewFamily(hashCurves)
	if err != nil {
		return nil, err
	}
	return &Delta{
		opts:    opts,
		dyn:     core.NewDynamic(opts),
		family:  family,
		table:   geohash.NewTableWith(family),
		byImage: make(map[int]int),
		nextGID: gidBase,
	}, nil
}

// ErrSealed is returned by mutations against a delta that a compaction
// has already claimed.
var ErrSealed = fmt.Errorf("ingest: delta is sealed")

// Insert adds an image's shapes. The insert is atomic: on any shape's
// validation failure the already-inserted prefix is rolled back and the
// delta is unchanged. Inserting an image id the delta already holds live
// is an error (the caller checks the frozen shards).
func (d *Delta) Insert(image int, shapes []geom.Poly) error {
	if len(shapes) == 0 {
		return fmt.Errorf("ingest: image %d has no shapes", image)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.sealed {
		return ErrSealed
	}
	if i, ok := d.byImage[image]; ok && !d.images[i].Deleted {
		return fmt.Errorf("ingest: image %d already present", image)
	}
	rec := imageRec{ID: image, GIDBase: d.nextGID, DynIDs: make([]int, 0, len(shapes))}
	for _, p := range shapes {
		id, err := d.dyn.Insert(image, p)
		if err != nil {
			d.rollbackShapesLocked(rec.DynIDs)
			return err
		}
		rec.DynIDs = append(rec.DynIDs, id)
		for len(d.gids) <= id {
			d.gids = append(d.gids, -1)
			d.imageOf = append(d.imageOf, -1)
			d.deletedDyn = append(d.deletedDyn, false)
		}
		d.gids[id] = d.nextGID + len(rec.DynIDs) - 1
		d.imageOf[id] = image
		// Mirror Engine.Freeze: hash the canonical copy; degenerate shapes
		// that normalization rejects simply stay out of the table.
		if ce, err := core.NormalizeCanonical(p); err == nil {
			quad := d.family.Characteristic(ce.Poly.Pts)
			if err := d.table.Insert(id, quad); err != nil {
				d.rollbackShapesLocked(rec.DynIDs)
				return fmt.Errorf("ingest: hashing shape %d: %w", id, err)
			}
		}
	}
	d.nextGID += len(rec.DynIDs)
	d.byImage[image] = len(d.images)
	d.images = append(d.images, rec)
	d.liveImages++
	d.liveShapes += len(rec.DynIDs)
	return nil
}

// rollbackShapesLocked undoes a failed Insert's already-indexed prefix:
// the dyn shapes are deleted and their id mappings cleared, so the
// global ids they briefly held (nextGID never advanced) are free for the
// next insert with no live phantom claiming them. Any hash-table entries
// stay behind tombstoned — deletedDyn filters them out of every lookup,
// exactly as after Delete. Caller holds mu.
func (d *Delta) rollbackShapesLocked(dynIDs []int) {
	for _, id := range dynIDs {
		_ = d.dyn.Delete(id)
		d.deletedDyn[id] = true
		d.gids[id] = -1
		d.imageOf[id] = -1
	}
}

// RollbackLast removes the delta's most recent Insert entirely,
// releasing its global-id reservation. The caller must pass the image
// id of the insert it is undoing, and must serialize mutations (the
// ingestion layer does): only then is the record guaranteed to be the
// delta's last, which is what makes un-reserving the ids safe. Used
// when the write-ahead append for an insert fails — the insert was
// never acknowledged, so no trace of it may survive.
func (d *Delta) RollbackLast(image int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.images)
	if n == 0 || d.images[n-1].ID != image || d.images[n-1].Deleted {
		return
	}
	rec := d.images[n-1]
	for _, id := range rec.DynIDs {
		_ = d.dyn.Delete(id)
		d.deletedDyn[id] = true
		d.gids[id] = -1
		d.imageOf[id] = -1
	}
	d.images = d.images[:n-1]
	d.liveImages--
	d.liveShapes -= len(rec.DynIDs)
	d.nextGID = rec.GIDBase
	// Restore the previous record for this image id, if any (an earlier
	// deleted incarnation), so Has/ShapeCount stay coherent.
	delete(d.byImage, image)
	for i := n - 2; i >= 0; i-- {
		if d.images[i].ID == image {
			d.byImage[image] = i
			break
		}
	}
}

// Delete tombstones an image the delta holds live. It reports the
// image's shape count and whether it was found; the global-id
// reservation is kept (the compacted manifest records the image as
// deleted), so later shapes' ids never shift.
func (d *Delta) Delete(image int) (int, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.sealed {
		return 0, false, ErrSealed
	}
	i, ok := d.byImage[image]
	if !ok || d.images[i].Deleted {
		return 0, false, nil
	}
	rec := &d.images[i]
	for _, id := range rec.DynIDs {
		_ = d.dyn.Delete(id)
		d.deletedDyn[id] = true
	}
	rec.Deleted = true
	d.liveImages--
	d.liveShapes -= len(rec.DynIDs)
	return len(rec.DynIDs), true, nil
}

// Has reports whether the delta holds the image live.
func (d *Delta) Has(image int) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	i, ok := d.byImage[image]
	return ok && !d.images[i].Deleted
}

// NumImages returns the live image count.
func (d *Delta) NumImages() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.liveImages
}

// NumShapes returns the live shape count.
func (d *Delta) NumShapes() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.liveShapes
}

// NumEntries returns the normalized-copy count across live shapes.
func (d *Delta) NumEntries() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.dyn.NumEntries()
}

// NextGID returns the global-id high-water mark after this delta's
// reservations — the gid base for a successor delta.
func (d *Delta) NextGID() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.nextGID
}

// Seal makes the delta read-only. A compaction seals the delta it is
// folding while a fresh active delta takes over new writes; queries keep
// reading the sealed delta until the hot-swap.
func (d *Delta) Seal() {
	d.mu.Lock()
	d.sealed = true
	d.mu.Unlock()
}

// Match answers a prepared single-shape query against the delta's live
// shapes under the part contract of a frozen shard's search: o.Shared is
// consumed and, with o.Publish, tightened (core.Dynamic.MatchPrepared).
// Matches are in global id space, sorted by (Distance, GID); the int is
// the number of normalized copies that reached the exact evaluator
// (core.Stats.Candidates). withContinuous
// additionally scores the returned matches' continuous measure — the
// exact path needs it (frozen shards report it for their local top-k),
// the hashing paths do not.
func (d *Delta) Match(ctx context.Context, pq *core.PreparedQuery, k int, o core.MatchOpts, withContinuous bool) ([]Match, int, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.liveShapes == 0 {
		return nil, 0, nil
	}
	ms, st, err := d.dyn.MatchPrepared(ctx, pq, k, o, withContinuous)
	if err != nil {
		return nil, 0, err
	}
	// Dyn ids and gids grow together, so the (DistVertex, ShapeID) order
	// of ms is already the (Distance, GID) order the k-way merge expects.
	out := make([]Match, len(ms))
	for i, m := range ms {
		out[i] = Match{GID: d.gids[m.ShapeID], ImageID: d.imageOf[m.ShapeID], Distance: m.DistVertex, Continuous: m.DistContinuous}
	}
	return out, st.Candidates, nil
}

// Family returns the delta's curve family (identical across all shards).
func (d *Delta) Family() *geohash.Family { return d.family }

// Candidates returns the live delta shape ids bucketed with the query
// quadruple at the given curve radius — the delta's contribution to the
// approximate path's candidate union (and to the global widening
// decision).
func (d *Delta) Candidates(quad geohash.Quadruple, radius int) []int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	ids := d.table.Lookup(quad, radius)
	out := ids[:0]
	for _, id := range ids {
		if !d.deletedDyn[id] {
			out = append(out, id)
		}
	}
	return out
}

// ScoreBounded scores one delta shape (by dyn id, as returned from
// Candidates) against a prepared query under an admissible cutoff,
// bit-identical to a frozen shard's scorer. The returned Match carries
// no continuous measure (the hashing paths never report one).
func (d *Delta) ScoreBounded(id int, pq *core.PreparedQuery, cutoff float64) (Match, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id < 0 || id >= len(d.deletedDyn) || d.deletedDyn[id] {
		return Match{}, false
	}
	dist, ok, err := d.dyn.ShapeDistancePreparedBounded(id, pq, cutoff)
	if err != nil || !ok {
		return Match{}, false
	}
	return Match{GID: d.gids[id], ImageID: d.imageOf[id], Distance: dist}, true
}

// Floor is a lower bound on the distance ScoreBounded would report for
// the delta shape (core.Dynamic.ShapeFloor): a bucket is scored in floor
// order. 0 — no claim — for a shape deleted since it was listed.
func (d *Delta) Floor(id int, pq *core.PreparedQuery) float64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.dyn.ShapeFloor(id, pq)
}

// GID maps a delta shape id to its global shape id (-1 if unknown).
func (d *Delta) GID(id int) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id < 0 || id >= len(d.gids) {
		return -1
	}
	return d.gids[id]
}

// ImageOf maps a delta shape id to its image id (-1 if unknown).
func (d *Delta) ImageOf(id int) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id < 0 || id >= len(d.imageOf) {
		return -1
	}
	return d.imageOf[id]
}

// SketchTable reduces a match of one prepared sketch shape against every
// live shape (k = all of them, no bound) to the best distance per live
// image — the delta's contribution to the sketch path's per-shape tables.
func (d *Delta) SketchTable(ctx context.Context, pq *core.PreparedQuery) (map[int]float64, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.liveShapes == 0 {
		return nil, nil
	}
	ms, _, err := d.dyn.MatchPrepared(ctx, pq, d.liveShapes, core.MatchOpts{}, false)
	if err != nil {
		return nil, err
	}
	best := make(map[int]float64)
	for _, m := range ms {
		img := d.imageOf[m.ShapeID]
		if cur, ok := best[img]; !ok || m.DistVertex < cur {
			best[img] = m.DistVertex
		}
	}
	return best, nil
}

// Snapshot returns the delta's image log in insert order, for compaction
// and for the manifest: live images with their polygons, deleted ones
// with their shape counts only.
func (d *Delta) Snapshot() []ImageState {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]ImageState, 0, len(d.images))
	for _, rec := range d.images {
		st := ImageState{ID: rec.ID, Deleted: rec.Deleted, NumShapes: len(rec.DynIDs)}
		if !rec.Deleted {
			st.Shapes = make([]geom.Poly, 0, len(rec.DynIDs))
			for _, id := range rec.DynIDs {
				s, err := d.dyn.Shape(id)
				if err != nil {
					continue // unreachable: live images keep live shapes
				}
				st.Shapes = append(st.Shapes, s.Poly)
			}
		}
		out = append(out, st)
	}
	return out
}

// ShapeCount returns the shape count of an image the delta holds (live
// or deleted) — manifest entries for deleted images still need it.
func (d *Delta) ShapeCount(image int) (int, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	i, ok := d.byImage[image]
	if !ok {
		return 0, false
	}
	return len(d.images[i].DynIDs), true
}
