package ingest

import (
	"fmt"
	"maps"

	"repro/internal/core"
	"repro/internal/geohash"
	"repro/internal/geom"
	"repro/internal/query"
)

// Delta is the live part of a sharded engine: the images inserted since
// the last compaction, as one immutable version. Insert and Delete leave
// the receiver as it is and return its successor, so a reader holding a
// version reads it unchanged, without a lock, for as long as it holds it;
// the owner serializes mutations and publishes each successor it keeps
// (DESIGN.md §4.12). A successor shares its predecessor's arrays — the
// images are a query.DB grown by Append (shapes, graphs, diameter angles,
// in insert order), the hash quadruples an append-only slice — and copies
// only the dead set, on a delete; so only the latest version may be
// mutated, and of the successors of one version only one may be kept.
// Compaction — freezing a version into a real immutable shard — is what
// gives its shapes an index.
//
// A shape's local id is its place in insert order, deleted shapes
// included, and its global id is gidBase + local id: the id a fresh
// unpartitioned Engine over the same AddImage sequence assigns, and the
// one the manifest replay assigns after compaction (deleted images keep
// their reservation), so a shape's id is the same before and after the
// delta it was born in gets compacted.
type Delta struct {
	db *query.DB
	// quads holds, per local id, the characteristic quadruple of the
	// shape's canonical copy over the shared curve family — the zero
	// quadruple, on no curve, for a shape whose canonical normalization
	// fails, as Engine.Freeze leaves such a shape out of its table.
	quads   []geohash.Quadruple
	dead    map[int]bool // local ids of deleted shapes; an image is deleted when its shapes are
	family  *geohash.Family
	gidBase int

	liveImages, liveShapes int
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

// NewDelta creates an empty delta. gidBase is the engine's current
// global-id high-water mark (the image log's next id plus any earlier
// deltas' reservations); opts and hashCurves must be the frozen shards'
// (for result and bucket identity).
func NewDelta(opts query.Options, hashCurves, gidBase int) (*Delta, error) {
	family, err := geohash.NewFamily(hashCurves)
	if err != nil {
		return nil, err
	}
	return &Delta{db: query.NewDB(opts), family: family, gidBase: gidBase}, nil
}

// Insert returns the successor holding the image's shapes too. It fails,
// with no successor, on an invalid shape and on an image id the delta
// holds live (the caller checks the frozen shards).
func (d *Delta) Insert(image int, shapes []geom.Poly) (*Delta, error) {
	if d.Has(image) {
		return nil, fmt.Errorf("ingest: image %d already present", image)
	}
	db, err := d.db.Append(image, shapes)
	if err != nil {
		return nil, err
	}
	next := *d
	next.db = db
	for _, p := range shapes {
		// Mirror Engine.Freeze: hash the canonical copy.
		var quad geohash.Quadruple
		if ce, err := core.NormalizeCanonical(p); err == nil {
			quad = d.family.Characteristic(ce.Poly.Pts)
		}
		next.quads = append(next.quads, quad)
	}
	next.liveImages++
	next.liveShapes += len(shapes)
	return &next, nil
}

// Delete returns the successor in which an image the delta holds live is
// deleted, and whether it held it (the receiver itself when not). The
// image's shapes stay stored, with their global-id reservation (the
// compacted manifest records the image as deleted), so later shapes' ids
// never shift.
func (d *Delta) Delete(image int) (*Delta, bool) {
	g := d.latest(image)
	if g == nil || d.dead[g.Shapes[0]] {
		return d, false
	}
	next := *d
	next.dead = maps.Clone(d.dead)
	if next.dead == nil {
		next.dead = make(map[int]bool, len(g.Shapes))
	}
	for _, id := range g.Shapes {
		next.dead[id] = true
	}
	next.liveImages--
	next.liveShapes -= len(g.Shapes)
	return &next, true
}

// latest is the graph of the image's last insert, nil for none.
func (d *Delta) latest(image int) *query.ImageGraph {
	graphs := d.db.Graphs()
	for i := len(graphs) - 1; i >= 0; i-- {
		if graphs[i].Image == image {
			return graphs[i]
		}
	}
	return nil
}

// Has reports whether the delta holds the image live.
func (d *Delta) Has(image int) bool {
	g := d.latest(image)
	return g != nil && !d.dead[g.Shapes[0]]
}

// NumImages returns the live image count.
func (d *Delta) NumImages() int { return d.liveImages }

// NumShapes returns the live shape count.
func (d *Delta) NumShapes() int { return d.liveShapes }

// NumEntries returns the stored normalized copies, deleted shapes'
// included — as a frozen shard counts its tombstoned ones.
func (d *Delta) NumEntries() int { return d.db.Base().NumEntries() }

// NextGID returns the global-id high-water mark after this delta's
// reservations — the gid base for a successor delta.
func (d *Delta) NextGID() int { return d.gidBase + d.db.Base().NumShapes() }

// GIDBase is the global id of local shape 0.
func (d *Delta) GIDBase() int { return d.gidBase }

// Base is every shape the delta has stored, under local ids: a frozen
// base, searched like a shard's.
func (d *Delta) Base() *core.Base { return d.db.Base() }

// DB is every image the delta has stored, under local shape ids: a frozen
// database, read like a shard's behind Dead.
func (d *Delta) DB() *query.DB { return d.db }

// Dead is the set of deleted local ids (shared; do not modify).
func (d *Delta) Dead() map[int]bool { return d.dead }

// Family returns the delta's curve family (identical across all shards).
func (d *Delta) Family() *geohash.Family { return d.family }

// Lookup is geohash.Table.Lookup over the version's stored quadruples —
// deleted shapes' included, as a frozen shard's table keeps its tombstoned
// ones: the local ids, ascending, whose curve in some quarter is the
// query's or within radius of it. One pass over at most a compaction's
// worth of shapes; no table to keep in step with the versions.
func (d *Delta) Lookup(quad geohash.Quadruple, radius int) []int {
	radius = max(radius, 0)
	var out []int
	for id, sq := range d.quads {
		for q, c := range quad {
			if c > 0 && sq[q] > 0 && sq[q]-c <= radius && c-sq[q] <= radius {
				out = append(out, id)
				break
			}
		}
	}
	return out
}

// Snapshot returns the delta's image log in insert order, for compaction
// and for the manifest: live images with their polygons, deleted ones
// with their shape counts only.
func (d *Delta) Snapshot() []ImageState {
	out := make([]ImageState, len(d.db.Graphs()))
	for i, g := range d.db.Graphs() {
		st := ImageState{ID: g.Image, Deleted: d.dead[g.Shapes[0]], NumShapes: len(g.Shapes)}
		if !st.Deleted {
			st.Shapes = make([]geom.Poly, len(g.Shapes))
			for j, id := range g.Shapes {
				st.Shapes[j] = d.db.Base().Shape(id).Poly
			}
		}
		out[i] = st
	}
	return out
}
