package ingest

import (
	"repro/internal/core"
	"repro/internal/geohash"
	"repro/internal/geom"
	"repro/internal/query"
)

// Delta is the live part of a sharded engine: the images inserted since
// the last compaction, as one immutable version. Insert leaves the
// receiver as it is and returns its successor, so a reader holding a
// version reads it unchanged, without a lock, for as long as it holds it;
// the owner serializes mutations and publishes each successor it keeps
// (DESIGN.md §4.12). A successor shares its predecessor's arrays — the
// images are a query.DB grown by Append (shapes, graphs, diameter angles,
// in insert order), the hash quadruples an append-only slice — so only the
// latest version may be grown, and of the successors of one version only
// one may be kept. Compaction — freezing a version into a real immutable
// shard — is what gives its shapes an index.
//
// A delta only stores: a shape's local id is its place in insert order.
// Which images are live, and each shape's global id, is the engine's
// image log's record, as it is for a frozen shard; the owner keeps the
// ids of live images distinct.
type Delta struct {
	db *query.DB
	// quads holds, per local id, the characteristic quadruple of the
	// shape's canonical copy over the shared curve family — the zero
	// quadruple, on no curve, for a shape whose canonical normalization
	// fails, as Engine.Freeze leaves such a shape out of its table.
	quads  []geohash.Quadruple
	family *geohash.Family
}

// NewDelta creates an empty delta. opts and hashCurves must be the frozen
// shards' (for result and bucket identity).
func NewDelta(opts query.Options, hashCurves int) (*Delta, error) {
	family, err := geohash.NewFamily(hashCurves)
	if err != nil {
		return nil, err
	}
	return &Delta{db: query.NewDB(opts), family: family}, nil
}

// Insert returns the successor holding the image's shapes too, under the
// next local ids. It fails, with no successor, on an invalid shape.
func (d *Delta) Insert(image int, shapes []geom.Poly) (*Delta, error) {
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
	return &next, nil
}

// NumEntries returns the stored normalized copies, deleted shapes'
// included — as a frozen shard counts its tombstoned ones.
func (d *Delta) NumEntries() int { return d.db.Base().NumEntries() }

// Base is every shape the delta has stored, under local ids: a frozen
// base, searched like a shard's.
func (d *Delta) Base() *core.Base { return d.db.Base() }

// DB is every image the delta has stored, under local shape ids: a frozen
// database, read like a shard's behind its dead set.
func (d *Delta) DB() *query.DB { return d.db }

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
