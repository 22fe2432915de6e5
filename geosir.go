// Package geosir is GeoSIR, a geometric-similarity image retrieval
// engine: the Go reproduction of "Geometric-Similarity Retrieval in Large
// Image Bases" (Fudos, Palios, Pitoura — ICDE 2002).
//
// Shapes are simple polygons or polylines extracted from object
// boundaries. Retrieval uses a similarity criterion based on the average
// minimum point distance, an exact search that refines shapes in the order
// of a cheap lower bound (the paper's incremental ε-envelope "fattening" algorithm over simplex
// range-search structures is reproduced beside it, in internal/core), and
// geometric hashing for approximate matches. A topological query
// processor answers compound queries over pairwise shape relations
// (contain / overlap / disjoint, with diameter angles).
//
// Quick start:
//
//	eng := geosir.New(geosir.DefaultOptions())
//	eng.AddImage(0, []geosir.Shape{geosir.NewPolygon(...)})
//	eng.Freeze()
//	resp, _ := eng.Search(ctx, geosir.SearchRequest{Query: sketch, K: 3})
//
// All retrieval goes through the unified Search method (see Searcher);
// a ShardedEngine partitions the image base across independent shards
// and answers the same Search requests byte for byte like one Engine,
// listing the shards in parallel and refining their shapes in one heap.
package geosir

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/annindex"
	"repro/internal/core"
	"repro/internal/geohash"
	"repro/internal/geom"
	"repro/internal/mmap"
	"repro/internal/query"
	"repro/internal/sched"
)

// Point is a point in the plane.
type Point = geom.Point

// Shape is an object boundary: a simple polygon (Closed) or polyline.
type Shape = geom.Poly

// Transform is a direct similarity transform (rotation, uniform scale,
// translation) — retrieval is invariant under it.
type Transform = geom.Transform

// Pt constructs a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// Similarity builds the transform that scales by s, rotates by theta, and
// then translates by t.
func Similarity(s, theta float64, t Point) Transform {
	return Transform{S: s, Theta: theta, T: t}
}

// NewPolygon constructs a closed Shape from vertices.
func NewPolygon(pts ...Point) Shape { return geom.NewPolygon(pts...) }

// NewPolyline constructs an open Shape from vertices.
func NewPolyline(pts ...Point) Shape { return geom.NewPolyline(pts...) }

// Options configure an Engine.
type Options struct {
	// Alpha is the α-diameter normalization slack (§2.4).
	Alpha float64
	// Beta is the vertex-fraction tolerance of the fattening
	// algorithm (§2.5).
	Beta float64
	// Tau is the similarity threshold of g_similar, in diameter units.
	Tau float64
	// AngleTol is the θ matching tolerance of topological predicates,
	// radians.
	AngleTol float64
	// HashCurves is the number of hash curves per lune quarter (§3).
	HashCurves int
}

// DefaultOptions returns the prototype defaults: α = 0.1, β = 0.25,
// τ = 0.05, 50 curves per quarter (the paper's Figure 4 example).
func DefaultOptions() Options {
	return Options{Alpha: 0.1, Beta: 0.25, Tau: 0.05, AngleTol: 0.1, HashCurves: 50}
}

// Match is one retrieved shape. Its JSON form is the daemon's wire form.
type Match struct {
	ShapeID int `json:"shape_id"`
	ImageID int `json:"image_id"`
	// Distance is the similarity distance (symmetric vertex-averaged
	// h_avg), in diameter-normalized units; smaller is more similar.
	Distance float64 `json:"distance"`
	// ContinuousDistance is the symmetrized continuous-boundary measure.
	ContinuousDistance float64 `json:"continuous_distance,omitempty"`
	// Approximate marks results found by geometric hashing (or the ANN
	// tier) rather than the exact search.
	Approximate bool `json:"approximate,omitempty"`
}

// Stats reports retrieval work (see §2.5's complexity analysis). Its JSON
// form is the daemon's wire form, BlockReads left out.
type Stats struct {
	// Iterations and FinalEpsilon are the paper's envelope fattenings and
	// the last envelope's ε (§2.5). The exact search opens no envelope
	// (DESIGN.md §4.9): it reports 1 iteration and FinalEpsilon 0. A
	// request with no exact stage reports 0 iterations.
	Iterations   int     `json:"iterations"`
	FinalEpsilon float64 `json:"final_epsilon"`
	// VerticesCounted counts the normalized copies the exact search
	// floored: every live copy, once (no range search runs, no vertex is
	// reported).
	VerticesCounted int `json:"vertices_counted"`
	// Candidates counts the normalized copies that reached the exact
	// evaluator in any stage of the request — not those the query's
	// distance field rejected first (DESIGN.md §4.9).
	Candidates int `json:"candidates"`
	// Converged reports that the exact matches are proven the top K: false
	// only when K exceeds the live shapes.
	Converged bool `json:"converged"`
	// UsedHashing reports that the geometric hash table answered: the
	// request was ModeApproximate without AnnApprox.
	UsedHashing bool `json:"used_hashing"`
	// UsedANN reports that the MinHash/LSH candidate tier generated the
	// candidates (AnnApprox); ANNProbes counts LSH buckets probed and
	// ANNCandidates the candidates the tier emitted, summed over stages
	// and shards.
	UsedANN       bool `json:"used_ann,omitempty"`
	ANNProbes     int  `json:"ann_probes,omitempty"`
	ANNCandidates int  `json:"ann_candidates,omitempty"`
	// BlockReads is the page-granular storage footprint of the entries
	// whose vertices this search read (the paper's §4 block-access measure, live on
	// the real path instead of the extstore simulation). Under mmap
	// serving it estimates the pages the query could fault in.
	BlockReads int `json:"-"`
}

// Engine is a GeoSIR instance: the shape base, the per-image topology
// graphs, and the geometric hash table.
//
// Concurrency: an Engine is not safe for concurrent mutation, but after
// Freeze every index structure is immutable — the ANN index is derived at
// its first probe, once, under a sync.Once — and Search and Query may be
// called from any number of goroutines.
type Engine struct {
	opts   Options
	db     *query.DB
	family *geohash.Family
	table  *geohash.Table
	frozen bool

	// ann is the ANN tier's index, derived once, by ANNIndex.
	annOnce sync.Once
	ann     *annindex.Index

	// mapping is the snapshot mapping the engine serves from (nil =
	// heap). Set by mapGSIR3, which also pins the mapping's lifetime to
	// the engine; see persist_v3.go.
	mapping *mmap.Mapping

	// sched plans per-request fan-out width (sketch shapes) from the
	// live in-flight load; the zero value is ready to use.
	sched sched.Planner
}

// New creates an empty engine.
func New(opts Options) *Engine {
	if opts.HashCurves <= 0 {
		opts.HashCurves = 50
	}
	return &Engine{opts: opts, db: query.NewDB(queryOptions(opts))}
}

// queryOptions is the one mapping of an engine's options onto the options
// its images are stored, searched and read under — every shard's, a
// loaded one's and the live delta's, which must match bit for bit.
func queryOptions(o Options) query.Options {
	q := query.DefaultOptions()
	if o.Alpha > 0 {
		q.Core.Alpha = o.Alpha
	}
	if o.Beta > 0 {
		q.Core.Beta = o.Beta
	}
	if o.Tau > 0 {
		q.Tau = o.Tau
	}
	if o.AngleTol > 0 {
		q.AngleTol = o.AngleTol
	}
	return q
}

// AddImage registers an image with its object-boundary shapes. Shapes
// must be valid (simple, ≥2 distinct vertices; ≥3 for polygons). After
// Freeze it fails with ErrFrozen.
func (e *Engine) AddImage(imageID int, shapes []Shape) error {
	if e.frozen {
		return ErrFrozen
	}
	return e.db.AddImage(imageID, shapes)
}

// Freeze builds the geometric hash table; the engine becomes read-only
// and queryable. An engine of no images freezes too, and answers nothing.
func (e *Engine) Freeze() error {
	if e.frozen {
		return nil
	}
	family, err := geohash.NewFamily(e.opts.HashCurves)
	if err != nil {
		return err
	}
	e.family = family
	e.table = geohash.NewTable(family)
	// Each shape's quadruple depends on that shape alone: they are solved
	// on up to GOMAXPROCS goroutines, each into its shape's slot (no item
	// fails fanout), and inserted in shape-id order, so the table is the
	// same at any width.
	shapes := e.db.Base().Shapes()
	quads := make([]geohash.Quadruple, len(shapes))
	hashed := make([]bool, len(shapes))
	fanout(context.Background(), len(shapes), 0, func(i int) error {
		ce, err := core.NormalizeCanonical(shapes[i].Poly)
		if err != nil {
			return nil // degenerate shapes never got this far, but be safe
		}
		quads[i], hashed[i] = family.Characteristic(ce.Poly.Pts), true
		return nil
	})
	for i, s := range shapes {
		if !hashed[i] {
			continue
		}
		if err := e.table.Insert(s.ID, quads[i]); err != nil {
			return fmt.Errorf("geosir: hashing shape %d: %w", s.ID, err)
		}
	}
	e.frozen = true
	return nil
}

// Options returns the configuration the engine was created with (after
// defaulting, so a persisted and reloaded engine reports identical
// options).
func (e *Engine) Options() Options { return e.opts }

// Frozen reports whether Freeze has completed and the engine is queryable.
func (e *Engine) Frozen() bool { return e.frozen }

// NumImages returns the number of images.
func (e *Engine) NumImages() int { return e.db.NumImages() }

// NumShapes returns the number of stored shapes.
func (e *Engine) NumShapes() int { return e.db.Base().NumShapes() }

// NumEntries returns the number of normalized copies in the shape base.
func (e *Engine) NumEntries() int { return e.db.Base().NumEntries() }

// DB exposes the topological query layer for advanced use.
func (e *Engine) DB() *query.DB { return e.db }

// Base exposes the underlying shape base for advanced use.
func (e *Engine) Base() *core.Base { return e.db.Base() }

// HashTable exposes the geometric hash table for advanced use.
func (e *Engine) HashTable() *geohash.Table { return e.table }

// Query parses and executes a topological query (§5), e.g.
//
//	similar(a) AND NOT overlap(b, c, any)
//
// with binds supplying the named shapes. It returns the matching image
// ids (sorted) and a rendering of the execution plan; both depend only on
// the engine and the query. A cancelled ctx stops the query within one
// scan chunk and returns ctx's error.
func (e *Engine) Query(ctx context.Context, src string, binds map[string]Shape) ([]int, string, error) {
	return topological(ctx, e.frozen, e.searchView, src, binds)
}

// topological is the one topological read (§5): the query is parsed and
// its shapes prepared once, then evaluated on each part of the view behind
// the part's dead shapes. Every shape of an image lives on one part and
// a topological predicate relates shapes of one image, so the answer is
// the union of the parts' answers, and the plan sums their counts: the
// estimator's c cancels out of every planner decision, so each part
// picks the same drivers. ctx is checked first and then as each part
// reads.
func topological(ctx context.Context, frozen bool, view func() searchView, src string, binds map[string]Shape) ([]int, string, error) {
	if !frozen {
		return nil, "", ErrNotFrozen
	}
	if err := ctx.Err(); err != nil {
		return nil, "", err
	}
	q, err := query.Prepare(src, query.Bindings(binds))
	if err != nil {
		return nil, "", err
	}
	var ids []int
	plan := &query.Plan{}
	for _, p := range view().parts {
		set, pp, err := p.db.Without(p.dead).Eval(ctx, q)
		if err != nil {
			return nil, "", err
		}
		ids = append(ids, set.Sorted()...)
		plan.Add(pp)
	}
	sort.Ints(ids)
	return ids, plan.String(), nil
}

// SketchMatch is one image retrieved by a multi-shape sketch.
type SketchMatch struct {
	ImageID int `json:"image_id"`
	// Score is the mean, over the sketch's shapes, of the distance to
	// the best-matching shape in the image; smaller is better.
	Score float64 `json:"score"`
	// PerShape holds the per-sketch-shape best distances (aligned with
	// the query slice).
	PerShape []float64 `json:"per_shape"`
}
