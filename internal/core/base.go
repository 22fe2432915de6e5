package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/rangesearch"
)

// Options configure a shape base.
type Options struct {
	// Alpha is the α-diameter slack of §2.4: every vertex pair at distance
	// ≥ (1-α)·diameter produces two normalized copies. 0 stores only the
	// true diameter. Larger α improves distortion tolerance at the cost of
	// space.
	Alpha float64
	// Beta is the vertex-fraction tolerance of §2.5: a shape becomes a
	// candidate once at least a (1-β) fraction of its vertices lies inside
	// the current ε-envelope.
	Beta float64
	// Backend selects the simplex range-search structure the climb
	// (Match) searches, built on its first use (BuildRangeIndex).
	Backend rangesearch.Kind
	// BackendFactory, when non-nil, overrides Backend with a custom
	// range-search structure built over the flattened vertex set — e.g.
	// the external-memory tree of internal/extindex, so the fattening
	// algorithm runs against external auxiliary structures (§4).
	BackendFactory func(pts []geom.Point) rangesearch.Backend
	// Samples is the boundary sampling density for the continuous
	// measure; ≤ 0 selects DefaultSamples per shape.
	Samples int
	// GrowthFactor is the multiplicative envelope growth per iteration
	// (> 1). The default is 2.
	GrowthFactor float64
}

// DefaultOptions returns the configuration used by the paper's prototype
// experiments: α = 0.1, β = 0.25, kd-tree backend, doubling envelopes.
func DefaultOptions() Options {
	return Options{
		Alpha:        0.1,
		Beta:         0.25,
		Backend:      rangesearch.KindKDTree,
		GrowthFactor: 2,
	}
}

func (o Options) withDefaults() Options {
	if o.GrowthFactor <= 1 {
		o.GrowthFactor = 2
	}
	if o.Backend == "" {
		o.Backend = rangesearch.KindKDTree
	}
	if o.Beta <= 0 || o.Beta >= 1 {
		o.Beta = 0.25
	}
	if o.Alpha < 0 || o.Alpha >= 1 {
		o.Alpha = 0.1
	}
	return o
}

// Base is the shape base: all shapes, their normalized copies, and what
// the searches over them read. A copy is stored as what determines it — its
// EntryMeta, whose (DiamI, DiamJ) names the α-diameter it is normalized
// about — and its vertices' distance-field cells; its vertices are derived
// from its shape when a search reads them (copyPoly).
type Base struct {
	opts   Options
	shapes []Shape

	// meta holds one EntryMeta per normalized copy, each shape's copies one
	// run, the runs in shape order.
	meta []EntryMeta

	// shapeOff maps a shape id to its normalized copies: shape s's are
	// entries shapeOff[s] to shapeOff[s+1]-1 (len = len(shapes)+1), each
	// with the shape's vertex count. cellOff maps it to their cells: the
	// one strided block fieldCells[cellOff[s]:cellOff[s+1]] a search reads
	// of the shape (scanShape), copy c's from cellOff[s] + c·nv.
	shapeOff []int32
	cellOff  []int32

	// fieldCells holds, copy by copy, the distance-field cell each vertex
	// of a copy falls in (fieldCell): what the reject in front of the
	// bounded evaluator reads of a copy. Computed when a shape is added,
	// persisted by a snapshot (FrozenParts) and adopted on load.
	fieldCells []uint16

	// scratch recycles per-query working state across Match calls (see
	// scratch.go). Populated lazily.
	scratch sync.Pool

	// entryCost holds the page-granular storage footprint of each entry
	// (entryBlocks: its cells and meta), computed as it is added or
	// reassembled. The match kernel charges it into Stats.BlocksRead
	// whenever an entry is evaluated (§4 block accounting; see parts.go).
	// totalCost is their sum, what the exact search's floor pass charges.
	entryCost []int32
	totalCost int

	// rng is the climb's range index, built on its first use.
	rng rangeIndex
}

// rangeIndex is what only the paper's §2.5 climb reads: every stored
// vertex, derived copy by copy in entry order (a vertex's id is its cell's
// index in fieldCells), the simplex range-search structure over them and
// the vertex → entry map its reports are read through. No serving search
// climbs, so neither Append nor a snapshot load builds it; the first climb
// does (BuildRangeIndex).
type rangeIndex struct {
	once      sync.Once
	verts     []geom.Point
	backend   rangesearch.Backend
	vertEntry []int32
}

// rangeIndexBuilds counts range-index builds process-wide, for the tests
// that pin which paths build one. copiesDerived counts the copies derived
// outside a search's own reads — by Entry, and by a load's checks
// (BaseFromParts) — for the tests that pin that opening a snapshot
// derives none.
var rangeIndexBuilds, copiesDerived atomic.Int64

// NewBase creates an empty shape base with the given options.
func NewBase(opts Options) *Base {
	return &Base{opts: opts.withDefaults(), shapeOff: []int32{0}, cellOff: []int32{0}}
}

// Opts returns the base's effective options.
func (b *Base) Opts() Options { return b.opts }

// addShape stores p's normalized copies as the base stores a copy: its
// meta, its vertices' cells and its block cost.
func (b *Base) addShape(image int, p geom.Poly) (int, error) {
	if err := p.Validate(); err != nil {
		return 0, fmt.Errorf("core: invalid shape: %w", err)
	}
	entries, err := Normalize(p, b.opts.Alpha)
	if err != nil {
		return 0, err
	}
	if unpairedCopy(len(entries), func(c int) []geom.Point { return entries[c].Poly.Pts }) >= 0 {
		return 0, fmt.Errorf("core: shape lies too far from the origin for its size: its normalized copies are not half-turn pairs")
	}
	id := len(b.shapes)
	b.shapes = append(b.shapes, Shape{ID: id, Image: image, Poly: p.Clone()})
	for _, e := range entries {
		b.meta = append(b.meta, EntryMeta{ShapeID: int32(id), Copy: int32(e.Copy), DiamI: int32(e.DiamI), DiamJ: int32(e.DiamJ)})
		b.fieldCells = appendFieldCells(b.fieldCells, e.Poly.Pts)
		b.entryCost = append(b.entryCost, entryBlocks(len(e.Poly.Pts)))
		b.totalCost += int(b.entryCost[len(b.entryCost)-1])
	}
	b.shapeOff = append(b.shapeOff, int32(len(b.meta)))
	b.cellOff = append(b.cellOff, int32(len(b.fieldCells)))
	return id, nil
}

// Append returns the successor of b holding b's shapes and then polys, all
// of image, under the next ids: the one way a base grows. b stays as it is,
// and every version is searchable, the empty one included. The successor
// shares b's arrays and appends past their ends, which is why only one
// successor of b may be kept — a second Append to b overwrites what the
// first appended. An invalid shape fails the whole call.
func (b *Base) Append(image int, polys []geom.Poly) (*Base, error) {
	n := &Base{
		opts: b.opts, shapes: b.shapes, meta: b.meta, shapeOff: b.shapeOff, cellOff: b.cellOff,
		fieldCells: b.fieldCells, entryCost: b.entryCost, totalCost: b.totalCost,
	}
	for i, p := range polys {
		if _, err := n.addShape(image, p); err != nil {
			return nil, fmt.Errorf("shape %d: %w", i, err)
		}
	}
	return n, nil
}

// appendCopy appends entry ei's normalized vertices to dst (copyOf).
func (b *Base) appendCopy(dst []geom.Point, ei int) []geom.Point {
	return copyOf(b.shapes[b.meta[ei].ShapeID].Poly, b.meta[ei], dst).Pts
}

// copyPoly is entry ei's normalized polygon, derived into dst's storage
// (copyOf): a search derives the copies it reads into its own scratch, so
// the base holds no vertex of a copy.
func (b *Base) copyPoly(ei int, dst []geom.Point) geom.Poly {
	return copyOf(b.shapes[b.meta[ei].ShapeID].Poly, b.meta[ei], dst[:0])
}

// BuildRangeIndex builds the climb's range index — every stored vertex,
// Options.BackendFactory's structure or Options.Backend's over them, and
// the vertex → entry map — unless it is built already. Match and MatchTrace
// call it on their first climb; a caller that times or meters the climb
// calls it first, so that its clock or counters see searches and not the
// build. Safe for concurrent use: one build.
func (b *Base) BuildRangeIndex() {
	b.rng.once.Do(func() {
		rangeIndexBuilds.Add(1)
		verts := make([]geom.Point, 0, len(b.fieldCells))
		vertEntry := make([]int32, 0, len(b.fieldCells))
		for ei := range b.meta {
			verts = b.appendCopy(verts, ei)
			for len(vertEntry) < len(verts) {
				vertEntry = append(vertEntry, int32(ei))
			}
		}
		b.rng.verts, b.rng.vertEntry = verts, vertEntry
		if b.opts.BackendFactory != nil {
			b.rng.backend = b.opts.BackendFactory(verts)
		} else {
			b.rng.backend = rangesearch.New(b.opts.Backend, verts)
		}
	})
}

// EntryOracle builds a boundary-distance oracle over entry i's normalized
// polygon, on demand: the base holds none (the searches read a copy's own
// edges, shapeindex.Edges, to the same bits).
func (b *Base) EntryOracle(i int) *BoundaryDist {
	return NewBoundaryDist(b.copyPoly(i, nil))
}

// NumShapes returns the number of stored shapes.
func (b *Base) NumShapes() int { return len(b.shapes) }

// NumEntries returns the number of normalized copies.
func (b *Base) NumEntries() int { return len(b.meta) }

// NumVertices returns the total vertex count over all normalized copies
// (the n of the paper's complexity analysis).
func (b *Base) NumVertices() int { return len(b.fieldCells) }

// Shape returns the shape with the given id.
func (b *Base) Shape(id int) Shape { return b.shapes[id] }

// EntryShape returns the id of the shape entry i is a copy of.
func (b *Base) EntryShape(i int) int { return int(b.meta[i].ShapeID) }

// Entry returns the i-th normalized copy, derived from its shape: its
// polygon and transforms are Normalize's, bit for bit.
func (b *Base) Entry(i int) Entry {
	copiesDerived.Add(1)
	m := b.meta[i]
	p := b.shapes[m.ShapeID].Poly
	pts, tr, _ := geom.AppendNormalized(nil, p.Pts, int(m.DiamI), int(m.DiamJ))
	return Entry{
		ShapeID: int(m.ShapeID),
		Copy:    int(m.Copy),
		Poly:    geom.Poly{Pts: pts, Closed: p.Closed},
		Norm:    tr,
		Inv:     tr.Inverse(),
		DiamI:   int(m.DiamI),
		DiamJ:   int(m.DiamJ),
	}
}

// Entries returns all normalized copies, each derived (Entry): a fresh
// slice the caller owns.
func (b *Base) Entries() []Entry {
	out := make([]Entry, len(b.meta))
	for i := range out {
		out[i] = b.Entry(i)
	}
	return out
}

// Shapes returns all shapes (shared slice; do not modify).
func (b *Base) Shapes() []Shape { return b.shapes }

// entryVertexCount returns the number of vertices of entry ei: its
// shape's.
func (b *Base) entryVertexCount(ei int32) int32 {
	return int32(len(b.shapes[b.meta[ei].ShapeID].Poly.Pts))
}

// entrySpan returns where entry ei's vertices sit in fieldCells, and in
// the range index's verts: nv of them from lo.
func (b *Base) entrySpan(ei int32) (lo, nv int32) {
	id := b.meta[ei].ShapeID
	nv = b.entryVertexCount(ei)
	return b.cellOff[id] + (ei-b.shapeOff[id])*nv, nv
}

// entryCells returns the distance-field cells of entry ei's vertices.
func (b *Base) entryCells(ei int32) []uint16 {
	lo, nv := b.entrySpan(ei)
	return b.fieldCells[lo : lo+nv]
}

// climbPoly returns entry ei's normalized polygon as the climb's range
// index holds it, built (BuildRangeIndex).
func (b *Base) climbPoly(ei int32) geom.Poly {
	lo, nv := b.entrySpan(ei)
	return geom.Poly{Pts: b.rng.verts[lo : lo+nv : lo+nv], Closed: b.shapes[b.meta[ei].ShapeID].Poly.Closed}
}

// EpsilonMax returns the stopping threshold of step 5 (§2.5):
// (A / (2 p l_Q)) · log³ n, where A is the area of the locus of
// normalized shapes (the lune), p the number of shapes, n the total
// number of vertices, and l_Q the perimeter of the normalized query.
func (b *Base) EpsilonMax(queryPerimeter float64) float64 {
	p := float64(len(b.shapes))
	n := float64(len(b.fieldCells))
	if p == 0 || n < 2 || queryPerimeter <= 0 {
		return math.Inf(1)
	}
	lg := math.Log2(n)
	return LuneArea / (2 * p * queryPerimeter) * lg * lg * lg
}

// InitialEpsilon returns the ε₁ of step 1: an envelope width at which the
// expected number of uniformly distributed base vertices inside the
// envelope is about one query shape's worth, so the first iteration is
// likely to see at least one shape.
func (b *Base) InitialEpsilon(queryPerimeter float64) float64 {
	n := float64(len(b.fieldCells))
	if n == 0 || queryPerimeter <= 0 {
		return 1e-3
	}
	// Envelope area ≈ 2·ε·l_Q; vertex density ≈ n / LuneArea. Choose ε so
	// that the envelope holds about the vertex count of an average entry.
	avgEntry := n / float64(len(b.meta))
	eps := avgEntry * LuneArea / (2 * queryPerimeter * n)
	if eps <= 0 || math.IsNaN(eps) {
		return 1e-3
	}
	return eps
}

// EntriesOfShape returns the indices of the normalized copies belonging
// to the given shape id.
func (b *Base) EntriesOfShape(shapeID int) []int {
	if shapeID < 0 || shapeID >= len(b.shapes) {
		return nil
	}
	out := make([]int, 0, b.shapeOff[shapeID+1]-b.shapeOff[shapeID])
	for ei := b.shapeOff[shapeID]; ei < b.shapeOff[shapeID+1]; ei++ {
		out = append(out, int(ei))
	}
	return out
}
