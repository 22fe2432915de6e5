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
// the searches over them read.
type Base struct {
	opts    Options
	shapes  []Shape
	entries []Entry

	// shapeEntries maps a shape id to the indices of its normalized
	// copies, maintained incrementally by AddShape.
	shapeEntries [][]int32

	// Flattened index of every vertex of every entry.
	verts    []geom.Point
	entryOff []int32 // entry index → first vertex id (len = len(entries)+1)

	// fieldCells holds, parallel to verts, the distance-field cell each
	// vertex falls in (fieldCell): what the reject in front of the bounded
	// evaluator reads of a copy. Derived wherever the vertex array is built
	// or adopted (Freeze, BaseFromParts), never persisted.
	fieldCells []uint16

	// scratch recycles per-query working state across Match calls (see
	// scratch.go). Populated lazily after Freeze.
	scratch sync.Pool

	// entryCost holds the page-granular storage footprint of each entry
	// (vertices + meta + transforms), computed at Freeze
	// or reassembly. The match kernel charges it into Stats.BlocksRead
	// whenever an entry is evaluated (§4 block accounting; see parts.go).
	entryCost []int32

	// rng is the climb's range index, built on its first use.
	rng    rangeIndex
	frozen bool
}

// rangeIndex is what only the paper's §2.5 climb reads: the simplex
// range-search structure over every stored vertex and the vertex → entry
// map its reports are read through. No serving search climbs, so neither
// Freeze nor a snapshot load builds it; the first climb does
// (BuildRangeIndex).
type rangeIndex struct {
	once      sync.Once
	backend   rangesearch.Backend
	vertEntry []int32
}

// rangeIndexBuilds counts range-index builds process-wide, for the tests
// that pin which paths build one.
var rangeIndexBuilds atomic.Int64

// NewBase creates an empty shape base with the given options.
func NewBase(opts Options) *Base {
	return &Base{opts: opts.withDefaults()}
}

// Opts returns the base's effective options.
func (b *Base) Opts() Options { return b.opts }

// AddShape validates, normalizes, and stores a shape, returning its id.
// It must be called before Freeze.
func (b *Base) AddShape(image int, p geom.Poly) (int, error) {
	if b.frozen {
		return 0, fmt.Errorf("core: base is frozen")
	}
	if err := p.Validate(); err != nil {
		return 0, fmt.Errorf("core: invalid shape: %w", err)
	}
	entries, err := Normalize(p, b.opts.Alpha)
	if err != nil {
		return 0, err
	}
	id := len(b.shapes)
	b.shapes = append(b.shapes, Shape{ID: id, Image: image, Poly: p.Clone()})
	eis := make([]int32, 0, len(entries))
	for _, e := range entries {
		e.ShapeID = id
		eis = append(eis, int32(len(b.entries)))
		b.entries = append(b.entries, e)
	}
	b.shapeEntries = append(b.shapeEntries, eis)
	return id, nil
}

// Freeze flattens the entries' vertices and derives their distance-field
// cells. After Freeze the base is immutable and ready for matching.
func (b *Base) Freeze() error {
	if b.frozen {
		return nil
	}
	if len(b.entries) == 0 {
		return fmt.Errorf("core: cannot freeze an empty base")
	}
	total := 0
	for _, e := range b.entries {
		total += len(e.Poly.Pts)
	}
	b.verts = make([]geom.Point, 0, total)
	b.entryOff = make([]int32, len(b.entries)+1)
	for ei, e := range b.entries {
		b.entryOff[ei] = int32(len(b.verts))
		b.verts = append(b.verts, e.Poly.Pts...)
	}
	b.entryOff[len(b.entries)] = int32(len(b.verts))
	b.fieldCells = appendFieldCells(make([]uint16, 0, len(b.verts)), b.verts)
	b.computeEntryCosts()
	b.frozen = true
	return nil
}

// BuildRangeIndex builds the climb's range index — Options.BackendFactory's
// structure, or Options.Backend's, over every stored vertex, and the
// vertex → entry map — unless it is built already; before Freeze it does
// nothing. Match and MatchTrace call it on their first climb; a caller that
// times or meters the climb calls it first, so that its clock or counters
// see searches and not the build. Safe for concurrent use: one build.
func (b *Base) BuildRangeIndex() {
	if !b.frozen {
		return
	}
	b.rng.once.Do(func() {
		rangeIndexBuilds.Add(1)
		vertEntry := make([]int32, len(b.verts))
		for ei := range b.entries {
			for v := b.entryOff[ei]; v < b.entryOff[ei+1]; v++ {
				vertEntry[v] = int32(ei)
			}
		}
		b.rng.vertEntry = vertEntry
		if b.opts.BackendFactory != nil {
			b.rng.backend = b.opts.BackendFactory(b.verts)
		} else {
			b.rng.backend = rangesearch.New(b.opts.Backend, b.verts)
		}
	})
}

// EntryOracle builds a boundary-distance oracle over entry i's normalized
// polygon, on demand: the base holds none (the searches read a copy's own
// edges, shapeindex.Edges, to the same bits). It returns nil before Freeze.
func (b *Base) EntryOracle(i int) *BoundaryDist {
	if !b.frozen {
		return nil
	}
	return NewBoundaryDist(b.entries[i].Poly)
}

// NumShapes returns the number of stored shapes.
func (b *Base) NumShapes() int { return len(b.shapes) }

// NumEntries returns the number of normalized copies.
func (b *Base) NumEntries() int { return len(b.entries) }

// NumVertices returns the total vertex count over all normalized copies
// (the n of the paper's complexity analysis).
func (b *Base) NumVertices() int { return len(b.verts) }

// Shape returns the shape with the given id.
func (b *Base) Shape(id int) Shape { return b.shapes[id] }

// Entry returns the i-th normalized copy.
func (b *Base) Entry(i int) Entry { return b.entries[i] }

// Entries returns all normalized copies (shared slice; do not modify).
func (b *Base) Entries() []Entry { return b.entries }

// Shapes returns all shapes (shared slice; do not modify).
func (b *Base) Shapes() []Shape { return b.shapes }

// entryVertexCount returns the number of vertices of entry ei.
func (b *Base) entryVertexCount(ei int32) int32 {
	return b.entryOff[ei+1] - b.entryOff[ei]
}

// entryCells returns the distance-field cells of entry ei's vertices.
func (b *Base) entryCells(ei int32) []uint16 {
	return b.fieldCells[b.entryOff[ei]:b.entryOff[ei+1]]
}

// EpsilonMax returns the stopping threshold of step 5 (§2.5):
// (A / (2 p l_Q)) · log³ n, where A is the area of the locus of
// normalized shapes (the lune), p the number of shapes, n the total
// number of vertices, and l_Q the perimeter of the normalized query.
func (b *Base) EpsilonMax(queryPerimeter float64) float64 {
	p := float64(len(b.shapes))
	n := float64(len(b.verts))
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
	n := float64(len(b.verts))
	if n == 0 || queryPerimeter <= 0 {
		return 1e-3
	}
	// Envelope area ≈ 2·ε·l_Q; vertex density ≈ n / LuneArea. Choose ε so
	// that the envelope holds about the vertex count of an average entry.
	avgEntry := n / float64(len(b.entries))
	eps := avgEntry * LuneArea / (2 * queryPerimeter * n)
	if eps <= 0 || math.IsNaN(eps) {
		return 1e-3
	}
	return eps
}

// EntriesOfShape returns the indices of the normalized copies belonging
// to the given shape id.
func (b *Base) EntriesOfShape(shapeID int) []int {
	if shapeID < 0 || shapeID >= len(b.shapeEntries) {
		return nil
	}
	eis := b.shapeEntries[shapeID]
	out := make([]int, len(eis))
	for i, ei := range eis {
		out[i] = int(ei)
	}
	return out
}
