package query

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
)

// ImageSet is a set of images: each image id with the image's graph.
type ImageSet map[int]*ImageGraph

// Has reports membership.
func (s ImageSet) Has(id int) bool { _, ok := s[id]; return ok }

// Add inserts an image.
func (s ImageSet) Add(g *ImageGraph) { s[g.Image] = g }

// Sorted returns the ids in ascending order.
func (s ImageSet) Sorted() []int {
	out := make([]int, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Intersect returns s ∩ t.
func (s ImageSet) Intersect(t ImageSet) ImageSet {
	small, big := s, t
	if len(big) < len(small) {
		small, big = big, small
	}
	out := make(ImageSet)
	for _, g := range small {
		if big.Has(g.Image) {
			out.Add(g)
		}
	}
	return out
}

// Union returns s ∪ t.
func (s ImageSet) Union(t ImageSet) ImageSet {
	out := make(ImageSet, len(s)+len(t))
	for _, g := range s {
		out.Add(g)
	}
	for _, g := range t {
		out.Add(g)
	}
	return out
}

// Options configure the query database.
type Options struct {
	Core core.Options
	// Tau is the similarity threshold of g_similar: two shapes are
	// similar when their (symmetric vertex-averaged) distance is ≤ Tau,
	// in diameter-normalized units.
	Tau float64
	// AngleTol is the tolerance for θ matching, radians.
	AngleTol float64
}

// DefaultOptions returns a reasonable configuration: τ = 0.05 (5% of the
// diameter), θ tolerance 0.1 rad.
func DefaultOptions() Options {
	return Options{Core: core.DefaultOptions(), Tau: 0.05, AngleTol: 0.1}
}

// DB is the queryable image database: the shape base plus per-image
// graphs and per-shape diameter angles. A DB read through Without skips a
// set of dead shapes, and the images they belong to.
type DB struct {
	opts    Options
	base    *core.Base
	graphs  []*ImageGraph // per image, in insertion order
	graphOf []*ImageGraph // per shape id, its image's graph
	diamAng []float64     // per shape id, its diameter orientation in the image frame
	seen    map[int]bool  // image ids added, while the DB is built
	dead    map[int]bool  // shape ids a read skips (Without)
}

// NewDB creates an empty database.
func NewDB(opts Options) *DB {
	if opts.Tau <= 0 {
		opts.Tau = 0.05
	}
	if opts.AngleTol <= 0 {
		opts.AngleTol = 0.1
	}
	return &DB{opts: opts, base: core.NewBase(opts.Core), seen: make(map[int]bool)}
}

// AddImage registers an image and its shapes, building the image graph.
// An invalid shape fails the whole image; an image must contain at least
// one shape.
func (db *DB) AddImage(imageID int, shapes []geom.Poly) error {
	if db.seen[imageID] {
		return fmt.Errorf("query: image %d already added", imageID)
	}
	next, err := db.Append(imageID, shapes)
	if err != nil {
		return err
	}
	*db = *next
	db.seen[imageID] = true
	return nil
}

// Append returns the successor of the database that also holds the
// image: its shapes (core.Base.Append), their diameter angles and its
// graph, each appended past the end of an array the successor shares with
// the receiver. So the receiver reads as it did, and of the successors of
// one version only one may be kept. The caller keeps the ids of live
// images distinct.
func (db *DB) Append(imageID int, shapes []geom.Poly) (*DB, error) {
	if len(shapes) == 0 {
		return nil, fmt.Errorf("query: image %d has no shapes", imageID)
	}
	base, err := db.base.Append(imageID, shapes)
	if err != nil {
		return nil, fmt.Errorf("query: image %d %w", imageID, err)
	}
	next := *db
	next.base = base
	ids := make([]int, len(shapes))
	for i, p := range shapes {
		e, err := core.NormalizeCanonical(p)
		if err != nil {
			return nil, err
		}
		ids[i] = db.base.NumShapes() + i
		next.diamAng = append(next.diamAng, e.DiameterAngle())
	}
	g := BuildImageGraph(imageID, ids, shapes)
	next.graphs = append(next.graphs, g)
	for range shapes {
		next.graphOf = append(next.graphOf, g)
	}
	return &next, nil
}

// Without returns the database as a read sees it behind dead, a set of
// shape ids: those shapes are skipped before they name an image, and an
// image whose shapes are dead is not in it (an image is deleted whole).
func (db *DB) Without(dead map[int]bool) *DB {
	next := *db
	next.dead = dead
	return &next
}

// Base exposes the underlying shape base.
func (db *DB) Base() *core.Base { return db.base }

// live reports whether an image is in the database a read sees.
func (db *DB) live(g *ImageGraph) bool { return len(g.Shapes) == 0 || !db.dead[g.Shapes[0]] }

// NumImages returns the number of images a read sees.
func (db *DB) NumImages() int {
	n := 0
	for _, g := range db.graphs {
		if db.live(g) {
			n++
		}
	}
	return n
}

// AllImages returns the set of all images (the DB of §5.1, the universe
// of COMPLEMENT).
func (db *DB) AllImages() ImageSet {
	s := make(ImageSet, len(db.graphs))
	for _, g := range db.graphs {
		if db.live(g) {
			s.Add(g)
		}
	}
	return s
}

// estimate is the §5.2 estimate of shape_similar(Q) over the live shapes.
func (db *DB) estimate(q bound) float64 {
	return NewEstimator(db.base.NumShapes() - len(db.dead)).Estimate(q.vs)
}

// shapeSimilar computes shape_similar(Q): the live shapes within τ of Q,
// ascending, by one fixed-cutoff scan.
func (db *DB) shapeSimilar(ctx context.Context, q bound) ([]int, error) {
	var out []int
	_, _, err := db.base.Within(ctx, q.pq, db.dead, db.opts.Tau, func(m core.Match) { out = append(out, m.ShapeID) })
	return out, err
}

// similar evaluates the similarity operator similar(Q): all images
// containing a shape similar to Q (§5.1).
func (db *DB) similar(ctx context.Context, q bound) (ImageSet, error) {
	ms, err := db.shapeSimilar(ctx, q)
	out := make(ImageSet)
	for _, s := range ms {
		out.Add(db.graphOf[s])
	}
	return out, err
}

// isSimilar checks g_similar(S, Q) directly for one stored shape, through
// the bounded evaluator the scan runs.
func (db *DB) isSimilar(shapeID int, pq *core.PreparedQuery) bool {
	_, ok, err := db.base.ShapeDistancePreparedBounded(shapeID, pq, db.opts.Tau)
	return err == nil && ok
}

// angleBetween returns the ordered signed diameter angle between two
// stored shapes.
func (db *DB) angleBetween(s1, s2 int) float64 {
	return DiameterAngleBetween(db.diamAng[s1], db.diamAng[s2])
}

// TopoStrategy names the execution strategy used for a topological
// operator (§5.3).
type TopoStrategy int

// The two strategies of §5.3.
const (
	// StrategyDrive computes only the smaller shape_similar set and
	// drives through the image graphs, checking the partner predicate
	// per edge (method 1).
	StrategyDrive TopoStrategy = 1
	// StrategyBoth computes both shape_similar sets, intersects the image
	// sets, and verifies edges inside the intersection (method 2).
	StrategyBoth TopoStrategy = 2
)

// strategy picks the execution strategy of r(Q1, Q2, θ) from the
// selectivity estimates. Method 2 pays for two index retrievals but prunes
// with the image intersection; it wins when both sides are selective.
// Method 1 wins when one side is clearly smaller. The crossover used here:
// drive when the smaller side is under half of the larger.
func (db *DB) strategy(q1, q2 bound) TopoStrategy {
	if sel1, sel2 := db.estimate(q1), db.estimate(q2); min(sel1, sel2) < 0.5*max(sel1, sel2) {
		return StrategyDrive
	}
	return StrategyBoth
}

// topological evaluates r(Q1, Q2, θ) by strategy strat: all images with
// shapes S1 ~ Q1 and S2 ~ Q2 such that g_r(S1, S2, θ).
func (db *DB) topological(ctx context.Context, rel Rel, q1, q2 bound, theta Angle, strat TopoStrategy) (ImageSet, error) {
	out := make(ImageSet)
	switch strat {
	case StrategyDrive:
		// Drive from the more selective (smaller estimated) side.
		driveQ, otherQ := q2, q1
		swapped := false
		if db.estimate(q1) < db.estimate(q2) {
			driveQ, otherQ = q1, q2
			swapped = true
		}
		ms, err := db.shapeSimilar(ctx, driveQ)
		if err != nil {
			return nil, err
		}
		for _, s := range ms {
			g := db.graphOf[s]
			if !out.Has(g.Image) && db.driveCheck(g, s, rel, otherQ.pq, theta, swapped) {
				out.Add(g)
			}
		}
		return out, nil

	case StrategyBoth:
		ms1, err := db.shapeSimilar(ctx, q1)
		if err != nil {
			return nil, err
		}
		ms2, err := db.shapeSimilar(ctx, q2)
		if err != nil {
			return nil, err
		}
		sim2 := make(map[int]bool, len(ms2))
		img1 := make(ImageSet)
		img2 := make(ImageSet)
		for _, s := range ms1 {
			img1.Add(db.graphOf[s])
		}
		for _, s := range ms2 {
			sim2[s] = true
			img2.Add(db.graphOf[s])
		}
		si := img1.Intersect(img2)
		for _, s := range ms1 {
			g := db.graphOf[s]
			if !si.Has(g.Image) || out.Has(g.Image) {
				continue
			}
			for _, s2 := range db.partners(g, s, rel, false) {
				if sim2[s2] && theta.Matches(db.angleBetween(s, s2), db.opts.AngleTol) {
					out.Add(g)
					break
				}
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("query: unknown strategy %d", strat)
	}
}

// partners enumerates the shapes related to s under rel, in the proper
// role: with reversed=false, s plays S1 of g_r(S1, S2, θ); with
// reversed=true it plays S2.
func (db *DB) partners(g *ImageGraph, s int, rel Rel, reversed bool) []int {
	switch rel {
	case RelContain:
		if reversed {
			return g.RelatedBy(s, RelContain)
		}
		return g.Related(s, RelContain)
	case RelOverlap:
		return g.Related(s, RelOverlap)
	case RelDisjoint:
		// Disjoint pairs are the graph's non-edges.
		var out []int
		related := make(map[int]bool)
		for _, t := range g.Related(s, RelOverlap) {
			related[t] = true
		}
		for _, t := range g.Related(s, RelContain) {
			related[t] = true
		}
		for _, t := range g.RelatedBy(s, RelContain) {
			related[t] = true
		}
		for _, t := range g.Shapes {
			if t != s && !related[t] {
				out = append(out, t)
			}
		}
		return out
	}
	return nil
}

// driveCheck implements the inner loop of method 1: given a driving shape
// (similar to the driving query), test whether some graph partner is
// similar to the other (prepared) query with the right angle.
// swapped=true means the driving shape plays the S1 role.
func (db *DB) driveCheck(g *ImageGraph, drive int, rel Rel, otherPQ *core.PreparedQuery, theta Angle, swapped bool) bool {
	for _, p := range db.partners(g, drive, rel, !swapped) {
		if !db.isSimilar(p, otherPQ) {
			continue
		}
		var ang float64
		if swapped {
			ang = db.angleBetween(drive, p)
		} else {
			ang = db.angleBetween(p, drive)
		}
		if theta.Matches(ang, db.opts.AngleTol) {
			return true
		}
	}
	return false
}

// similarOn tests similar(Q) restricted to one image, scanning only that
// image's shapes (used by the planner to filter a small driver set without
// a second index retrieval).
func (db *DB) similarOn(g *ImageGraph, pq *core.PreparedQuery) bool {
	for _, s := range g.Shapes {
		if db.isSimilar(s, pq) {
			return true
		}
	}
	return false
}

// topologicalOn tests r(Q1,Q2,θ) restricted to one image.
func (db *DB) topologicalOn(g *ImageGraph, rel Rel, pq1, pq2 *core.PreparedQuery, theta Angle) bool {
	for _, s1 := range g.Shapes {
		if !db.isSimilar(s1, pq1) {
			continue
		}
		for _, s2 := range db.partners(g, s1, rel, false) {
			if db.isSimilar(s2, pq2) &&
				theta.Matches(db.angleBetween(s1, s2), db.opts.AngleTol) {
				return true
			}
		}
	}
	return false
}
