package query

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
)

// ImageSet is a set of image ids.
type ImageSet map[int]struct{}

// NewImageSet builds a set from ids.
func NewImageSet(ids ...int) ImageSet {
	s := make(ImageSet, len(ids))
	for _, id := range ids {
		s[id] = struct{}{}
	}
	return s
}

// Has reports membership.
func (s ImageSet) Has(id int) bool { _, ok := s[id]; return ok }

// Add inserts an id.
func (s ImageSet) Add(id int) { s[id] = struct{}{} }

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
	for id := range small {
		if big.Has(id) {
			out.Add(id)
		}
	}
	return out
}

// Union returns s ∪ t.
func (s ImageSet) Union(t ImageSet) ImageSet {
	out := make(ImageSet, len(s)+len(t))
	for id := range s {
		out.Add(id)
	}
	for id := range t {
		out.Add(id)
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
// graphs and the selectivity estimator.
type DB struct {
	opts    Options
	base    *core.Base
	graphs  map[int]*ImageGraph
	images  []int           // image ids in insertion order
	diamAng map[int]float64 // shape id → diameter orientation in image frame
	est     *Estimator
	frozen  bool
}

// NewDB creates an empty database.
func NewDB(opts Options) *DB {
	if opts.Tau <= 0 {
		opts.Tau = 0.05
	}
	if opts.AngleTol <= 0 {
		opts.AngleTol = 0.1
	}
	return &DB{
		opts:    opts,
		base:    core.NewBase(opts.Core),
		graphs:  make(map[int]*ImageGraph),
		diamAng: make(map[int]float64),
	}
}

// AddImage registers an image and its shapes, building the image graph.
// Invalid shapes are rejected; an image must contain at least one valid
// shape.
func (db *DB) AddImage(imageID int, shapes []geom.Poly) error {
	if db.frozen {
		return fmt.Errorf("query: database is frozen")
	}
	if _, dup := db.graphs[imageID]; dup {
		return fmt.Errorf("query: image %d already added", imageID)
	}
	var ids []int
	var polys []geom.Poly
	for si, p := range shapes {
		id, err := db.base.AddShape(imageID, p)
		if err != nil {
			return fmt.Errorf("query: image %d shape %d: %w", imageID, si, err)
		}
		e, err := core.NormalizeCanonical(p)
		if err != nil {
			return err
		}
		db.diamAng[id] = e.DiameterAngle()
		ids = append(ids, id)
		polys = append(polys, p)
	}
	if len(ids) == 0 {
		return fmt.Errorf("query: image %d has no shapes", imageID)
	}
	db.graphs[imageID] = BuildImageGraph(imageID, ids, polys)
	db.images = append(db.images, imageID)
	return nil
}

// Freeze builds the retrieval index; the database becomes read-only.
func (db *DB) Freeze() error {
	if err := db.base.Freeze(); err != nil {
		return err
	}
	db.est = NewEstimator(db.base.NumShapes())
	db.frozen = true
	return nil
}

// Base exposes the underlying shape base.
func (db *DB) Base() *core.Base { return db.base }

// Graph returns the graph of an image.
func (db *DB) Graph(imageID int) (*ImageGraph, bool) {
	g, ok := db.graphs[imageID]
	return g, ok
}

// NumImages returns the number of images.
func (db *DB) NumImages() int { return len(db.images) }

// AllImages returns the set of all image ids (the DB of §5.1, the
// universe of COMPLEMENT).
func (db *DB) AllImages() ImageSet {
	s := make(ImageSet, len(db.images))
	for _, id := range db.images {
		s.Add(id)
	}
	return s
}

// Tau returns the similarity threshold.
func (db *DB) Tau() float64 { return db.opts.Tau }

// shapeSimilar computes shape_similar(Q): all shape ids within τ of Q.
func (db *DB) shapeSimilar(ctx context.Context, q geom.Poly) ([]core.Match, error) {
	ms, _, err := db.base.SimilarShapes(ctx, q, db.opts.Tau)
	return ms, err
}

// Similar evaluates the similarity operator similar(Q): all images
// containing a shape similar to Q (§5.1).
func (db *DB) Similar(ctx context.Context, q geom.Poly) (ImageSet, error) {
	if !db.frozen {
		return nil, fmt.Errorf("query: database must be frozen")
	}
	ms, err := db.shapeSimilar(ctx, q)
	if err != nil {
		return nil, err
	}
	out := make(ImageSet)
	for _, m := range ms {
		out.Add(db.base.Shape(m.ShapeID).Image)
	}
	return out, nil
}

// shapeIsSimilar checks g_similar(S, Q) directly for one stored shape.
func (db *DB) shapeIsSimilar(shapeID int, q geom.Poly) bool {
	d, err := db.base.ShapeDistance(shapeID, q)
	return err == nil && d <= db.opts.Tau
}

// shapeIsSimilarPrepared is shapeIsSimilar against a prepared query, for
// the planner loops that probe many stored shapes with the same Q.
func (db *DB) shapeIsSimilarPrepared(shapeID int, pq *core.PreparedQuery) bool {
	d, err := db.base.ShapeDistancePrepared(shapeID, pq)
	return err == nil && d <= db.opts.Tau
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

// Topological evaluates r(Q1, Q2, θ): all images with shapes S1 ~ Q1 and
// S2 ~ Q2 such that g_r(S1, S2, θ). The strategy is chosen by the
// selectivity estimates; the chosen strategy is returned for plan
// inspection.
func (db *DB) Topological(ctx context.Context, rel Rel, q1, q2 geom.Poly, theta Angle) (ImageSet, TopoStrategy, error) {
	if !db.frozen {
		return nil, 0, fmt.Errorf("query: database must be frozen")
	}
	sel1 := db.est.Estimate(q1)
	sel2 := db.est.Estimate(q2)
	// Method 2 pays for two index retrievals but prunes with the image
	// intersection; it wins when both sides are selective. Method 1 wins
	// when one side is clearly smaller. The crossover used here: drive
	// when the smaller side is under half of the larger.
	var strat TopoStrategy
	if minF(sel1, sel2) < 0.5*maxF(sel1, sel2) {
		strat = StrategyDrive
	} else {
		strat = StrategyBoth
	}
	set, err := db.topological(ctx, rel, q1, q2, theta, strat)
	return set, strat, err
}

// TopologicalWith forces a specific strategy (for the planner ablation).
func (db *DB) TopologicalWith(ctx context.Context, rel Rel, q1, q2 geom.Poly, theta Angle, strat TopoStrategy) (ImageSet, error) {
	if !db.frozen {
		return nil, fmt.Errorf("query: database must be frozen")
	}
	return db.topological(ctx, rel, q1, q2, theta, strat)
}

func (db *DB) topological(ctx context.Context, rel Rel, q1, q2 geom.Poly, theta Angle, strat TopoStrategy) (ImageSet, error) {
	out := make(ImageSet)
	switch strat {
	case StrategyDrive:
		// Drive from the more selective (smaller estimated) side.
		driveQ, otherQ := q2, q1
		swapped := false
		if db.est.Estimate(q1) < db.est.Estimate(q2) {
			driveQ, otherQ = q1, q2
			swapped = true
		}
		ms, err := db.shapeSimilar(ctx, driveQ)
		if err != nil {
			return nil, err
		}
		// The partner side is probed once per graph edge with the same
		// query: normalize it and build its oracle exactly once.
		otherPQ, err := core.PrepareQuery(otherQ)
		if err != nil {
			return nil, err
		}
		for _, m := range ms {
			img := db.base.Shape(m.ShapeID).Image
			if out.Has(img) {
				continue
			}
			g := db.graphs[img]
			if db.driveCheck(g, m.ShapeID, rel, otherPQ, theta, swapped) {
				out.Add(img)
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
		for _, m := range ms1 {
			img1.Add(db.base.Shape(m.ShapeID).Image)
		}
		for _, m := range ms2 {
			sim2[m.ShapeID] = true
			img2.Add(db.base.Shape(m.ShapeID).Image)
		}
		si := img1.Intersect(img2)
		for _, m := range ms1 {
			img := db.base.Shape(m.ShapeID).Image
			if !si.Has(img) || out.Has(img) {
				continue
			}
			g := db.graphs[img]
			for _, s2 := range db.partners(g, m.ShapeID, rel, false) {
				if sim2[s2] && theta.Matches(db.angleBetween(m.ShapeID, s2), db.opts.AngleTol) {
					out.Add(img)
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
		if !db.shapeIsSimilarPrepared(p, otherPQ) {
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

// CheckSimilarOnImage tests similar(Q) restricted to one image, scanning
// only that image's shapes (used by the planner to filter a small driver
// set without a second index retrieval).
func (db *DB) CheckSimilarOnImage(imageID int, q geom.Poly) bool {
	g, ok := db.graphs[imageID]
	if !ok {
		return false
	}
	pq, err := core.PrepareQuery(q)
	if err != nil {
		return false
	}
	for _, s := range g.Shapes {
		if db.shapeIsSimilarPrepared(s, pq) {
			return true
		}
	}
	return false
}

// CheckTopologicalOnImage tests r(Q1,Q2,θ) restricted to one image.
func (db *DB) CheckTopologicalOnImage(imageID int, rel Rel, q1, q2 geom.Poly, theta Angle) bool {
	g, ok := db.graphs[imageID]
	if !ok {
		return false
	}
	pq1, err := core.PrepareQuery(q1)
	if err != nil {
		return false
	}
	pq2, err := core.PrepareQuery(q2)
	if err != nil {
		return false
	}
	for _, s1 := range g.Shapes {
		if !db.shapeIsSimilarPrepared(s1, pq1) {
			continue
		}
		for _, s2 := range db.partners(g, s1, rel, false) {
			if db.shapeIsSimilarPrepared(s2, pq2) &&
				theta.Matches(db.angleBetween(s1, s2), db.opts.AngleTol) {
				return true
			}
		}
	}
	return false
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
