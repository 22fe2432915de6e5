package shapeindex

import "repro/internal/geom"

// WalkEvaluations is how many segment evaluations Dist(p) costs, a segment
// listed in several scanned cells counted each time.
func WalkEvaluations(g *SegmentGrid, p geom.Point) int {
	_, _, n := g.nearest2(p)
	return n
}
