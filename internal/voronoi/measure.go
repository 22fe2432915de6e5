package voronoi

import (
	"math"

	"repro/internal/geom"
)

// AvgMinDistVertices is the vertex-averaged measure of §2.2 — the mean,
// over A's vertices, of the distance to B's boundary — located through
// the Voronoi diagram of B's vertices (the structure §2.5 prescribes,
// built in O(m log m)): each vertex of A is located with a neighbor walk
// seeded by the previous answer, and the exact boundary distance is then
// refined over B's edges incident to the located vertex and its Voronoi
// neighbors. It is +Inf when either shape has no vertex.
func AvgMinDistVertices(a, b geom.Poly) float64 {
	if len(a.Pts) == 0 || len(b.Pts) == 0 {
		return math.Inf(1)
	}
	vd, err := Build(b.Pts)
	if err != nil {
		return math.Inf(1)
	}
	incident := incidentEdges(b)
	var sum float64
	hint := 0
	for _, p := range a.Pts {
		site, vertDist := vd.NearestFrom(p, hint)
		hint = site
		best := vertDist
		refine := func(v int) {
			for _, ei := range incident[v] {
				if d := b.Edge(ei).DistToPoint(p); d < best {
					best = d
				}
			}
		}
		refine(site)
		for _, nb := range vd.Cell(site).Neighbors {
			refine(nb)
		}
		sum += best
	}
	return sum / float64(len(a.Pts))
}

// incidentEdges maps each vertex index of p to the edge indices that touch
// it.
func incidentEdges(p geom.Poly) [][]int {
	out := make([][]int, len(p.Pts))
	for e := 0; e < p.NumEdges(); e++ {
		i := e
		j := (e + 1) % len(p.Pts)
		out[i] = append(out[i], e)
		out[j] = append(out[j], e)
	}
	return out
}
