// Package voronoi builds the Voronoi diagram of a set of point sites,
// answers nearest-site queries on it, and evaluates the vertex-averaged
// measure through it (AvgMinDistVertices).
//
// The matching algorithm of the paper (§2.5) computes the similarity
// measure with the help of the Voronoi diagram of the query shape, which
// has a small, per-query number of vertices m. This implementation favors
// robustness over asymptotics: each cell is obtained by clipping a
// bounding box against the perpendicular-bisector half-planes of the other
// sites (O(m²) per diagram), which is exact for every degenerate input
// (collinear sites, duplicates) that image-extracted shapes produce.
// Nearest-site queries use the diagram's adjacency graph: a greedy walk
// that always moves to a closer neighboring site, which terminates at the
// true nearest site because the closer-neighbor relation on a Delaunay
// graph has no local minima.
package voronoi

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Cell is the Voronoi region of one site, clipped to the diagram's
// bounding box.
type Cell struct {
	Site      geom.Point
	SiteIndex int
	// Polygon is the clipped cell boundary in counter-clockwise order.
	// It is empty only for exact-duplicate sites dominated by an earlier
	// twin.
	Polygon geom.Poly
	// Neighbors lists the site indices whose bisectors contribute an edge
	// of this cell.
	Neighbors []int
}

// Diagram is the Voronoi diagram of a finite site set.
type Diagram struct {
	sites  []geom.Point
	cells  []Cell
	bounds geom.Rect
}

// Build computes the Voronoi diagram of the given sites, clipped to a box
// that comfortably contains them. At least one site is required.
func Build(sites []geom.Point) (*Diagram, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("voronoi: no sites")
	}
	for i, s := range sites {
		if !s.IsFinite() {
			return nil, fmt.Errorf("voronoi: site %d is not finite", i)
		}
	}
	bounds := geom.RectOf(sites...)
	pad := math.Max(bounds.Width(), bounds.Height())
	if pad == 0 {
		pad = 1
	}
	bounds = bounds.Expand(2 * pad)

	d := &Diagram{
		sites:  append([]geom.Point(nil), sites...),
		cells:  make([]Cell, len(sites)),
		bounds: bounds,
	}
	for i := range sites {
		d.cells[i] = d.buildCell(i)
	}
	return d, nil
}

// buildCell clips the bounding box against the bisector half-planes of
// every other site.
func (d *Diagram) buildCell(i int) Cell {
	si := d.sites[i]
	corners := d.bounds.Corners()
	poly := corners[:]
	contributors := make(map[int]bool)

	for j, sj := range d.sites {
		if j == i || len(poly) == 0 {
			continue
		}
		if sj.Eq(si, geom.Eps) {
			// Duplicate site: the first index keeps the cell, later twins
			// get an empty cell.
			if j < i {
				poly = nil
			}
			continue
		}
		var clipped []geom.Point
		changed := false
		// Keep the side closer to si: points p with (p - mid)·(sj - si) ≤ 0.
		mid := si.Lerp(sj, 0.5)
		nrm := sj.Sub(si)
		n := len(poly)
		for k := 0; k < n; k++ {
			a, b := poly[k], poly[(k+1)%n]
			da := a.Sub(mid).Dot(nrm)
			db := b.Sub(mid).Dot(nrm)
			if da <= geom.Eps {
				clipped = append(clipped, a)
			}
			if (da < -geom.Eps && db > geom.Eps) || (da > geom.Eps && db < -geom.Eps) {
				t := da / (da - db)
				clipped = append(clipped, a.Lerp(b, t))
				changed = true
			}
			if da > geom.Eps {
				changed = true
			}
		}
		poly = clipped
		if changed && len(poly) > 0 {
			contributors[j] = true
		}
	}

	cell := Cell{Site: si, SiteIndex: i}
	if len(poly) >= 3 {
		cell.Polygon = geom.NewPolygon(poly...)
	}
	for j := range contributors {
		// A contributor is a true neighbor only if the shared bisector
		// still borders the final cell; approximate by testing that some
		// cell vertex is (nearly) equidistant from both sites.
		for _, v := range poly {
			if math.Abs(v.Dist(si)-v.Dist(d.sites[j])) <= 1e-6*(1+v.Dist(si)) {
				cell.Neighbors = append(cell.Neighbors, j)
				break
			}
		}
	}
	return cell
}

// NumSites returns the number of sites in the diagram.
func (d *Diagram) NumSites() int { return len(d.sites) }

// Site returns the i-th site.
func (d *Diagram) Site(i int) geom.Point { return d.sites[i] }

// Cell returns the Voronoi cell of the i-th site.
func (d *Diagram) Cell(i int) Cell { return d.cells[i] }

// Bounds returns the clipping box of the diagram.
func (d *Diagram) Bounds() geom.Rect { return d.bounds }

// Nearest returns the index of the site nearest to q and its distance.
// It runs the greedy neighbor walk from the previously returned site
// (locality that the fattening algorithm exploits: consecutive queries are
// close), falling back to a full scan if the walk stalls on a degenerate
// adjacency.
func (d *Diagram) Nearest(q geom.Point) (int, float64) {
	return d.NearestFrom(q, 0)
}

// NearestFrom runs the nearest-site walk starting at the given site hint.
func (d *Diagram) NearestFrom(q geom.Point, hint int) (int, float64) {
	n := len(d.sites)
	if hint < 0 || hint >= n {
		hint = 0
	}
	cur := hint
	curD := q.Dist2(d.sites[cur])
	for steps := 0; steps < n+1; steps++ {
		improved := false
		for _, j := range d.cells[cur].Neighbors {
			if dj := q.Dist2(d.sites[j]); dj < curD-geom.Eps {
				cur, curD = j, dj
				improved = true
			}
		}
		if !improved {
			// Verify against a full scan only when adjacency may be
			// incomplete (duplicate/degenerate sites produce empty cells).
			if len(d.cells[cur].Neighbors) == 0 && n > 1 {
				return d.nearestBrute(q)
			}
			return cur, math.Sqrt(curD)
		}
	}
	return d.nearestBrute(q)
}

func (d *Diagram) nearestBrute(q geom.Point) (int, float64) {
	best, bestD := 0, math.Inf(1)
	for i, s := range d.sites {
		if dd := q.Dist2(s); dd < bestD {
			best, bestD = i, dd
		}
	}
	return best, math.Sqrt(bestD)
}
