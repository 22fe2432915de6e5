package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
)

// This file implements the comparison baselines:
//
//   - ScanMatcher: a linear scan of all normalized copies with the exact
//     similarity measure — the correctness oracle for the fattening
//     algorithm and the "no index" ablation.
//   - MGIndex: the Mehrotra–Gary feature index (§1, [16, 15, 21]): each
//     shape is normalized about each of its edges (twice, one per
//     orientation), represented as a fixed-dimensional vector of resampled
//     boundary points, and retrieved by Euclidean nearest neighbor among
//     the vectors. It is the method the paper criticizes for its space
//     overhead and sensitivity to local distortion (Figure 2).

// ScanMatcher retrieves by brute force over a base's entries.
type ScanMatcher struct {
	base *Base
}

// NewScanMatcher wraps a base.
func NewScanMatcher(b *Base) *ScanMatcher { return &ScanMatcher{base: b} }

// Match returns the k best shapes by the symmetric vertex-averaged
// measure, evaluating every entry (O(n) work).
func (s *ScanMatcher) Match(q geom.Poly, k int) ([]Match, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: k must be positive")
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	pq, err := PrepareQuery(q)
	if err != nil {
		return nil, err
	}
	bestByShape := make(map[int]Match)
	var buf []geom.Point
	for ei := range s.base.meta {
		cp := s.base.copyPoly(ei, buf)
		buf = cp.Pts
		dv, _, _ := pq.distWithin(cp, nil, 0, math.Inf(1))
		sid := s.base.EntryShape(ei)
		cur, ok := bestByShape[sid]
		if !ok || dv < cur.DistVertex {
			bestByShape[sid] = Match{ShapeID: sid, EntryID: ei, DistVertex: dv}
		}
	}
	out := make([]Match, 0, len(bestByShape))
	for _, m := range bestByShape {
		out = append(out, m)
	}
	sortMatches(out)
	if len(out) > k {
		out = out[:k]
	}
	var resample []geom.Point
	for i := range out {
		out[i].DistContinuous = pq.distContinuous(s.base.copyPoly(out[i].EntryID, buf), &resample)
	}
	return out, nil
}

// MGFeatureDim is the number of resampled boundary points in a
// Mehrotra–Gary feature vector (2·MGFeatureDim float64 components).
const MGFeatureDim = 16

// MGIndex is the edge-normalized feature index baseline.
type MGIndex struct {
	vectors [][2 * MGFeatureDim]float64
	shape   []int32 // vector → shape id
	shapes  int
}

// NewMGIndex builds the baseline index over the given shapes. Every shape
// is stored once per edge per orientation — the space overhead the paper
// calls out.
func NewMGIndex(shapes []Shape) (*MGIndex, error) {
	idx := &MGIndex{shapes: len(shapes)}
	for _, s := range shapes {
		vecs, err := mgVectors(s.Poly)
		if err != nil {
			return nil, fmt.Errorf("core: shape %d: %w", s.ID, err)
		}
		for _, v := range vecs {
			idx.vectors = append(idx.vectors, v)
			idx.shape = append(idx.shape, int32(s.ID))
		}
	}
	if len(idx.vectors) == 0 {
		return nil, fmt.Errorf("core: no feature vectors")
	}
	return idx, nil
}

// NumVectors returns the number of stored feature vectors (the space
// cost: Σ 2·edges per shape).
func (idx *MGIndex) NumVectors() int { return len(idx.vectors) }

// MGMatch is a baseline retrieval result.
type MGMatch struct {
	ShapeID int
	Dist    float64 // Euclidean feature-vector distance
}

// Match returns the k best shapes by minimum feature distance over all of
// the query's edge normalizations.
func (idx *MGIndex) Match(q geom.Poly, k int) ([]MGMatch, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: k must be positive")
	}
	qv, err := mgVectors(q)
	if err != nil {
		return nil, err
	}
	best := make(map[int32]float64)
	for vi, v := range idx.vectors {
		sid := idx.shape[vi]
		d := math.Inf(1)
		for _, qvec := range qv {
			if dd := mgDist(v, qvec); dd < d {
				d = dd
			}
		}
		if cur, ok := best[sid]; !ok || d < cur {
			best[sid] = d
		}
	}
	out := make([]MGMatch, 0, len(best))
	for sid, d := range best {
		out = append(out, MGMatch{ShapeID: int(sid), Dist: d})
	}
	sortMGMatches(out)
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// mgVectors produces the per-edge normalized feature vectors of a shape:
// for each edge and each orientation, normalize the shape so the edge is
// at ((0,0),(1,0)) and resample the boundary to MGFeatureDim points.
func mgVectors(p geom.Poly) ([][2 * MGFeatureDim]float64, error) {
	m := p.NumEdges()
	if m == 0 {
		return nil, fmt.Errorf("shape has no edges")
	}
	out := make([][2 * MGFeatureDim]float64, 0, 2*m)
	for i := 0; i < m; i++ {
		e := p.Edge(i)
		for _, pair := range [2][2]geom.Point{{e.A, e.B}, {e.B, e.A}} {
			tr, err := geom.NormalizeOnto(pair[0], pair[1])
			if err != nil {
				continue // zero-length edge: skip this normalization
			}
			norm := p.Transform(tr)
			samples := norm.Resample(MGFeatureDim)
			var vec [2 * MGFeatureDim]float64
			for si, sp := range samples {
				vec[2*si] = sp.X
				vec[2*si+1] = sp.Y
			}
			out = append(out, vec)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("all edges degenerate")
	}
	return out, nil
}

func mgDist(a, b [2 * MGFeatureDim]float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].DistVertex != ms[j].DistVertex {
			return ms[i].DistVertex < ms[j].DistVertex
		}
		return ms[i].ShapeID < ms[j].ShapeID
	})
}

func sortMGMatches(ms []MGMatch) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Dist != ms[j].Dist {
			return ms[i].Dist < ms[j].Dist
		}
		return ms[i].ShapeID < ms[j].ShapeID
	})
}
