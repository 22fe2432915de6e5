package query

import (
	"fmt"

	"repro/internal/core"
)

// This file is the persistence seam of the frozen database: accessors
// for the state a snapshot writer needs beyond the core base (per-shape
// diameter angles, per-image graphs), and DBFromParts to reassemble a
// frozen DB around an already-reassembled base without re-running the
// O(shapes²) graph geometry.

// Graphs returns the image graphs in insertion order (the live slice —
// callers must not mutate).
func (db *DB) Graphs() []*ImageGraph { return db.graphs }

// DiamAngles returns each shape's diameter orientation in the image frame,
// by shape id (the live slice — callers must not mutate).
func (db *DB) DiamAngles() []float64 { return db.diamAng }

// GraphFromParts reassembles an image graph from its persisted vertex
// and edge lists, rebuilding the adjacency index.
func GraphFromParts(image int, shapeIDs []int, edges []GraphEdge) *ImageGraph {
	g := &ImageGraph{
		Image:  image,
		Shapes: shapeIDs,
		adj:    make(map[int][]GraphEdge, len(shapeIDs)),
	}
	for _, e := range edges {
		g.addEdge(e)
	}
	return g
}

// DBParts carries everything DBFromParts needs to reassemble a frozen
// database.
type DBParts struct {
	Opts    Options
	Base    *core.Base    // already reassembled and frozen
	Graphs  []*ImageGraph // per image, in insertion order
	DiamAng []float64     // per shape id, its diameter orientation
}

// DBFromParts reassembles a frozen DB; everything is adopted as-is. Every
// shape must be in exactly one graph.
func DBFromParts(p DBParts) (*DB, error) {
	if p.Base == nil {
		return nil, fmt.Errorf("query: db parts without a base")
	}
	if len(p.DiamAng) != p.Base.NumShapes() {
		return nil, fmt.Errorf("query: db parts with %d diameter angles for %d shapes",
			len(p.DiamAng), p.Base.NumShapes())
	}
	graphOf := make([]*ImageGraph, p.Base.NumShapes())
	placed := 0
	for _, g := range p.Graphs {
		for _, s := range g.Shapes {
			if s < 0 || s >= len(graphOf) || graphOf[s] != nil {
				return nil, fmt.Errorf("query: db parts place shape %d in image %d", s, g.Image)
			}
			graphOf[s] = g
			placed++
		}
	}
	if placed != len(graphOf) {
		return nil, fmt.Errorf("query: db parts place %d of %d shapes in an image", placed, len(graphOf))
	}
	db := NewDB(p.Opts)
	db.base, db.graphs, db.graphOf, db.diamAng, db.frozen = p.Base, p.Graphs, graphOf, p.DiamAng, true
	return db, nil
}
