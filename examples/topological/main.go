// Topological queries (§5): find images by how their shapes relate —
// containment, overlap, disjointness, diameter angles — combined with
// union, intersection, and complement, and inspect the selectivity-driven
// execution plans.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func sq(x, y, side float64) geosir.Shape {
	return geosir.NewPolygon(
		geosir.Pt(x, y), geosir.Pt(x+side, y),
		geosir.Pt(x+side, y+side), geosir.Pt(x, y+side))
}

func tri(x, y, s float64) geosir.Shape {
	return geosir.NewPolygon(geosir.Pt(x, y), geosir.Pt(x+s, y), geosir.Pt(x, y+2*s))
}

func main() {
	eng := geosir.New(geosir.DefaultOptions())

	// A little corpus of annotated scenes.
	scenes := []struct {
		desc   string
		shapes []geosir.Shape
	}{
		{"square containing a triangle", []geosir.Shape{sq(0, 0, 20), tri(5, 5, 3)}},
		{"two overlapping squares", []geosir.Shape{sq(0, 0, 10), sq(8, 8, 6)}},
		{"a lone triangle", []geosir.Shape{tri(0, 0, 4)}},
		{"square and triangle, apart", []geosir.Shape{sq(0, 0, 5), tri(20, 20, 3)}},
		{"square containing a square", []geosir.Shape{sq(0, 0, 20), sq(5, 5, 4)}},
		{"nested squares, inner rotated 45°", []geosir.Shape{
			sq(0, 0, 20),
			sq(-3, -3, 6).Transform(geosir.Similarity(1, 0.7853981633974483, geosir.Pt(10, 10))),
		}},
	}
	for id, sc := range scenes {
		if err := eng.AddImage(id, sc.shapes); err != nil {
			log.Fatalf("scene %d: %v", id, err)
		}
	}
	if err := eng.Freeze(); err != nil {
		log.Fatal(err)
	}

	binds := map[string]geosir.Shape{
		"sq":  sq(0, 0, 7),
		"tri": tri(0, 0, 5),
	}

	queries := []string{
		"contain(sq, tri, any)",
		"contain(sq, sq, any)",
		"contain(sq, sq, 0)",                  // only axis-aligned nesting
		"contain(sq, sq, 0.7853981633974483)", // only the 45°-rotated nesting
		"overlap(sq, sq, any)",
		"disjoint(sq, tri, any)",
		"similar(tri) AND NOT contain(sq, tri, any)",
		"similar(sq) OR similar(tri)",
		"NOT (similar(tri) OR overlap(sq, sq, any))",
	}
	for _, q := range queries {
		ids, plan, err := eng.Query(context.Background(), q, binds)
		if err != nil {
			log.Fatalf("%s: %v", q, err)
		}
		fmt.Printf("%-46s -> %v\n", q, ids)
		fmt.Printf("    plan: %s\n", plan)
		for _, id := range ids {
			fmt.Printf("      image %d: %s\n", id, scenes[id].desc)
		}
	}
}
