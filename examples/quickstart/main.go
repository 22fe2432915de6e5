// Quickstart: build a small image base and retrieve shapes similar to a
// hand-drawn sketch, exactly as a downstream user of the library would.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	eng := geosir.New(geosir.DefaultOptions())

	// Three images, each with a couple of object boundaries.
	images := map[int][]geosir.Shape{
		0: {
			// A house-like pentagon and its door.
			geosir.NewPolygon(geosir.Pt(0, 0), geosir.Pt(4, 0), geosir.Pt(4, 3),
				geosir.Pt(2, 4.5), geosir.Pt(0, 3)),
			geosir.NewPolygon(geosir.Pt(1.5, 0), geosir.Pt(2.5, 0),
				geosir.Pt(2.5, 1.8), geosir.Pt(1.5, 1.8)),
		},
		1: {
			// A long arrow-like polyline and a triangle.
			geosir.NewPolyline(geosir.Pt(0, 0), geosir.Pt(5, 0), geosir.Pt(4.2, 0.6),
				geosir.Pt(5, 0), geosir.Pt(4.2, -0.6)).Clone(), // invalid (revisits); replaced below
			geosir.NewPolygon(geosir.Pt(0, 0), geosir.Pt(2, 0), geosir.Pt(1, 1.7)),
		},
		2: {
			// A star-ish hexagon.
			geosir.NewPolygon(geosir.Pt(2, 0), geosir.Pt(3, 1), geosir.Pt(4.4, 1.2),
				geosir.Pt(3.4, 2.2), geosir.Pt(3.6, 3.6), geosir.Pt(2.3, 2.9)),
		},
	}
	// Fix up image 1's first shape (drawn badly on purpose: shapes must be
	// simple, Validate catches self-revisits).
	images[1][0] = geosir.NewPolyline(geosir.Pt(0, 0), geosir.Pt(5, 0),
		geosir.Pt(4.2, 0.6))

	for id, shapes := range images {
		if err := eng.AddImage(id, shapes); err != nil {
			log.Fatalf("image %d: %v", id, err)
		}
	}
	if err := eng.Freeze(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d images / %d shapes (%d normalized copies)\n\n",
		eng.NumImages(), eng.NumShapes(), eng.NumEntries())

	// The user sketches a rough house — rotated and at a different scale.
	sketch := geosir.NewPolygon(
		geosir.Pt(0.1, 0), geosir.Pt(8.2, -0.2), geosir.Pt(8.1, 6.1),
		geosir.Pt(4, 9.2), geosir.Pt(-0.2, 6)).
		Transform(geosir.Similarity(0.8, 0.6, geosir.Pt(30, 10)))

	resp, err := eng.Search(context.Background(), geosir.SearchRequest{Query: sketch, K: 3})
	if err != nil {
		log.Fatal(err)
	}
	matches, stats := resp.Matches, resp.Stats
	fmt.Printf("retrieval converged=%v, %d copies scored exactly\n",
		stats.Converged, stats.Candidates)
	for i, m := range matches {
		fmt.Printf("  #%d: shape %d in image %d, distance %.4f\n",
			i+1, m.ShapeID, m.ImageID, m.Distance)
	}
	if len(matches) > 0 && matches[0].ImageID == 0 {
		fmt.Println("\nthe sketch found the house ✓")
	}
}
