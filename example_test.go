package geosir_test

import (
	"context"
	"fmt"

	geosir "repro"
)

// The basic flow: build an image base, freeze, retrieve by sketch.
func ExampleEngine_Search() {
	eng := geosir.New(geosir.DefaultOptions())
	_ = eng.AddImage(0, []geosir.Shape{
		geosir.NewPolygon(geosir.Pt(0, 0), geosir.Pt(4, 0), geosir.Pt(4, 4), geosir.Pt(0, 4)),
	})
	_ = eng.AddImage(1, []geosir.Shape{
		geosir.NewPolygon(geosir.Pt(0, 0), geosir.Pt(3, 0), geosir.Pt(0, 5)),
	})
	_ = eng.Freeze()

	// A rotated, scaled square sketch: retrieval is similarity-invariant.
	sketch := geosir.NewPolygon(
		geosir.Pt(0, 0), geosir.Pt(2, 0), geosir.Pt(2, 2), geosir.Pt(0, 2),
	).Transform(geosir.Similarity(3, 0.8, geosir.Pt(10, -5)))

	resp, _ := eng.Search(context.Background(), geosir.SearchRequest{Query: sketch, K: 1})
	fmt.Printf("image %d, distance %.4f\n", resp.Matches[0].ImageID, resp.Matches[0].Distance)
	// Output: image 0, distance 0.0000
}

// Topological queries combine similarity with pairwise shape relations.
func ExampleEngine_Query() {
	eng := geosir.New(geosir.DefaultOptions())
	big := geosir.NewPolygon(geosir.Pt(0, 0), geosir.Pt(20, 0), geosir.Pt(20, 20), geosir.Pt(0, 20))
	small := geosir.NewPolygon(geosir.Pt(5, 5), geosir.Pt(9, 5), geosir.Pt(5, 12))
	_ = eng.AddImage(0, []geosir.Shape{big, small}) // triangle inside square
	_ = eng.AddImage(1, []geosir.Shape{small})      // lone triangle
	_ = eng.Freeze()

	binds := map[string]geosir.Shape{
		"sq":  geosir.NewPolygon(geosir.Pt(0, 0), geosir.Pt(1, 0), geosir.Pt(1, 1), geosir.Pt(0, 1)),
		"tri": geosir.NewPolygon(geosir.Pt(0, 0), geosir.Pt(4, 0), geosir.Pt(0, 7)),
	}
	ids, _, _ := eng.Query(context.Background(), "contain(sq, tri, any)", binds)
	fmt.Println(ids)
	ids, _, _ = eng.Query(context.Background(), "similar(tri) AND NOT contain(sq, tri, any)", binds)
	fmt.Println(ids)
	// Output:
	// [0]
	// [1]
}

// Multi-shape sketches rank images by how well they match every part.
func ExampleEngine_Search_sketch() {
	eng := geosir.New(geosir.DefaultOptions())
	sq := geosir.NewPolygon(geosir.Pt(0, 0), geosir.Pt(8, 0), geosir.Pt(8, 8), geosir.Pt(0, 8))
	tri := geosir.NewPolygon(geosir.Pt(1, 1), geosir.Pt(4, 1), geosir.Pt(1, 6))
	_ = eng.AddImage(0, []geosir.Shape{sq, tri}) // both parts
	_ = eng.AddImage(1, []geosir.Shape{sq})      // square only
	_ = eng.Freeze()

	sketch := []geosir.Shape{
		geosir.NewPolygon(geosir.Pt(0, 0), geosir.Pt(1, 0), geosir.Pt(1, 1), geosir.Pt(0, 1)),
		geosir.NewPolygon(geosir.Pt(0, 0), geosir.Pt(3, 0), geosir.Pt(0, 5)),
	}
	resp, _ := eng.Search(context.Background(), geosir.SearchRequest{Sketch: sketch, K: 2, Mode: geosir.ModeSketch})
	for _, m := range resp.SketchMatches {
		fmt.Printf("image %d score %.4f\n", m.ImageID, m.Score)
	}
	// Image 0 matches both parts exactly; image 1 pays a penalty for the
	// missing triangle (its square is the best effort for that part).
	// Output:
	// image 0 score 0.0000
	// image 1 score 0.0524
}
