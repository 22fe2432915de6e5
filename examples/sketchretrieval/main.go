// Sketch retrieval over rasterized images: the full §6 pipeline.
//
// Synthetic "photographs" are rasterized (filled object silhouettes),
// object boundaries are extracted with Moore tracing and simplified with
// Douglas–Peucker, the shapes populate a GeoSIR engine, and a noisy
// sketch retrieves the right image — demonstrating that retrieval works
// end-to-end from pixels, not just from clean vector input.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"repro"
	"repro/internal/extract"
	"repro/internal/geom"
)

func main() {
	// Three scenes with different object silhouettes.
	scenes := []struct {
		name  string
		shape geom.Poly
	}{
		{"arrowhead", geom.NewPolygon(
			geom.Pt(20, 80), geom.Pt(120, 60), geom.Pt(100, 90), geom.Pt(120, 120))},
		{"hexnut", regular(6, 50, geom.Pt(90, 90))},
		{"wedge", geom.NewPolygon(
			geom.Pt(30, 30), geom.Pt(150, 40), geom.Pt(40, 140))},
	}

	eng := geosir.New(geosir.DefaultOptions())
	for id, sc := range scenes {
		r, err := extract.NewRaster(180, 180)
		if err != nil {
			log.Fatal(err)
		}
		r.FillPolygon(sc.shape)
		shapes := extract.ExtractShapes(r, 2.0)
		if len(shapes) == 0 {
			log.Fatalf("scene %q: extraction found nothing", sc.name)
		}
		fmt.Printf("scene %d (%s): %d foreground pixels -> %d boundary shape(s), %d vertices\n",
			id, sc.name, r.Count(), len(shapes), shapes[0].NumVertices())
		if err := eng.AddImage(id, shapes); err != nil {
			log.Fatalf("scene %q: %v", sc.name, err)
		}
	}
	if err := eng.Freeze(); err != nil {
		log.Fatal(err)
	}

	// The user's sketch: the hexnut, drawn smaller, rotated, and wobbly.
	sketch := regular(6, 1, geom.Pt(0, 0))
	for i := range sketch.Pts {
		wob := 0.04 * math.Sin(float64(i)*2.1)
		sketch.Pts[i] = sketch.Pts[i].Scale(1 + wob)
	}
	sketch = sketch.Transform(geosir.Similarity(1, 0.5, geosir.Pt(7, 3)))

	resp, err := eng.Search(context.Background(), geosir.SearchRequest{Query: sketch, K: len(scenes)})
	if err != nil {
		log.Fatal(err)
	}
	matches, stats := resp.Matches, resp.Stats
	fmt.Printf("\nsketch query: %d iterations, %d candidates, converged=%v\n",
		stats.Iterations, stats.Candidates, stats.Converged)
	for i, m := range matches {
		fmt.Printf("  #%d: image %d (%s), distance %.4f\n",
			i+1, m.ImageID, scenes[m.ImageID].name, m.Distance)
	}
	if len(matches) > 0 && matches[0].ImageID == 1 {
		fmt.Println("\nthe wobbly hex sketch retrieved the hexnut scene ✓")
	}
}

// regular builds a regular n-gon of the given radius around c.
func regular(n int, radius float64, c geom.Point) geom.Poly {
	pts := make([]geom.Point, n)
	for i := range pts {
		a := 2 * math.Pi * float64(i) / float64(n)
		pts[i] = c.Add(geom.Pt(radius*math.Cos(a), radius*math.Sin(a)))
	}
	return geom.NewPolygon(pts...)
}
