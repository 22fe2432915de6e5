package server

import (
	"fmt"

	geosir "repro"
)

// WireShape is the JSON representation of a query shape:
//
//	{"points": [[x1,y1], [x2,y2], ...], "closed": true}
//
// closed selects polygon vs polyline, matching geosir.NewPolygon /
// NewPolyline.
type WireShape struct {
	Points [][2]float64 `json:"points"`
	Closed bool         `json:"closed"`
}

// Shape converts the wire form into a validated engine shape. The error
// distinguishes the caller's data being wrong (non-simple polygon, too
// few vertices, …) from transport problems, so handlers can answer 422.
func (ws WireShape) Shape() (geosir.Shape, error) {
	pts := make([]geosir.Point, len(ws.Points))
	for i, p := range ws.Points {
		pts[i] = geosir.Pt(p[0], p[1])
	}
	sh := geosir.Shape{Pts: pts, Closed: ws.Closed}
	if err := sh.Validate(); err != nil {
		return geosir.Shape{}, err
	}
	return sh, nil
}

// shapesOf converts a slice of wire shapes, reporting the index of the
// first invalid one.
func shapesOf(ws []WireShape) ([]geosir.Shape, error) {
	out := make([]geosir.Shape, len(ws))
	for i, w := range ws {
		sh, err := w.Shape()
		if err != nil {
			return nil, fmt.Errorf("shape %d: %w", i, err)
		}
		out[i] = sh
	}
	return out, nil
}

// MatchJSON and StatsJSON name the library's types, which carry the wire
// form themselves, for clients that decode /v1/search answers.
type (
	MatchJSON = geosir.Match
	StatsJSON = geosir.Stats
)
