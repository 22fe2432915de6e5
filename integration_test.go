package geosir

// End-to-end integration tests: pixels → boundary extraction → shape
// base → retrieval → topological queries → external storage. These cross
// every module boundary the paper's prototype (§6) crosses.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/extract"
	"repro/internal/extstore"
	"repro/internal/geom"
	"repro/internal/synth"
)

// TestPixelsToRetrieval runs the §6 pipeline: rasterize scenes, extract
// boundaries, index, retrieve with a distorted sketch.
func TestPixelsToRetrieval(t *testing.T) {
	type scene struct {
		name  string
		shape geom.Poly
	}
	regular := func(n int, radius float64, c geom.Point) geom.Poly {
		pts := make([]geom.Point, n)
		for i := range pts {
			a := 2 * math.Pi * float64(i) / float64(n)
			pts[i] = c.Add(geom.Pt(radius*math.Cos(a), radius*math.Sin(a)))
		}
		return geom.NewPolygon(pts...)
	}
	scenes := []scene{
		{"triangle", regular(3, 55, geom.Pt(90, 90))},
		{"square", regular(4, 55, geom.Pt(90, 90))},
		{"hexagon", regular(6, 55, geom.Pt(90, 90))},
		{"octagon", regular(8, 55, geom.Pt(90, 90))},
	}
	eng := New(DefaultOptions())
	for id, sc := range scenes {
		r, err := extract.NewRaster(180, 180)
		if err != nil {
			t.Fatal(err)
		}
		r.FillPolygon(sc.shape)
		shapes := extract.ExtractShapes(r, 2.0)
		if len(shapes) != 1 {
			t.Fatalf("%s: extracted %d shapes", sc.name, len(shapes))
		}
		if err := eng.AddImage(id, shapes); err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
	}
	if err := eng.Freeze(); err != nil {
		t.Fatal(err)
	}
	// Query each class with a rotated, scaled vector sketch.
	for id, sc := range scenes {
		q := sc.shape.Transform(Similarity(0.02, 1.1, Pt(5, 5)))
		resp, err := eng.Search(context.Background(), SearchRequest{Query: q, K: 1})
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		ms := resp.Matches
		if len(ms) != 1 || ms[0].ImageID != id {
			t.Errorf("%s: retrieved image %v, want %d (dist %v)",
				sc.name, ms[0].ImageID, id, ms[0].Distance)
		}
	}
}

// TestClusterDecomposeIndex feeds a self-intersecting doodle through
// decomposition and clustering into the engine.
func TestClusterDecomposeIndex(t *testing.T) {
	// A crossing doodle: must be decomposed before indexing.
	doodle := geom.NewPolyline(
		geom.Pt(0, 0), geom.Pt(10, 10), geom.Pt(10, 0), geom.Pt(0, 10))
	pieces := extract.DecomposeSimple(doodle)
	if len(pieces) < 2 {
		t.Fatalf("decomposition produced %d pieces", len(pieces))
	}
	clusters := extract.DetectClusters(pieces, 1e-6)
	if len(clusters) != 1 {
		t.Errorf("pieces of one doodle should form one cluster: %v", clusters)
	}
	eng := New(DefaultOptions())
	var indexable []Shape
	for _, p := range pieces {
		if p.Validate() == nil && p.NumVertices() >= 3 {
			indexable = append(indexable, p)
		}
	}
	if len(indexable) == 0 {
		t.Fatal("nothing indexable after decomposition")
	}
	if err := eng.AddImage(0, indexable); err != nil {
		t.Fatal(err)
	}
	if err := eng.Freeze(); err != nil {
		t.Fatal(err)
	}
	// The loop piece should be retrievable.
	var loop Shape
	found := false
	for _, p := range pieces {
		if p.Closed {
			loop, found = p, true
			break
		}
	}
	if found {
		ms := mustSearch(t, eng, SearchRequest{Query: loop, K: 1}).Matches
		if len(ms) == 0 || ms[0].Distance > 1e-6 {
			t.Errorf("loop piece not retrieved exactly: %v", ms)
		}
	}
}

// TestRetrievalThroughExternalStore verifies the trace/replay contract:
// every entry the matcher touches is readable from every layout, and the
// records round-trip the normalized geometry.
func TestRetrievalThroughExternalStore(t *testing.T) {
	cfg := experiments.DefaultConfig()
	cfg.Scale = 0.003
	cfg.Queries = 3
	f, err := experiments.BuildFixture(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stored := make(map[int32]bool, len(f.Records))
	for _, r := range f.Records {
		stored[r.EntryID] = true
	}
	for _, layout := range extstore.Layouts() {
		store, err := extstore.NewStore(f.Records, layout, 16)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range f.Queries {
			var readErr error
			_, _, err := f.Base.MatchTrace(q, 2, func(entryID int) {
				if !stored[int32(entryID)] {
					return // oversized entries live outside the store
				}
				rec, err := store.ReadEntry(int32(entryID))
				if err != nil {
					readErr = err
					return
				}
				// The stored normalized copy must match the in-memory one
				// up to float32 rounding.
				e := f.Base.Entry(entryID)
				if len(rec.Pts) != len(e.Poly.Pts) {
					readErr = errMismatch
					return
				}
				for i := range rec.Pts {
					if !rec.Pts[i].Eq(e.Poly.Pts[i], 1e-4) {
						readErr = errMismatch
						return
					}
				}
			})
			if err != nil {
				t.Fatalf("%s: match: %v", layout, err)
			}
			if readErr != nil {
				t.Fatalf("%s: replay: %v", layout, readErr)
			}
		}
		if store.Stats().DiskReads == 0 {
			t.Errorf("%s: no I/O recorded", layout)
		}
	}
}

var errMismatch = errString("stored record mismatches in-memory entry")

type errString string

func (e errString) Error() string { return string(e) }

// TestHashingFallbackAgreesWithScan: on a base where the query has no
// close match, ModeApproximate's best candidate from the hash bucket
// should be a reasonable shape — its distance within a small factor of the
// true best found by exhaustive scan.
func TestHashingFallbackAgreesWithScan(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	eng := New(DefaultOptions())
	for i := 0; i < 40; i++ {
		s := synth.Star(rng, 3+rng.Intn(8), 0.02)
		if err := eng.AddImage(i, []Shape{s}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Freeze(); err != nil {
		t.Fatal(err)
	}
	// A blobby query unlike any star.
	var pts []Point
	for i := 0; i < 16; i++ {
		a := 2 * math.Pi * float64(i) / 16
		r := 1 + 0.1*math.Sin(3*a)
		pts = append(pts, Pt(r*math.Cos(a), r*math.Sin(a)))
	}
	q := NewPolygon(pts...)

	approx := mustSearch(t, eng, SearchRequest{Query: q, K: 1, Mode: ModeApproximate}).Matches
	if len(approx) == 0 {
		t.Skip("hash buckets empty for this query (legal: hashing is approximate)")
	}
	scan, err := core.NewScanMatcher(eng.Base())
	if err != nil {
		t.Fatal(err)
	}
	exact, err := scan.Match(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if approx[0].Distance < exact[0].DistVertex-1e-9 {
		t.Fatalf("approximate (%v) beat exact (%v)?", approx[0].Distance, exact[0].DistVertex)
	}
	if approx[0].Distance > 5*exact[0].DistVertex+0.1 {
		t.Errorf("hashing too far off: approx %v vs exact %v",
			approx[0].Distance, exact[0].DistVertex)
	}
}

// TestEngineDeterminism: the same inputs produce identical results.
func TestEngineDeterminism(t *testing.T) {
	build := func() ([]Match, Stats) {
		rng := rand.New(rand.NewSource(5))
		eng := New(DefaultOptions())
		for i := 0; i < 12; i++ {
			s := synth.Star(rng, 3+i%5, 0.02)
			if err := eng.AddImage(i, []Shape{s}); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Freeze(); err != nil {
			t.Fatal(err)
		}
		q := synth.Star(rand.New(rand.NewSource(6)), 4, 0.02)
		resp := mustSearch(t, eng, SearchRequest{Query: q, K: 3})
		return resp.Matches, resp.Stats
	}
	a, sa := build()
	b, sb := build()
	if len(a) != len(b) || sa != sb {
		t.Fatalf("nondeterministic: %v/%v vs %v/%v", a, sa, b, sb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("match %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}
