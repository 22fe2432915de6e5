package geosir

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
)

// The exact search's contract (DESIGN.md §4.9): every exact request is the
// two floor-ordered passes over every live shape, so its answer is the
// proven top k however full the query's hash bucket is, and a frozen part's
// sketch table is what a live delta's is. The base below — 4,000 small random quadrilaterals — puts the
// paper's stopping width ε_max at 0.2–0.3, so a k-th best farther than
// ε_max/2 is one its fattening climb cannot prove, and a shape with two
// vertices that far from the query's boundary one it never evaluates.

// quadImages builds n images of two random quadrilaterals each: four
// vertices at sorted random angles and random radii about a point, placed
// at random.
func quadImages(n int, seed int64) []synth.Image {
	rng := rand.New(rand.NewSource(seed))
	quad := func() Shape {
		for {
			ang := make([]float64, 4)
			for i := range ang {
				ang[i] = rng.Float64() * 2 * math.Pi
			}
			slices.Sort(ang)
			pts := make([]Point, len(ang))
			for i, a := range ang {
				r := 0.5 + rng.Float64()
				pts[i] = Pt(r*math.Cos(a), r*math.Sin(a))
			}
			if q := NewPolygon(pts...); q.Validate() == nil {
				return q.Transform(Similarity(1+rng.Float64(), rng.Float64()*2*math.Pi, Pt(rng.Float64()*100, rng.Float64()*100)))
			}
		}
	}
	images := make([]synth.Image, n)
	for i := range images {
		images[i] = synth.Image{ID: i, Shapes: []Shape{quad(), quad()}}
	}
	return images
}

// TestShortBucketExactIsScanTopK: for k past the query's hash bucket — a
// bucket once had to hold k live shapes for the exact search to start
// under a bound — the exact answer, ModeExact and ModeAuto, on an Engine
// and on 8 shards, is the exhaustive ScanMatcher's top k, proven
// (Converged) and with no hashing — including for queries whose k-th best
// lies beyond what the climb could prove within ε_max.
func TestShortBucketExactIsScanTopK(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 4,000-shape base")
	}
	images := quadImages(2000, 5)
	single := buildSingle(t, images)
	sharded := buildShardedFrom(t, images, 8)
	base := single.Base()
	scan, err := core.NewScanMatcher(base)
	if err != nil {
		t.Fatal(err)
	}
	beyond := 0
	for qi, q := range synth.Queries(rand.New(rand.NewSource(9)), images, 6, 0.01) {
		pq, err := core.PrepareQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		all, err := scan.Match(q, base.NumShapes())
		if err != nil {
			t.Fatal(err)
		}
		// k one past the bucket, and then past ε_max/2 where the base
		// reaches that far.
		epsMax := base.EpsilonMax(pq.Entry().Poly.Perimeter())
		k := len(hashBuckets(single.searchView().parts, pq)[0]) + 1
		for k < len(all) && 2*all[k-1].DistVertex*1.0001 <= epsMax {
			k++
		}
		if 2*all[k-1].DistVertex*1.0001 > epsMax {
			beyond++
		}
		want := make([]Match, k)
		for i, m := range all[:k] {
			want[i] = Match{ShapeID: m.ShapeID, ImageID: base.Shape(m.ShapeID).Image, Distance: m.DistVertex, ContinuousDistance: m.DistContinuous}
		}
		for _, e := range []struct {
			name string
			s    Searcher
		}{{"engine", single}, {"8 shards", sharded}} {
			for _, mode := range []Mode{ModeExact, ModeAuto} {
				label := fmt.Sprintf("q%d %s %v", qi, e.name, mode)
				got := mustSearch(t, e.s, SearchRequest{Query: q, K: k, Mode: mode})
				assertMatchesEqual(t, label, want, got.Matches)
				if !got.Stats.Converged || got.Stats.UsedHashing {
					t.Fatalf("%s: converged=%v, used hashing=%v; want the proven exact top k", label, got.Stats.Converged, got.Stats.UsedHashing)
				}
			}
		}
	}
	if beyond == 0 {
		t.Fatal("no query's k-th best lies beyond ε_max/2: the test does not reach past the climb")
	}
}

// TestManySegmentQueryIsScanTopK: a query of more segments than a field
// cell's list can name reads every stored vertex through the oracle's walk
// (DESIGN.md §4.9, "Distance-field reject"); its exact answer, ModeExact on
// an Engine and on 8 shards, is still the exhaustive ScanMatcher's top k,
// distances and re-read continuous distances to the bit.
func TestManySegmentQueryIsScanTopK(t *testing.T) {
	images := synth.GenerateBase(synth.PaperSpec(0.005, 3))
	single := buildSingle(t, images)
	sharded := buildShardedFrom(t, images, 8)
	base := single.Base()
	scan, err := core.NewScanMatcher(base)
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	for qi, q := range synth.Queries(rand.New(rand.NewSource(13)), images, 3, 0.01) {
		q = NewPolygon(q.Resample(300)...)
		if n := q.NumEdges(); n <= math.MaxUint8 {
			t.Fatalf("q%d has %d segments", qi, n)
		}
		all, err := scan.Match(q, k)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]Match, len(all))
		for i, m := range all {
			want[i] = Match{ShapeID: m.ShapeID, ImageID: base.Shape(m.ShapeID).Image, Distance: m.DistVertex, ContinuousDistance: m.DistContinuous}
		}
		for _, e := range []struct {
			name string
			s    Searcher
		}{{"engine", single}, {"8 shards", sharded}} {
			got := mustSearch(t, e.s, SearchRequest{Query: q, K: k, Mode: ModeExact})
			assertMatchesEqual(t, fmt.Sprintf("q%d %s", qi, e.name), want, got.Matches)
		}
	}
}

// TestSketchFrozenEqualsLive: a sketch ranks every image of a frozen base
// exactly as it ranks the same images held by a live delta — the frozen
// engine's table is a scan of every live shape, as the delta's is.
func TestSketchFrozenEqualsLive(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 4,000-shape base")
	}
	images := quadImages(2000, 7)
	rng := rand.New(rand.NewSource(11))
	sketch := []Shape{synth.Distort(rng, images[3].Shapes[0], 0.01), synth.Distort(rng, images[3].Shapes[1], 0.01)}
	live := buildLive(t, images[:8], images[8:], 1, IngestConfig{})
	for _, e := range []struct {
		name string
		s    Searcher
	}{{"engine", buildSingle(t, images)}, {"8 shards", buildShardedFrom(t, images, 8)}} {
		for _, k := range []int{5, len(images)} {
			req := SearchRequest{Sketch: sketch, K: k, Mode: ModeSketch}
			want := mustSearch(t, live, req).SketchMatches
			if len(want) != k {
				t.Fatalf("k=%d: the live engine ranks %d images", k, len(want))
			}
			assertSketchEqual(t, fmt.Sprintf("%s k=%d", e.name, k), want, mustSearch(t, e.s, req).SketchMatches)
		}
	}
}

// TestSketchAgainstBruteForce ranks a sketch by brute force, through none
// of the engine's paths: for each sketch shape, core's ScanMatcher over a
// base of the live shapes; each image's least distance; the mean over the
// sketch shapes; the order (Score, ImageID). With k = every live image,
// ModeSketch must return that ranking byte for byte on one Engine, on 8
// shards with tombstones, and on a live engine whose delta holds shapes.
func TestSketchAgainstBruteForce(t *testing.T) {
	images, _, sketch := equivBase(t)
	brute := func(live []synth.Image) []SketchMatch {
		t.Helper()
		b := core.NewBase(core.DefaultOptions())
		for _, im := range live {
			for _, s := range im.Shapes {
				if _, err := b.AddShape(im.ID, s); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := b.Freeze(); err != nil {
			t.Fatal(err)
		}
		scan, err := core.NewScanMatcher(b)
		if err != nil {
			t.Fatal(err)
		}
		perImage := make(map[int][]float64)
		for si, q := range sketch {
			ms, err := scan.Match(q, b.NumShapes())
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range ms {
				img := b.Shape(m.ShapeID).Image
				ds := perImage[img]
				if ds == nil {
					ds = make([]float64, len(sketch))
					for i := range ds {
						ds[i] = math.Inf(1)
					}
					perImage[img] = ds
				}
				ds[si] = min(ds[si], m.DistVertex)
			}
		}
		var out []SketchMatch
		for img, ds := range perImage {
			var sum float64
			for _, d := range ds {
				sum += d
			}
			out = append(out, SketchMatch{ImageID: img, Score: sum / float64(len(ds)), PerShape: ds})
		}
		slices.SortFunc(out, func(a, b SketchMatch) int {
			if a.Score != b.Score {
				return cmp.Compare(a.Score, b.Score)
			}
			return cmp.Compare(a.ImageID, b.ImageID)
		})
		return out
	}

	ctx := context.Background()
	tombstoned := buildShardedFrom(t, images, 8)
	enableIngest(t, tombstoned, t.TempDir(), IngestConfig{})
	var kept []synth.Image
	for i, im := range images {
		if i%4 != 1 {
			kept = append(kept, im)
		} else if err := tombstoned.DeleteImage(ctx, im.ID); err != nil {
			t.Fatal(err)
		}
	}
	frozen, inserted := splitBase(images)
	live := buildLive(t, frozen, inserted, 2, IngestConfig{})
	if st := live.IngestStats(); st.DeltaShapes == 0 {
		t.Fatalf("the live engine's delta is empty: %+v", st)
	}
	for _, e := range []struct {
		name   string
		s      Searcher
		images []synth.Image
	}{
		{"engine", buildSingle(t, images), images},
		{"8 shards, tombstones", tombstoned, kept},
		{"live, delta", live, images},
	} {
		want := brute(e.images)
		if len(want) < 2 {
			t.Fatalf("%s: the brute-force ranking holds %d images", e.name, len(want))
		}
		got := mustSearch(t, e.s, SearchRequest{Sketch: sketch, K: len(e.images), Mode: ModeSketch}).SketchMatches
		assertSketchEqual(t, e.name, want, got)
	}
}
