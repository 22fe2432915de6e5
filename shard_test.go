package geosir

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
)

func assertMatchesEqual(t *testing.T, label string, want, got []Match) {
	t.Helper()
	if len(want) == 0 && len(got) == 0 {
		return
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: matches diverge\nwant: %+v\ngot:  %+v", label, want, got)
	}
}

func assertSketchEqual(t *testing.T, label string, want, got []SketchMatch) {
	t.Helper()
	if len(want) == 0 && len(got) == 0 {
		return
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: sketch matches diverge\nwant: %+v\ngot:  %+v", label, want, got)
	}
}

// equivBase is the shared seeded random base of the equivalence suite:
// a small paper-statistics base plus distorted-copy queries and a
// two-shape sketch drawn from it.
func equivBase(t *testing.T) ([]synth.Image, []Shape, []Shape) {
	t.Helper()
	images := synth.GenerateBase(synth.PaperSpec(0.002, 41))
	rng := rand.New(rand.NewSource(43))
	queries := synth.Queries(rng, images, 5, 0.01)
	for i, q := range queries {
		if q.Validate() != nil {
			t.Fatalf("query %d invalid", i)
		}
	}
	// Sketch: two shapes from one image, lightly distorted.
	var sketch []Shape
	for _, im := range images {
		if len(im.Shapes) >= 2 {
			sketch = []Shape{
				synth.Distort(rng, im.Shapes[0], 0.01),
				synth.Distort(rng, im.Shapes[1], 0.01),
			}
			break
		}
	}
	if sketch == nil || sketch[0].Validate() != nil || sketch[1].Validate() != nil {
		t.Fatal("no usable sketch in the generated base")
	}
	return images, queries, sketch
}

func buildSingle(t testing.TB, images []synth.Image) *Engine {
	t.Helper()
	eng := New(DefaultOptions())
	for _, im := range images {
		if err := eng.AddImage(im.ID, im.Shapes); err != nil {
			t.Fatalf("AddImage(%d): %v", im.ID, err)
		}
	}
	if err := eng.Freeze(); err != nil {
		t.Fatal(err)
	}
	return eng
}

func buildShardedFrom(t testing.TB, images []synth.Image, shards int) *ShardedEngine {
	t.Helper()
	se := NewSharded(DefaultOptions(), shards)
	for _, im := range images {
		if err := se.AddImage(im.ID, im.Shapes); err != nil {
			t.Fatalf("sharded AddImage(%d): %v", im.ID, err)
		}
	}
	if err := se.Freeze(); err != nil {
		t.Fatal(err)
	}
	return se
}

// TestShardedGlobalIDsMatchSingle walks the view's per-shard id slices:
// each ascending, one id a local shape, no id twice (the shards hold the
// single engine's shapes, so every id once), each its id of that shape.
func TestShardedGlobalIDsMatchSingle(t *testing.T) {
	images, _, _ := equivBase(t)
	single := buildSingle(t, images)
	se := buildShardedFrom(t, images, 7)
	seen := make([]bool, single.NumShapes())
	for s, ids := range se.snapshot().log.ids {
		if len(ids) != se.Shard(s).NumShapes() || !slices.IsSorted(ids) {
			t.Fatalf("shard %d: ids %v for %d shapes", s, ids, se.Shard(s).NumShapes())
		}
		for local, g := range ids {
			got, want := se.Shard(s).Base().Shape(local), single.Base().Shape(int(g))
			if seen[g] || got.Image != want.Image || !reflect.DeepEqual(got.Poly.Pts, want.Poly.Pts) {
				t.Fatalf("shard %d local %d: global id %d named twice or another shape", s, local, g)
			}
			seen[g] = true
		}
	}
}

// TestShardedPersistRoundTrip saves a sharded engine, reloads it, and
// requires complete recovery plus byte-identical search results.
func TestShardedPersistRoundTrip(t *testing.T) {
	images, queries, sketch := equivBase(t)
	se := buildShardedFrom(t, images, 3)
	dir := filepath.Join(t.TempDir(), "snap")
	if err := se.SaveDir(dir); err != nil {
		t.Fatal(err)
	}

	re, rec, err := loadShardedDir(dir, LoadModeHeap)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Complete() {
		t.Fatalf("recovery not complete: %+v", rec)
	}
	if rec.ImagesLoaded != len(images) || rec.ImagesExpected != len(images) {
		t.Fatalf("recovered %d/%d images, want %d", rec.ImagesLoaded, rec.ImagesExpected, len(images))
	}
	if re.NumShapes() != se.NumShapes() || re.NumImages() != se.NumImages() {
		t.Fatalf("reloaded sizes diverge: %d/%d shapes, %d/%d images",
			re.NumShapes(), se.NumShapes(), re.NumImages(), se.NumImages())
	}

	ctx := context.Background()
	for _, q := range queries {
		for _, mode := range []Mode{ModeAuto, ModeExact, ModeApproximate} {
			req := SearchRequest{Query: q, K: 4, Mode: mode}
			want, err := se.Search(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := re.Search(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesEqual(t, "reloaded "+mode.String(), want.Matches, got.Matches)
		}
	}
	want, err := se.Search(ctx, SearchRequest{Sketch: sketch, K: 4, Mode: ModeSketch})
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.Search(ctx, SearchRequest{Sketch: sketch, K: 4, Mode: ModeSketch})
	if err != nil {
		t.Fatal(err)
	}
	assertSketchEqual(t, "reloaded sketch", want.SketchMatches, got.SketchMatches)

	// A re-save of the reloaded engine must keep the manifest stable.
	dir2 := filepath.Join(t.TempDir(), "snap2")
	if err := re.SaveDir(dir2); err != nil {
		t.Fatal(err)
	}
	m1, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := os.ReadFile(filepath.Join(dir2, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if string(m1) != string(m2) {
		t.Fatal("manifest changed across a save/load/save round trip")
	}
}

// TestShardedDamagedShardDegrades destroys one shard file and requires
// the load to degrade — not die: the surviving shards answer, global
// shape ids are unchanged, and the results equal the full engine's
// results with the dead shard's images filtered out.
func TestShardedDamagedShardDegrades(t *testing.T) {
	images, queries, _ := equivBase(t)
	const shards = 3
	se := buildShardedFrom(t, images, shards)
	dir := filepath.Join(t.TempDir(), "snap")
	if err := se.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	const dead = 1
	if err := os.WriteFile(filepath.Join(dir, shardFileName(dead)), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	re, rec, err := loadShardedDir(dir, LoadModeHeap)
	if err != nil {
		t.Fatalf("damaged shard should degrade, not fail: %v", err)
	}
	if rec.Complete() {
		t.Fatal("recovery reported complete despite a destroyed shard")
	}
	if !rec.Shards[dead].Dropped || rec.Shards[dead].Err == nil {
		t.Fatalf("shard %d not reported dropped: %+v", dead, rec.Shards[dead])
	}
	deadImages := 0
	for _, im := range images {
		if core.ShardFor(im.ID, shards) == dead {
			deadImages++
		}
	}
	if rec.ImagesLoaded != len(images)-deadImages {
		t.Fatalf("ImagesLoaded = %d, want %d", rec.ImagesLoaded, len(images)-deadImages)
	}

	ctx := context.Background()
	k := se.NumShapes()
	for qi, q := range queries {
		want, err := se.Search(ctx, SearchRequest{Query: q, K: k, Mode: ModeExact})
		if err != nil {
			t.Fatal(err)
		}
		// Reference: the intact results minus the dead shard's images,
		// ids untouched.
		var filtered []Match
		for _, m := range want.Matches {
			if core.ShardFor(m.ImageID, shards) != dead {
				filtered = append(filtered, m)
			}
		}
		got, err := re.Search(ctx, SearchRequest{Query: q, K: k, Mode: ModeExact})
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesEqual(t, "degraded exact q"+string(rune('0'+qi)), filtered, got.Matches)
	}
}

// TestLoadShardedDirMissingManifest pins the hard-failure case: with no
// manifest there is no routing to reconstruct.
func TestLoadShardedDirMissingManifest(t *testing.T) {
	images, _, _ := equivBase(t)
	se := buildShardedFrom(t, images, 2)
	dir := filepath.Join(t.TempDir(), "snap")
	if err := se.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadShardedDir(dir, LoadModeHeap); err == nil {
		t.Fatal("load without manifest succeeded")
	}
}

// TestLoadAny covers both snapshot kinds through the one entry point
// the serving layer uses, LoadAnyMode, under either load mode: a file
// loads as a one-shard engine with the file's own ids, a directory as its
// shards, each complete, with its shard files' format recorded, and each
// answers as the engine saved — a fresh file and directory, and every
// committed golden, which only a GSIR3 file serves mapped.
func TestLoadAny(t *testing.T) {
	images, queries, _ := equivBase(t)
	single := buildSingle(t, images)
	file := filepath.Join(t.TempDir(), "base.gsir2")
	if err := single.SaveFile(file); err != nil {
		t.Fatal(err)
	}
	se := buildShardedFrom(t, images, 4)
	dir := filepath.Join(t.TempDir(), "snap")
	if err := se.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	golden := buildEngine(t)
	goldenReq := SearchRequest{Query: lshape(0, 0, 3).Transform(Similarity(1.4, 0.5, Pt(40, 40))), K: 3, Mode: ModeExact}
	for _, mode := range []LoadMode{LoadModeHeap, LoadModeMmap} {
		for _, c := range []struct {
			label, path, format string
			shards              int
			want                *Engine
			req                 SearchRequest
		}{
			{"file", file, "GSIR3", 1, single, SearchRequest{Query: queries[0], K: 3, Mode: ModeExact}},
			{"dir", dir, "GSIR3", 4, single, SearchRequest{Query: queries[0], K: 3, Mode: ModeExact}},
			{"GSIR1 golden", filepath.Join("testdata", "gsir1", "base.gsir1"), "GSIR1", 1, golden, goldenReq},
			{"GSIR2 golden", filepath.Join("testdata", "gsir2", "base.gsir2"), "GSIR2", 1, golden, goldenReq},
			{"GSIR3 golden", gsir3KDTreeGoldenPath, "GSIR3", 1, golden, goldenReq},
		} {
			label := fmt.Sprintf("LoadAnyMode %s %v", c.label, mode)
			s, rec, err := LoadAnyMode(c.path, mode)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !rec.Complete() || len(rec.Shards) != c.shards || rec.Shards[0].Recovery.Format != c.format {
				t.Fatalf("%s: recovery %+v", label, rec)
			}
			sh, ok := s.(*ShardedEngine)
			if !ok || sh.NumShards() != c.shards || sh.NumShapes() != c.want.NumShapes() {
				t.Fatalf("%s = %T, want a %d-shard *ShardedEngine of %d shapes", label, s, c.shards, c.want.NumShapes())
			}
			served := servedLoadMode(mode)
			if c.format != "GSIR3" {
				served = "heap"
			}
			if got := sh.StorageStats().LoadMode; got != served {
				t.Fatalf("%s: served from %s, want %s", label, got, served)
			}
			want, got := mustSearch(t, c.want, c.req), mustSearch(t, s, c.req)
			assertMatchesEqual(t, label, want.Matches, got.Matches)
			sh.Close()
		}
	}
}

// TestShardedEmptyShards: more shards than images leaves some shards
// empty; they must be skipped, not break Freeze or Search — nor a save:
// SaveDir writes every shard, empty ones included, as GSIR3, and the
// directory reloads, heap and mapped, to an engine whose matches are the
// original's.
func TestShardedEmptyShards(t *testing.T) {
	se := NewSharded(DefaultOptions(), 16)
	if err := se.AddImage(1, []Shape{square(0, 0, 2), triangle(4, 4, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := se.AddImage(2, []Shape{lshape(9, 9, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := se.Freeze(); err != nil {
		t.Fatal(err)
	}
	req := SearchRequest{Query: square(0.1, 0.1, 2), K: 5, Mode: ModeExact}
	resp, err := se.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) == 0 {
		t.Fatal("no matches from a sharded engine with empty shards")
	}

	dir := filepath.Join(t.TempDir(), "snap")
	if err := se.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []LoadMode{LoadModeHeap, LoadModeMmap} {
		re, rec, err := loadShardedDir(dir, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !rec.Complete() || re.NumImages() != se.NumImages() {
			t.Fatalf("%v: %d images, recovery %+v", mode, re.NumImages(), rec)
		}
		for i, sr := range rec.Shards {
			if sr.Recovery.Format != "GSIR3" {
				t.Fatalf("%v: shard %d read as %s, want GSIR3", mode, i, sr.Recovery.Format)
			}
		}
		got, err := re.Search(context.Background(), req)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		assertMatchesEqual(t, mode.String(), resp.Matches, got.Matches)
		re.Close()
	}
}

// TestShardedMixedOptionsShardDropped swaps one shard file of a 3-shard
// directory for the same shard saved under other options (α and τ). Its
// images would be scored under options the directory's other shards do
// not use, so the load drops it as it drops a manifest-inconsistent
// shard, with an error naming both option sets.
func TestShardedMixedOptionsShardDropped(t *testing.T) {
	images, _, _ := equivBase(t)
	const shards, odd = 3, 1
	se := buildShardedFrom(t, images, shards)
	dir := filepath.Join(t.TempDir(), "snap")
	if err := se.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	other := se.Options()
	other.Alpha, other.Tau = 0.3, 0.2
	alt := NewSharded(other, shards)
	for _, im := range images {
		if err := alt.AddImage(im.ID, im.Shapes); err != nil {
			t.Fatal(err)
		}
	}
	if err := alt.Freeze(); err != nil {
		t.Fatal(err)
	}
	altDir := filepath.Join(t.TempDir(), "alt")
	if err := alt.SaveDir(altDir); err != nil {
		t.Fatal(err)
	}
	swapped, err := os.ReadFile(filepath.Join(altDir, shardFileName(odd)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, shardFileName(odd)), swapped, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, mode := range []LoadMode{LoadModeHeap, LoadModeMmap} {
		re, rec, err := loadShardedDir(dir, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		sr := rec.Shards[odd]
		if rec.Complete() || !sr.Dropped || sr.Err == nil ||
			!strings.Contains(sr.Err.Error(), fmt.Sprintf("%+v", other)) ||
			!strings.Contains(sr.Err.Error(), fmt.Sprintf("%+v", se.Options())) {
			t.Fatalf("%v: shard %d recovered as %+v, want it dropped naming both option sets", mode, odd, sr)
		}
		if re.Options() != se.Options() {
			t.Fatalf("%v: loaded under %+v, want %+v", mode, re.Options(), se.Options())
		}
		re.Close()
	}
}

// TestEmptyShardsAreOrdinaryEngines: a shard of no images is an engine
// like any other. Freeze freezes every shard of an engine with more shards
// than images, and so does a reload of its directory through LoadAnyMode,
// heap and mapped; every load answers ModeExact, ModeSketch and Query as
// one Engine over the same images does. An Engine of no images freezes
// too, and its Search and Query answer nothing.
func TestEmptyShardsAreOrdinaryEngines(t *testing.T) {
	images := []synth.Image{
		{ID: 1, Shapes: []Shape{square(0, 0, 2), triangle(4, 4, 1)}},
		{ID: 2, Shapes: []Shape{lshape(9, 9, 2)}},
		{ID: 3, Shapes: []Shape{square(20, 0, 3), lshape(30, 0, 1)}},
	}
	single := buildSingle(t, images)
	se := buildShardedFrom(t, images, 8)
	dir := filepath.Join(t.TempDir(), "snap")
	if err := se.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	exact := SearchRequest{Query: square(0.1, 0.1, 2), K: 5, Mode: ModeExact}
	sketch := SearchRequest{Sketch: []Shape{square(0, 0, 2), triangle(4, 4, 1)}, K: 3, Mode: ModeSketch}
	const topo = "contain(sq, tri, any) OR similar(ell)"
	binds := map[string]Shape{"sq": square(0, 0, 5), "tri": triangle(0, 0, 5), "ell": lshape(0, 0, 2)}
	want := []*SearchResponse{mustSearch(t, single, exact), mustSearch(t, single, sketch)}
	wantIDs, wantPlan, err := single.Query(context.Background(), topo, binds)
	if err != nil || len(want[0].Matches) == 0 || len(want[1].SketchMatches) == 0 || len(wantIDs) == 0 {
		t.Fatalf("the single engine answers %d, %d, %v (%v)", len(want[0].Matches), len(want[1].SketchMatches), wantIDs, err)
	}
	engines := map[string]*ShardedEngine{"built": se}
	for _, mode := range []LoadMode{LoadModeHeap, LoadModeMmap} {
		s, rec, err := LoadAnyMode(dir, mode)
		if err != nil || !rec.Complete() {
			t.Fatalf("%v: %v, recovery %+v", mode, err, rec)
		}
		engines[mode.String()] = s.(*ShardedEngine)
		defer s.(*ShardedEngine).Close()
	}
	for name, eng := range engines {
		empty := 0
		for i := 0; i < eng.NumShards(); i++ {
			if !eng.Shard(i).Frozen() {
				t.Fatalf("%s: shard %d of %d images is not frozen", name, i, eng.Shard(i).NumImages())
			}
			if eng.Shard(i).NumImages() == 0 {
				empty++
			}
		}
		if empty == 0 {
			t.Fatalf("%s: no empty shard among %d", name, eng.NumShards())
		}
		assertMatchesEqual(t, name+" exact", want[0].Matches, mustSearch(t, eng, exact).Matches)
		assertSketchEqual(t, name+" sketch", want[1].SketchMatches, mustSearch(t, eng, sketch).SketchMatches)
		ids, plan, err := eng.Query(context.Background(), topo, binds)
		if err != nil || !slices.Equal(ids, wantIDs) || plan != wantPlan {
			t.Fatalf("%s: Query answers %v %q (%v), want %v %q", name, ids, plan, err, wantIDs, wantPlan)
		}
	}

	eng := New(DefaultOptions())
	if err := eng.Freeze(); err != nil {
		t.Fatalf("an engine of no images does not freeze: %v", err)
	}
	for _, req := range []SearchRequest{exact, sketch} {
		if resp := mustSearch(t, eng, req); len(resp.Matches) != 0 || len(resp.SketchMatches) != 0 {
			t.Fatalf("an engine of no images answers %+v", resp)
		}
	}
	if ids, _, err := eng.Query(context.Background(), topo, binds); err != nil || len(ids) != 0 {
		t.Fatalf("an engine of no images answers Query with %v (%v)", ids, err)
	}
}
