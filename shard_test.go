package geosir

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
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

// TestShardedEquivalence is the suite the tentpole's exactness claim
// rests on: over the same seeded random base, ShardedEngine.Search
// returns byte-identical matches and ordering to a single Engine, for
// shard counts {1, 2, 7}, k ∈ {0, 1, many}, and every mode. k = 0 must
// fail identically (ErrBadK) on both. Run under -race this also
// exercises the fan-out concurrency.
func TestShardedEquivalence(t *testing.T) {
	images, queries, sketch := equivBase(t)
	single := buildSingle(t, images)
	ctx := context.Background()
	many := single.NumShapes() + 5
	t.Logf("base: %d images, %d shapes", single.NumImages(), single.NumShapes())

	for _, shards := range []int{1, 2, 7} {
		se := buildShardedFrom(t, images, shards)
		if se.NumShapes() != single.NumShapes() || se.NumImages() != single.NumImages() {
			t.Fatalf("shards=%d: size mismatch: %d/%d shapes, %d/%d images",
				shards, se.NumShapes(), single.NumShapes(), se.NumImages(), single.NumImages())
		}

		// k = 0 fails identically on both engines.
		_, errSingle := single.Search(ctx, SearchRequest{Query: queries[0], K: 0})
		_, errSharded := se.Search(ctx, SearchRequest{Query: queries[0], K: 0})
		if !errors.Is(errSingle, ErrBadK) || !errors.Is(errSharded, ErrBadK) {
			t.Fatalf("shards=%d: k=0 errors diverge: single %v, sharded %v", shards, errSingle, errSharded)
		}

		for _, k := range []int{1, 3, many} {
			for qi, q := range queries {
				for _, mode := range []Mode{ModeAuto, ModeExact, ModeApproximate} {
					req := SearchRequest{Query: q, K: k, Mode: mode}
					want, err := single.Search(ctx, req)
					if err != nil {
						t.Fatalf("single q%d k=%d %v: %v", qi, k, mode, err)
					}
					got, err := se.Search(ctx, req)
					if err != nil {
						t.Fatalf("shards=%d q%d k=%d %v: %v", shards, qi, k, mode, err)
					}
					label := mode.String()
					assertMatchesEqual(t, label, want.Matches, got.Matches)
					if got.Stats.UsedHashing != want.Stats.UsedHashing {
						t.Fatalf("shards=%d q%d k=%d %s: UsedHashing diverges (%v vs %v)",
							shards, qi, k, label, got.Stats.UsedHashing, want.Stats.UsedHashing)
					}
				}
			}
			req := SearchRequest{Sketch: sketch, K: k, Mode: ModeSketch}
			want, err := single.Search(ctx, req)
			if err != nil {
				t.Fatalf("single sketch k=%d: %v", k, err)
			}
			got, err := se.Search(ctx, req)
			if err != nil {
				t.Fatalf("shards=%d sketch k=%d: %v", shards, k, err)
			}
			assertSketchEqual(t, "sketch", want.SketchMatches, got.SketchMatches)
		}
	}
}

// TestShardedGlobalIDsMatchSingle verifies the id mapping directly:
// every global id resolves to the same geometry the single engine
// stores under that id.
func TestShardedGlobalIDsMatchSingle(t *testing.T) {
	images, _, _ := equivBase(t)
	single := buildSingle(t, images)
	se := buildShardedFrom(t, images, 7)
	m := se.IDMap()
	if m.NumGlobal() != single.NumShapes() {
		t.Fatalf("NumGlobal = %d, want %d", m.NumGlobal(), single.NumShapes())
	}
	for g := 0; g < m.NumGlobal(); g++ {
		shard, local, ok := m.Locate(g)
		if !ok {
			t.Fatalf("global id %d unmapped", g)
		}
		got := se.Shard(shard).Base().Shape(local)
		want := single.Base().Shape(g)
		if got.Image != want.Image || !reflect.DeepEqual(got.Poly.Pts, want.Poly.Pts) {
			t.Fatalf("global id %d: shard copy differs from single engine's shape", g)
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

	re, rec, err := LoadShardedDir(dir)
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

	re, rec, err := LoadShardedDir(dir)
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
	if _, _, err := LoadShardedDir(dir); err == nil {
		t.Fatal("load without manifest succeeded")
	}
}

// TestLoadAny covers both snapshot kinds through the one entry point
// the serving layer uses: a file loads as a one-shard engine with the
// file's own ids, a directory as its shards.
func TestLoadAny(t *testing.T) {
	images, queries, _ := equivBase(t)
	ctx := context.Background()
	req := SearchRequest{Query: queries[0], K: 3, Mode: ModeExact}

	single := buildSingle(t, images)
	file := filepath.Join(t.TempDir(), "base.gsir2")
	if err := single.SaveFile(file); err != nil {
		t.Fatal(err)
	}
	s1, rec1, err := LoadAny(file)
	if err != nil {
		t.Fatal(err)
	}
	if !rec1.Complete() || len(rec1.Shards) != 1 {
		t.Fatalf("file recovery: %+v", rec1)
	}
	if se, ok := s1.(*ShardedEngine); !ok || se.NumShards() != 1 || se.NumShapes() != single.NumShapes() {
		t.Fatalf("LoadAny(file) = %T, want a one-shard *ShardedEngine of %d shapes", s1, single.NumShapes())
	}

	se := buildShardedFrom(t, images, 4)
	dir := filepath.Join(t.TempDir(), "snap")
	if err := se.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	s2, rec2, err := LoadAny(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec2.Complete() || len(rec2.Shards) != 4 {
		t.Fatalf("dir recovery: %+v", rec2)
	}

	want, err := single.Search(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for label, s := range map[string]Searcher{"file": s1, "dir": s2} {
		got, err := s.Search(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		assertMatchesEqual(t, "LoadAny "+label, want.Matches, got.Matches)
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
	for i := 0; i < se.NumShards(); i++ {
		if info, err := PeekFile(filepath.Join(dir, shardFileName(i))); err != nil || info.Format != FormatGSIR3 {
			t.Fatalf("shard %d: PeekFile = %+v, %v; want GSIR3", i, info, err)
		}
	}
	for _, mode := range []LoadMode{LoadModeHeap, LoadModeMmap} {
		re, rec, err := LoadShardedDirMode(dir, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !rec.Complete() || re.NumImages() != se.NumImages() {
			t.Fatalf("%v: %d images, recovery %+v", mode, re.NumImages(), rec)
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
		re, rec, err := LoadShardedDirMode(dir, mode)
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
