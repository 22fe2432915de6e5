package geosir

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/mmap"
	"repro/internal/synth"
)

// annParts counts the parts of s's view that have an ANN index to derive:
// its frozen shards with images.
func annParts(s Searcher) int {
	var v searchView
	switch s := s.(type) {
	case *Engine:
		v = s.searchView()
	case *ShardedEngine:
		v = s.searchView()
	}
	n := 0
	for _, p := range v.parts {
		if p.ann != nil {
			n++
		}
	}
	return n
}

// TestANNIndexBuiltOnFirstProbe pins when an engine derives its ANN index:
// at the first ann:approx request, never at Freeze, at an open (LoadFile,
// LoadFileMmap, LoadShardedDir) or at a compaction. Each path derives none
// through its open and through exact, hashing and sketch requests without
// the tier; the first ann:approx request derives one per frozen part, and a
// second derives none.
func TestANNIndexBuiltOnFirstProbe(t *testing.T) {
	images, queries, sketch := equivBase(t)
	q := queries[0]
	plain := []SearchRequest{
		{Query: q, K: 3},
		{Query: q, K: 3, Mode: ModeExact},
		{Query: q, K: 3, Mode: ModeApproximate},
		{Query: q, K: 3, Mode: ModeExact, Ann: AnnApprox},
		{Sketch: sketch, K: 3, Mode: ModeSketch},
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "one.gsir3")
	if err := buildSingle(t, images).SaveFile(file); err != nil {
		t.Fatal(err)
	}
	shardDir := filepath.Join(dir, "sharded")
	if err := buildShardedFrom(t, images, 3).SaveDir(shardDir); err != nil {
		t.Fatal(err)
	}
	paths := []struct {
		name string
		open func(t *testing.T) Searcher
	}{
		{"Freeze", func(t *testing.T) Searcher { return buildSingle(t, images) }},
		{"LoadFile", func(t *testing.T) Searcher {
			eng, err := LoadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}},
		{"LoadFileMmap", func(t *testing.T) Searcher {
			if !mmap.Supported() || !mmap.CanCast() {
				t.Skip("mmap serving unsupported on this platform/build")
			}
			eng, err := LoadFileMmap(file)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { eng.Close() })
			return eng
		}},
		{"LoadShardedDir", func(t *testing.T) Searcher {
			se, _, err := LoadShardedDir(shardDir)
			if err != nil {
				t.Fatal(err)
			}
			return se
		}},
		{"compaction", func(t *testing.T) Searcher {
			frozen, live := splitBase(images)
			se := buildLive(t, frozen, live, 3, IngestConfig{})
			if err := se.Compact(); err != nil {
				t.Fatal(err)
			}
			return se
		}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			before := annBuilds.Load()
			s := p.open(t)
			for _, req := range plain {
				mustSearch(t, s, req)
			}
			if built := annBuilds.Load() - before; built != 0 {
				t.Fatalf("%d ANN indexes derived before the first ann:approx request", built)
			}
			mustSearch(t, s, SearchRequest{Query: q, K: 3, Ann: AnnApprox})
			if built, want := annBuilds.Load()-before, int64(annParts(s)); built != want || want == 0 {
				t.Fatalf("the first ann:approx request derived %d indexes over %d frozen parts", built, want)
			}
			mustSearch(t, s, SearchRequest{Sketch: sketch, K: 3, Mode: ModeSketch, Ann: AnnApprox})
			if built, want := annBuilds.Load()-before, int64(annParts(s)); built != want {
				t.Fatalf("a second ann:approx request derived %d more indexes", built-want)
			}
		})
	}
}

// TestANNIndexConcurrentFirstProbes sends first ann:approx requests from
// eight goroutines at once, to an Engine and to a 3-shard engine: each part
// derives its index once, and every request answers alike. Run under -race.
func TestANNIndexConcurrentFirstProbes(t *testing.T) {
	images, queries, _ := equivBase(t)
	for _, s := range []Searcher{buildSingle(t, images), buildShardedFrom(t, images, 3)} {
		before := annBuilds.Load()
		req := SearchRequest{Query: queries[1], K: 5, Ann: AnnApprox, Exec: ExecFanout}
		resps := make([]*SearchResponse, 8)
		errs := make([]error, len(resps))
		var start, done sync.WaitGroup
		start.Add(1)
		for i := range resps {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				resps[i], errs[i] = s.Search(context.Background(), req)
			}()
		}
		start.Done()
		done.Wait()
		if built, want := annBuilds.Load()-before, int64(annParts(s)); built != want {
			t.Fatalf("%T: concurrent first probes derived %d indexes over %d frozen parts", s, built, want)
		}
		for i, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesEqual(t, fmt.Sprintf("%T request %d", s, i), resps[0].Matches, resps[i].Matches)
		}
	}
}

// TestANNIndexDerivedAnswersAsEager compares engines whose ANN index is
// derived at the first probe with ones whose index was derived right after
// Freeze: every ann:approx answer — matches, sketch matches and stats —
// encodes to the same bytes. The bases are demo-200, the GSIR2 golden
// (whose stored ANN1 signatures the reader skips) and the GSIR3 golden of
// the kd-tree writer (whose ANNP/ANNS it ignores).
func TestANNIndexDerivedAnswersAsEager(t *testing.T) {
	eager := func(e *Engine) *Engine {
		if e.ANNIndex() == nil {
			t.Fatal("a frozen engine has no ANN index")
		}
		return e
	}
	demo := synth.GenerateBase(synth.PaperSpec(0.02, 1))
	rng := rand.New(rand.NewSource(9))
	demoQueries := synth.Queries(rng, demo, 12, 0.02)
	small := []Shape{
		lshape(0, 0, 3).Transform(Similarity(1.4, 0.5, Pt(40, 40))),
		square(0, 0, 5).Transform(Similarity(0.7, -1.1, Pt(-3, 8))),
		triangle(0, 0, 4),
	}
	loaded := func(data []byte) *Engine {
		eng, err := Load(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	for _, c := range []struct {
		name        string
		lazy, eager *Engine
		queries     []Shape
	}{
		{"demo-200", buildSingle(t, demo), eager(buildSingle(t, demo)), demoQueries},
		{"gsir2 golden", loaded(gsir2Golden(t)), eager(buildEngine(t)), small},
		{"gsir3 kd-tree golden", loaded(gsir3KDTreeGolden(t)), eager(buildEngine(t)), small},
	} {
		reqs := []SearchRequest{{Sketch: c.queries[:2], K: 5, Mode: ModeSketch, Ann: AnnApprox}}
		for _, q := range c.queries {
			for _, mode := range []Mode{ModeAuto, ModeApproximate} {
				reqs = append(reqs, SearchRequest{Query: q, K: 5, Mode: mode, Ann: AnnApprox})
			}
		}
		for i, req := range reqs {
			got, err := json.Marshal(mustSearch(t, c.lazy, req))
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(mustSearch(t, c.eager, req))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s request %d: derived at first probe %s, eagerly %s", c.name, i, got, want)
			}
		}
	}
}
