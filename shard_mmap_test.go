package geosir

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
)

// TestShardedMmapEquivalence is the mmap serving equivalence suite:
// over the same seeded random base, a snapshot directory reloaded in
// LoadModeMmap answers byte-identically to the same directory reloaded
// in LoadModeHeap and to the engine that wrote it — for shard counts
// {1, 2, 7}, every mode, several k, and both ANN tiers. Matches are
// compared under the default (possibly parallel) plan, which under
// -race also proves the mapped sections are data-race-free under
// concurrent fan-out; Stats only under ExecSequential, because the work
// counters of a parallel shared-bound fan-out depend on which shard
// publishes first.
func TestShardedMmapEquivalence(t *testing.T) {
	images, queries, sketch := equivBase(t)
	ctx := context.Background()

	for _, shards := range []int{1, 2, 7} {
		orig := buildShardedFrom(t, images, shards)
		dir := filepath.Join(t.TempDir(), "snap")
		if err := orig.SaveDir(dir); err != nil {
			t.Fatalf("shards=%d: SaveDir: %v", shards, err)
		}
		heap, hrec, err := loadShardedDir(dir, LoadModeHeap)
		if err != nil {
			t.Fatalf("shards=%d: heap load: %v", shards, err)
		}
		if !hrec.Complete() {
			t.Fatalf("shards=%d: heap load incomplete: %+v", shards, hrec)
		}
		mm, mrec, err := loadShardedDir(dir, LoadModeMmap)
		if err != nil {
			t.Fatalf("shards=%d: mmap load: %v", shards, err)
		}
		if !mrec.Complete() {
			t.Fatalf("shards=%d: mmap load incomplete: %+v", shards, mrec)
		}

		// Every shard was written as GSIR3.
		for i, sr := range mrec.Shards {
			if sr.Recovery.Format != "GSIR3" {
				t.Fatalf("shards=%d: shard %d written as %s, want GSIR3", shards, i, sr.Recovery.Format)
			}
		}
		hst, mst := heap.StorageStats(), mm.StorageStats()
		if hst.LoadMode != "heap" || hst.MappedBytes != 0 {
			t.Fatalf("shards=%d: heap storage stats %+v", shards, hst)
		}
		if mst.LoadMode != servedLoadMode(LoadModeMmap) || (mst.LoadMode == "mmap") != (mst.MappedBytes > 0) {
			t.Fatalf("shards=%d: mmap storage stats %+v", shards, mst)
		}

		combos := []struct {
			mode Mode
			ann  AnnMode
		}{
			{ModeAuto, AnnOff}, {ModeExact, AnnOff}, {ModeApproximate, AnnOff},
			{ModeAuto, AnnApprox}, {ModeSketch, AnnOff},
		}
		engines := []struct {
			name string
			s    Searcher
		}{{"orig", orig}, {"mmap", mm}}
		for _, c := range combos {
			for _, k := range []int{1, 4} {
				qs := queries
				if c.mode == ModeSketch {
					qs = queries[:1] // sketch ignores Query; run once
				}
				for qi, q := range qs {
					for _, exec := range []ExecPolicy{ExecAuto, ExecSequential} {
						req := SearchRequest{Query: q, K: k, Mode: c.mode, Ann: c.ann, Exec: exec}
						if c.mode == ModeSketch {
							req = SearchRequest{Sketch: sketch, K: k, Mode: ModeSketch, Ann: c.ann, Exec: exec}
						}
						want, werr := heap.Search(ctx, req)
						for _, e := range engines {
							got, gerr := e.s.Search(ctx, req)
							label := fmt.Sprintf("shards=%d mode=%v ann=%v k=%d q=%d exec=%v %s",
								shards, c.mode, c.ann, k, qi, exec, e.name)
							if (werr == nil) != (gerr == nil) {
								t.Fatalf("%s: errors differ: %v vs %v", label, werr, gerr)
							}
							if werr != nil {
								continue
							}
							if exec == ExecSequential && want.Stats != got.Stats {
								t.Fatalf("%s: stats differ\nheap: %+v\ngot:  %+v", label, want.Stats, got.Stats)
							}
							assertMatchesEqual(t, label, want.Matches, got.Matches)
							assertSketchEqual(t, label, want.SketchMatches, got.SketchMatches)
						}
					}
				}
			}
		}
		if err := mm.Close(); err != nil {
			t.Fatalf("shards=%d: close: %v", shards, err)
		}
	}
}
