package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	geosir "repro"
	"repro/internal/core"
	"repro/internal/mmap"
	"repro/internal/synth"
)

// TestServingBuildsNoRangeIndex pins that the paper's range index — the
// kd-tree over every stored vertex and the vertex → entry map — is the
// climb's alone: no serving path builds one. Every mode × ANN mode × exec
// policy on an Engine and on 8-shard engines loaded heap-decoded and
// mapped, a topological query, and a live insert, delete and compaction
// leave the build count where it was; eight concurrent first climbs on one
// base then build it exactly once, and agree.
func TestServingBuildsNoRangeIndex(t *testing.T) {
	ctx := context.Background()
	images := synth.GenerateBase(synth.PaperSpec(0.003, 3))
	queries := synth.Queries(rand.New(rand.NewSource(5)), images, 2, 0.01)
	before := core.RangeIndexBuilds()

	eng := geosir.New(geosir.DefaultOptions())
	sharded := geosir.NewSharded(geosir.DefaultOptions(), 8)
	for _, im := range images {
		if err := eng.AddImage(im.ID, im.Shapes); err != nil {
			t.Fatal(err)
		}
		if err := sharded.AddImage(im.ID, im.Shapes); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Freeze(); err != nil {
		t.Fatal(err)
	}
	if err := sharded.Freeze(); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "snap")
	if err := sharded.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	engines := []struct {
		name string
		s    geosir.Searcher
	}{{"engine", eng}}
	for _, mode := range []geosir.LoadMode{geosir.LoadModeHeap, geosir.LoadModeMmap} {
		se, _, err := geosir.LoadShardedDirMode(dir, mode)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, struct {
			name string
			s    geosir.Searcher
		}{fmt.Sprintf("8 shards, load mode %d", mode), se})
	}

	for _, e := range engines {
		for _, mode := range []geosir.Mode{geosir.ModeAuto, geosir.ModeExact, geosir.ModeApproximate, geosir.ModeSketch} {
			for _, ann := range []geosir.AnnMode{geosir.AnnOff, geosir.AnnApprox} {
				for _, exec := range []geosir.ExecPolicy{geosir.ExecAuto, geosir.ExecFanout, geosir.ExecSequential} {
					req := geosir.SearchRequest{Query: queries[0], K: 3, Mode: mode, Ann: ann, Exec: exec}
					if mode == geosir.ModeSketch {
						req = geosir.SearchRequest{Sketch: queries, K: 3, Mode: mode, Ann: ann, Exec: exec}
					}
					if _, err := e.s.Search(ctx, req); err != nil {
						t.Fatalf("%s %v %v %v: %v", e.name, mode, ann, exec, err)
					}
				}
			}
		}
	}
	binds := map[string]geosir.Shape{"q": queries[0]}
	if _, _, err := eng.Query(context.Background(), "similar(q)", binds); err != nil {
		t.Fatal(err)
	}

	if err := sharded.EnableIngest(geosir.IngestConfig{Dir: t.TempDir(), CompactThreshold: -1, NoSync: true}); err != nil {
		t.Fatal(err)
	}
	defer sharded.CloseIngest()
	if err := sharded.InsertImage(ctx, 9001, []geosir.Shape{queries[1]}); err != nil {
		t.Fatal(err)
	}
	if err := sharded.DeleteImage(ctx, images[0].ID); err != nil {
		t.Fatal(err)
	}
	if err := sharded.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []geosir.Mode{geosir.ModeAuto, geosir.ModeExact} {
		if _, err := sharded.Search(ctx, geosir.SearchRequest{Query: queries[1], K: 3, Mode: mode}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := sharded.Query(context.Background(), "similar(q)", binds); err != nil {
		t.Fatal(err)
	}
	if built := core.RangeIndexBuilds() - before; built != 0 {
		t.Fatalf("serving built the range index %d times, want never", built)
	}

	base := eng.Base()
	results := make([][]core.Match, 8)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ms, _, err := base.Match(queries[0], 3)
			if err != nil {
				t.Error(err)
			}
			results[i] = ms
		}(i)
	}
	wg.Wait()
	if built := core.RangeIndexBuilds() - before; built != 1 {
		t.Fatalf("eight concurrent first climbs built the range index %d times, want once", built)
	}
	for i := range results {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("climb %d answers %+v, climb 0 %+v", i, results[i], results[0])
		}
	}
}

// TestOpenDerivesNoCopy pins that opening a snapshot reads what a copy is
// stored as — its meta and its cells — and derives none of its vertices:
// Load and LoadFileMmap of a demo-200 snapshot leave the count of copies
// derived where it was, and their engines answer as the engine saved. A
// file of an older writer, without the cell row, derives every copy once,
// for its cells.
func TestOpenDerivesNoCopy(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 200-image demo base")
	}
	images := synth.GenerateBase(synth.PaperSpec(0.02, 1))
	eng := geosir.New(geosir.DefaultOptions())
	for _, im := range images {
		if err := eng.AddImage(im.ID, im.Shapes); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Freeze(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "demo200.gsir3")
	if err := eng.SaveFileAs(path, geosir.FormatGSIR3); err != nil {
		t.Fatal(err)
	}
	q := synth.Queries(rand.New(rand.NewSource(9)), images, 1, 0.01)[0]
	want, err := eng.Search(context.Background(), geosir.SearchRequest{Query: q, K: 5, Mode: geosir.ModeExact})
	if err != nil {
		t.Fatal(err)
	}
	opens := map[string]func(string) (*geosir.Engine, error){"Load": geosir.LoadFile}
	if mmap.Supported() && mmap.CanCast() {
		opens["LoadFileMmap"] = geosir.LoadFileMmap
	}
	for name, open := range opens {
		before := core.CopiesDerived()
		loaded, err := open(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if derived := core.CopiesDerived() - before; derived != 0 {
			t.Fatalf("%s of a demo-200 snapshot derived %d copies, want none", name, derived)
		}
		got, err := loaded.Search(context.Background(), geosir.SearchRequest{Query: q, K: 5, Mode: geosir.ModeExact})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Matches, want.Matches) || got.Stats != want.Stats {
			t.Fatalf("%s: the loaded engine answers %+v, the saved one %+v", name, got, want)
		}
		loaded.Close()
	}

	before := core.CopiesDerived()
	old, err := geosir.LoadFile(filepath.Join("..", "..", "testdata", "gsir3", "kdtree.gsir3"))
	if err != nil {
		t.Fatal(err)
	}
	if derived := core.CopiesDerived() - before; derived != int64(old.NumEntries()) {
		t.Fatalf("a file without the cell row derived %d copies on load, want its %d, once each", derived, old.NumEntries())
	}
}
