package geosir

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/iofault"
	"repro/internal/synth"
)

// The live-ingestion equivalence suite. The tentpole claim is that a
// frozen ShardedEngine with a live delta answers queries byte-identically
// to an engine that was built with every image up front — before, during,
// and after compaction — and that no acknowledged write is ever lost
// across a crash, at any point of the compaction protocol.

// enableIngest attaches ingestion with auto-compaction off so tests
// control fold timing explicitly.
func enableIngest(t *testing.T, se *ShardedEngine, dir string, cfg IngestConfig) {
	t.Helper()
	cfg.Dir = dir
	if cfg.CompactThreshold == 0 {
		cfg.CompactThreshold = -1
	}
	cfg.NoSync = true
	if err := se.EnableIngest(cfg); err != nil {
		t.Fatalf("EnableIngest: %v", err)
	}
	t.Cleanup(func() { se.CloseIngest() })
}

// splitBase partitions the equivalence base into a frozen prefix and a
// live-inserted suffix.
func splitBase(images []synth.Image) (frozen, live []synth.Image) {
	cut := len(images) * 7 / 10
	return images[:cut], images[cut:]
}

// buildLive builds a sharded engine over the frozen prefix, enables
// ingestion in a temp dir, and inserts the live suffix.
func buildLive(t *testing.T, frozen, live []synth.Image, shards int, cfg IngestConfig) *ShardedEngine {
	t.Helper()
	se := buildShardedFrom(t, frozen, shards)
	enableIngest(t, se, t.TempDir(), cfg)
	ctx := context.Background()
	for _, im := range live {
		if err := se.InsertImage(ctx, im.ID, im.Shapes); err != nil {
			t.Fatalf("InsertImage(%d): %v", im.ID, err)
		}
	}
	return se
}

// assertSearchEquivalent sweeps modes × k and compares both engines'
// results byte-for-byte (global shape ids included).
func assertSearchEquivalent(t *testing.T, label string, want Searcher, got *ShardedEngine, queries, sketch []Shape) {
	t.Helper()
	ctx := context.Background()
	many := got.NumShapes() + 5
	for _, k := range []int{1, 3, many} {
		for qi, q := range queries {
			for _, mode := range []Mode{ModeAuto, ModeExact, ModeApproximate} {
				req := SearchRequest{Query: q, K: k, Mode: mode}
				w, err := want.Search(ctx, req)
				if err != nil {
					t.Fatalf("%s: reference q%d k=%d %v: %v", label, qi, k, mode, err)
				}
				g, err := got.Search(ctx, req)
				if err != nil {
					t.Fatalf("%s: live q%d k=%d %v: %v", label, qi, k, mode, err)
				}
				assertMatchesEqual(t, fmt.Sprintf("%s q%d k=%d %v", label, qi, k, mode), w.Matches, g.Matches)
			}
		}
		req := SearchRequest{Sketch: sketch, K: k, Mode: ModeSketch}
		w, err := want.Search(ctx, req)
		if err != nil {
			t.Fatalf("%s: reference sketch k=%d: %v", label, k, err)
		}
		g, err := got.Search(ctx, req)
		if err != nil {
			t.Fatalf("%s: live sketch k=%d: %v", label, k, err)
		}
		assertSketchEqual(t, label+" sketch", w.SketchMatches, g.SketchMatches)
	}
}

// TestIngestReinsertAfterDelete exercises the id-reuse path: a deleted
// image id may be re-inserted with different shapes, gets fresh global
// ids, and the stale frozen copy never resurfaces — including after the
// reinsertion is itself compacted (a dead copy in one shard, a live one
// in another). Then a lookup by the id finds its latest entry, the live
// compacted copy: a second insert is refused and a delete succeeds.
func TestIngestReinsertAfterDelete(t *testing.T) {
	images, queries, _ := equivBase(t)
	frozenImgs, liveImgs := splitBase(images)
	ctx := context.Background()
	se := buildLive(t, frozenImgs, liveImgs, 2, IngestConfig{})

	victim := frozenImgs[0]
	if err := se.DeleteImage(ctx, victim.ID); err != nil {
		t.Fatal(err)
	}
	if err := se.InsertImage(ctx, victim.ID, victim.Shapes); err != nil {
		t.Fatalf("reinsert: %v", err)
	}
	if err := se.Compact(); err != nil {
		t.Fatal(err)
	}
	// Reference: same images, but the victim moved to the end of the
	// insertion order (its reinsertion point).
	var reordered []synth.Image
	for _, im := range images {
		if im.ID != victim.ID {
			reordered = append(reordered, im)
		}
	}
	reordered = append(reordered, victim)
	ref := buildSingle(t, reordered)
	for qi, q := range queries {
		w, err := ref.Search(ctx, SearchRequest{Query: q, K: 3, Mode: ModeExact})
		if err != nil {
			t.Fatal(err)
		}
		g, err := se.Search(ctx, SearchRequest{Query: q, K: 3, Mode: ModeExact})
		if err != nil {
			t.Fatal(err)
		}
		if len(w.Matches) != len(g.Matches) {
			t.Fatalf("q%d: %d vs %d matches", qi, len(g.Matches), len(w.Matches))
		}
		for i := range w.Matches {
			if w.Matches[i].ImageID != g.Matches[i].ImageID || w.Matches[i].Distance != g.Matches[i].Distance {
				t.Fatalf("q%d match %d: got (%d, %g), want (%d, %g)", qi, i,
					g.Matches[i].ImageID, g.Matches[i].Distance,
					w.Matches[i].ImageID, w.Matches[i].Distance)
			}
		}
	}
	if err := se.InsertImage(ctx, victim.ID, victim.Shapes); !errors.Is(err, ErrImageExists) {
		t.Fatalf("insert over the compacted copy: %v, want ErrImageExists", err)
	}
	if err := se.DeleteImage(ctx, victim.ID); err != nil {
		t.Fatalf("delete of the compacted copy: %v", err)
	}
}

// TestIngestRestartReplay pins WAL durability and global-id stability
// across a restart: insert + delete, drop the engine without compacting,
// reload the directory, and compare byte-identical results (global ids
// included) against the pre-restart engine's answers.
func TestIngestRestartReplay(t *testing.T) {
	images, queries, _ := equivBase(t)
	frozenImgs, liveImgs := splitBase(images)
	ctx := context.Background()
	dir := t.TempDir()

	se := buildShardedFrom(t, frozenImgs, 2)
	enableIngest(t, se, dir, IngestConfig{})
	for _, im := range liveImgs {
		if err := se.InsertImage(ctx, im.ID, im.Shapes); err != nil {
			t.Fatal(err)
		}
	}
	if err := se.DeleteImage(ctx, frozenImgs[3].ID); err != nil {
		t.Fatal(err)
	}
	if err := se.DeleteImage(ctx, liveImgs[0].ID); err != nil {
		t.Fatal(err)
	}
	var want []*SearchResponse
	for _, q := range queries {
		r, err := se.Search(ctx, SearchRequest{Query: q, K: 5, Mode: ModeExact})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	wantImages, wantShapes := se.NumImages(), se.NumShapes()
	if err := se.CloseIngest(); err != nil {
		t.Fatal(err)
	}

	re, rec, err := loadShardedDir(dir, LoadModeHeap)
	if err != nil {
		t.Fatalf("loadShardedDir: %v", err)
	}
	if !rec.Complete() {
		t.Fatalf("degraded load: %+v", rec)
	}
	enableIngest(t, re, dir, IngestConfig{})
	st := re.IngestStats()
	if st.Replayed == 0 {
		t.Fatalf("no WAL ops replayed: %+v", st)
	}
	if re.NumImages() != wantImages || re.NumShapes() != wantShapes {
		t.Fatalf("reloaded size: %d/%d images, %d/%d shapes",
			re.NumImages(), wantImages, re.NumShapes(), wantShapes)
	}
	for qi, q := range queries {
		got, err := re.Search(ctx, SearchRequest{Query: q, K: 5, Mode: ModeExact})
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesEqual(t, fmt.Sprintf("replayed q%d", qi), want[qi].Matches, got.Matches)
	}
}

// TestIngestReplaySkipsDeleteThatHappened: SaveDir into a live engine's
// own directory writes its frozen tombstones into the manifest and resets
// the fold watermark to 0, so the next EnableIngest replays deletes whose
// images the manifest already marks deleted. Replay reads such a delete,
// of an image live nowhere, as already done: the directory reloads to the
// engine it was saved from.
func TestIngestReplaySkipsDeleteThatHappened(t *testing.T) {
	images, queries, _ := equivBase(t)
	frozenImgs, liveImgs := splitBase(images)
	ctx := context.Background()
	dir := t.TempDir()

	se := buildShardedFrom(t, frozenImgs, 3)
	enableIngest(t, se, dir, IngestConfig{})
	for _, im := range liveImgs[:4] {
		if err := se.InsertImage(ctx, im.ID, im.Shapes); err != nil {
			t.Fatal(err)
		}
	}
	if err := se.DeleteImage(ctx, frozenImgs[2].ID); err != nil {
		t.Fatal(err)
	}
	req := SearchRequest{Query: queries[0], K: 5, Mode: ModeExact}
	want, err := se.Search(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	wantImages := se.NumImages()
	if err := se.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := se.CloseIngest(); err != nil {
		t.Fatal(err)
	}

	loaded, _, err := LoadAnyMode(dir, LoadModeHeap)
	if err != nil {
		t.Fatal(err)
	}
	re := loaded.(*ShardedEngine)
	enableIngest(t, re, dir, IngestConfig{})
	if re.NumImages() != wantImages {
		t.Fatalf("reloaded %d images, want %d", re.NumImages(), wantImages)
	}
	got, err := re.Search(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesEqual(t, "replayed", want.Matches, got.Matches)
}

// TestIngestCrashMidCompaction is the acceptance-criteria test: abort
// the compaction at every stage of its protocol (plus a manifest-write
// fault), "crash" by abandoning the engine, recover the directory with
// loadShardedDir + EnableIngest, and verify every acknowledged write is
// present and queries answer exactly as before the crash. The recovered
// state may be pre- or post-compaction — never torn.
func TestIngestCrashMidCompaction(t *testing.T) {
	images, queries, _ := equivBase(t)
	frozenImgs, liveImgs := splitBase(images)
	ctx := context.Background()

	stages := []string{"built", "shard-saved", "manifest-written", "wal-rewritten", "manifest-fault"}
	for _, stage := range stages {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			se := buildShardedFrom(t, frozenImgs, 2)
			crashErr := errors.New("injected crash at " + stage)
			cfg := IngestConfig{crashStage: func(s string) error {
				if s == stage {
					return crashErr
				}
				return nil
			}}
			if stage == "manifest-fault" {
				cfg = IngestConfig{wrapManifest: func(w io.Writer) io.Writer {
					return iofault.FailWriter(w, 64)
				}}
			}
			enableIngest(t, se, dir, cfg)
			for _, im := range liveImgs {
				if err := se.InsertImage(ctx, im.ID, im.Shapes); err != nil {
					t.Fatal(err)
				}
			}
			if err := se.DeleteImage(ctx, frozenImgs[1].ID); err != nil {
				t.Fatal(err)
			}
			var want []*SearchResponse
			for _, q := range queries {
				r, err := se.Search(ctx, SearchRequest{Query: q, K: 5, Mode: ModeExact})
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, r)
			}
			wantImages, wantShapes := se.NumImages(), se.NumShapes()

			err := se.Compact()
			if err == nil {
				t.Fatalf("Compact succeeded despite %s fault", stage)
			}
			if stage != "manifest-fault" && !errors.Is(err, crashErr) {
				t.Fatalf("Compact error %v does not wrap the injected crash", err)
			}
			// The surviving engine must still answer correctly (a failed
			// fold leaves the sealed delta serving queries; a post-commit
			// failure leaves the swapped view serving them).
			for qi, q := range queries {
				got, serr := se.Search(ctx, SearchRequest{Query: q, K: 5, Mode: ModeExact})
				if serr != nil {
					t.Fatal(serr)
				}
				assertMatchesEqual(t, fmt.Sprintf("surviving q%d", qi), want[qi].Matches, got.Matches)
			}
			se.CloseIngest() // release the WAL handle; the "crash"

			re, rec, lerr := loadShardedDir(dir, LoadModeHeap)
			if lerr != nil {
				t.Fatalf("recovery load: %v", lerr)
			}
			if !rec.Complete() {
				t.Fatalf("recovery degraded: %+v", rec)
			}
			enableIngest(t, re, dir, IngestConfig{})
			if re.NumImages() != wantImages || re.NumShapes() != wantShapes {
				t.Fatalf("recovered size: %d/%d images, %d/%d shapes",
					re.NumImages(), wantImages, re.NumShapes(), wantShapes)
			}
			for qi, q := range queries {
				got, serr := re.Search(ctx, SearchRequest{Query: q, K: 5, Mode: ModeExact})
				if serr != nil {
					t.Fatal(serr)
				}
				assertMatchesEqual(t, fmt.Sprintf("recovered q%d", qi), want[qi].Matches, got.Matches)
			}
		})
	}
}

// TestIngestCompactRetry verifies the fold is retryable: after a
// manifest-write fault the sealed delta stays queryable, and a second
// Compact (fault cleared) commits it.
func TestIngestCompactRetry(t *testing.T) {
	images, queries, sketch := equivBase(t)
	frozenImgs, liveImgs := splitBase(images)
	single := buildSingle(t, images)

	fail := true
	cfg := IngestConfig{wrapManifest: func(w io.Writer) io.Writer {
		if fail {
			return iofault.FailWriter(w, 64)
		}
		return w
	}}
	se := buildLive(t, frozenImgs, liveImgs, 2, cfg)
	if err := se.Compact(); err == nil {
		t.Fatal("Compact succeeded despite manifest fault")
	} else if !errors.Is(err, iofault.ErrInjected) {
		t.Fatalf("Compact error %v does not wrap the injected fault", err)
	}
	st := se.IngestStats()
	if st.SealedShapes == 0 || st.Compactions != 0 {
		t.Fatalf("after failed fold: %+v", st)
	}
	assertSearchEquivalent(t, "sealed after failed fold", single, se, queries, sketch)

	fail = false
	if err := se.Compact(); err != nil {
		t.Fatalf("retry Compact: %v", err)
	}
	st = se.IngestStats()
	if st.SealedShapes != 0 || st.Compactions != 1 {
		t.Fatalf("after retry: %+v", st)
	}
	assertSearchEquivalent(t, "after retried fold", single, se, queries, sketch)
}

// faultyWriter fails writes while *fail is set.
type faultyWriter struct {
	w    io.Writer
	fail *bool
}

func (f faultyWriter) Write(p []byte) (int, error) {
	if *f.fail {
		return 0, iofault.ErrInjected
	}
	return f.w.Write(p)
}

// TestIngestWALAppendFault verifies an unacknowledged insert leaves no
// trace: when the WAL append fails the delta rolls back, including the
// global-id reservation, so later inserts line up with a crash replay.
func TestIngestWALAppendFault(t *testing.T) {
	images, queries, _ := equivBase(t)
	frozenImgs, liveImgs := splitBase(images)
	ctx := context.Background()

	// The wrap is applied once at OpenWAL, so the fault gate has to live
	// inside the writer and consult the flag per write.
	fail := false
	cfg := IngestConfig{wrapWAL: func(w io.Writer) io.Writer {
		return faultyWriter{w: w, fail: &fail}
	}}
	se := buildLive(t, frozenImgs, liveImgs[:len(liveImgs)-1], 2, cfg)
	last := liveImgs[len(liveImgs)-1]

	fail = true
	if err := se.InsertImage(ctx, last.ID, last.Shapes); err == nil {
		t.Fatal("insert succeeded despite WAL fault")
	} else if !errors.Is(err, iofault.ErrInjected) {
		t.Fatalf("insert error %v does not wrap the injected fault", err)
	}
	if se.IngestStats().DeltaImages != len(liveImgs)-1 {
		t.Fatalf("failed insert left a trace: %+v", se.IngestStats())
	}
	fail = false
	if err := se.InsertImage(ctx, last.ID, last.Shapes); err != nil {
		t.Fatalf("insert after rollback: %v", err)
	}
	// Global ids must be exactly what a from-scratch build assigns — the
	// rolled-back reservation must not have burned ids.
	single := buildSingle(t, images)
	for qi, q := range queries {
		w, err := single.Search(ctx, SearchRequest{Query: q, K: 5, Mode: ModeExact})
		if err != nil {
			t.Fatal(err)
		}
		g, err := se.Search(ctx, SearchRequest{Query: q, K: 5, Mode: ModeExact})
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesEqual(t, fmt.Sprintf("post-rollback q%d", qi), w.Matches, g.Matches)
	}
}

// TestIngestAutoCompaction verifies the threshold trigger: inserts past
// CompactThreshold shapes kick off a background fold.
func TestIngestAutoCompaction(t *testing.T) {
	images, _, _ := equivBase(t)
	frozenImgs, liveImgs := splitBase(images)
	ctx := context.Background()
	se := buildShardedFrom(t, frozenImgs, 2)
	enableIngest(t, se, t.TempDir(), IngestConfig{CompactThreshold: 1})
	for _, im := range liveImgs[:3] {
		if err := se.InsertImage(ctx, im.ID, im.Shapes); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := se.IngestStats()
		if st.AutoCompactions > 0 && st.Compactions > 0 && !st.Compacting {
			if st.LastCompactError != "" {
				t.Fatalf("auto-compaction failed: %s", st.LastCompactError)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-compaction never completed: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestIngestConcurrentSearch hammers the swap paths under -race:
// searches run continuously while inserts, deletes, and compactions
// mutate the view.
func TestIngestConcurrentSearch(t *testing.T) {
	images, queries, _ := equivBase(t)
	frozenImgs, liveImgs := splitBase(images)
	ctx := context.Background()
	se := buildShardedFrom(t, frozenImgs, 2)
	enableIngest(t, se, t.TempDir(), IngestConfig{})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(i+w)%len(queries)]
				mode := []Mode{ModeExact, ModeApproximate, ModeAuto}[i%3]
				if _, err := se.Search(ctx, SearchRequest{Query: q, K: 3, Mode: mode}); err != nil {
					t.Errorf("concurrent search: %v", err)
					return
				}
			}
		}(w)
	}
	for i, im := range liveImgs {
		if err := se.InsertImage(ctx, im.ID, im.Shapes); err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			if err := se.Compact(); err != nil && !errors.Is(err, ErrCompacting) {
				t.Fatal(err)
			}
		}
		if i%5 == 4 {
			if err := se.DeleteImage(ctx, im.ID); err != nil && !errors.Is(err, ErrCompacting) {
				t.Fatal(err)
			}
		}
	}
	if err := se.Compact(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
}

// TestIngestErrors covers the refusal paths, and the decision table of
// inserts and deletes: for an image in each place — frozen, sealed,
// active, deleted, unknown — while idle, mid-fold and after a failed fold,
// the insert's and the delete's outcome.
func TestIngestErrors(t *testing.T) {
	images, _, _ := equivBase(t)
	frozenImgs, _ := splitBase(images)
	ctx := context.Background()

	se := buildShardedFrom(t, frozenImgs, 2)
	shapes, f := frozenImgs[0].Shapes, func(i int) int { return frozenImgs[i].ID }
	// outcomes runs one state's row of the table: a live image is inserted,
	// then deleted; a deleted or unknown one deleted, then inserted; a zero
	// id (no sealed delta) is skipped. A sealed image's delete is refused
	// until its fold commits, also after the fold failed.
	outcomes := func(state string, frozenDel error, frozen, sealed, active, deleted, unknown int) {
		for _, c := range []struct {
			place    string
			id       int
			ins, del error
		}{
			{"frozen", frozen, ErrImageExists, frozenDel},
			{"sealed", sealed, ErrImageExists, ErrCompacting},
			{"active", active, ErrImageExists, nil},
			{"deleted", deleted, nil, ErrNoImage},
			{"unknown", unknown, nil, ErrNoImage},
		} {
			var ins, del error
			switch {
			case c.id == 0:
				continue
			case c.ins != nil:
				ins, del = se.InsertImage(ctx, c.id, shapes), se.DeleteImage(ctx, c.id)
			default:
				del, ins = se.DeleteImage(ctx, c.id), se.InsertImage(ctx, c.id, shapes)
			}
			if !errors.Is(ins, c.ins) || !errors.Is(del, c.del) {
				t.Errorf("%s, %s image %d: insert %v, delete %v; want %v, %v", state, c.place, c.id, ins, del, c.ins, c.del)
			}
		}
	}
	if err := se.InsertImage(ctx, 999, nil); !errors.Is(err, ErrIngestOff) {
		t.Fatalf("insert before enable: %v", err)
	}
	if err := se.DeleteImage(ctx, 999); !errors.Is(err, ErrIngestOff) {
		t.Fatalf("delete before enable: %v", err)
	}
	if err := se.Compact(); !errors.Is(err, ErrIngestOff) {
		t.Fatalf("compact before enable: %v", err)
	}
	crash := errors.New("injected crash at built")
	enableIngest(t, se, t.TempDir(), IngestConfig{crashStage: func(stage string) error {
		if stage != "built" {
			return nil
		}
		if err := se.InsertImage(ctx, 1002, shapes); err != nil {
			t.Fatal(err)
		}
		outcomes("mid-fold", ErrCompacting, f(3), 2001, 1002, 1001, 2002)
		return crash
	}})
	if err := se.EnableIngest(IngestConfig{Dir: t.TempDir()}); err == nil {
		t.Fatal("double EnableIngest succeeded")
	}
	if err := errors.Join(se.InsertImage(ctx, 1001, shapes), se.DeleteImage(ctx, f(2))); err != nil {
		t.Fatal(err)
	}
	outcomes("idle", nil, f(1), 0, 1001, f(2), 2001)
	if err := se.Compact(); !errors.Is(err, crash) {
		t.Fatalf("Compact: %v, want the injected crash", err)
	}
	outcomes("after a failed fold", nil, f(3), 2001, 2002, 1002, 2003)
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := se.InsertImage(cctx, 999, frozenImgs[0].Shapes); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled insert: %v", err)
	}
	// Mismatched directory: a manifest for a different engine is refused.
	other := buildShardedFrom(t, frozenImgs[:4], 3)
	dir := t.TempDir()
	if err := other.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	se2 := buildShardedFrom(t, frozenImgs, 2)
	if err := se2.EnableIngest(IngestConfig{Dir: dir}); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("mismatched dir: %v", err)
	}
}

// TestIngestManifestStability verifies SaveDir on a live engine stays
// loadable and that the WAL file persists alongside the shards.
func TestIngestManifestStability(t *testing.T) {
	images, _, _ := equivBase(t)
	frozenImgs, liveImgs := splitBase(images)
	ctx := context.Background()
	dir := t.TempDir()
	se := buildShardedFrom(t, frozenImgs, 2)
	enableIngest(t, se, dir, IngestConfig{})
	for _, im := range liveImgs {
		if err := se.InsertImage(ctx, im.ID, im.Shapes); err != nil {
			t.Fatal(err)
		}
	}
	if err := se.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, shardFileName(2))); err != nil {
		t.Fatalf("compacted shard file missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, walName)); err != nil {
		t.Fatalf("wal missing: %v", err)
	}
	se.CloseIngest()
	re, rec, err := loadShardedDir(dir, LoadModeHeap)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Complete() {
		t.Fatalf("degraded: %+v", rec)
	}
	if re.NumImages() != se.NumImages() || re.NumShapes() != se.NumShapes() {
		t.Fatalf("reload size mismatch: %d/%d images, %d/%d shapes",
			re.NumImages(), se.NumImages(), re.NumShapes(), se.NumShapes())
	}
}

// TestCloseIngestQuiescesCompaction pins the shutdown/fold interaction:
// CloseIngest must wait out an in-flight compaction — otherwise the
// stale fold's phase 3 would rewrite the MANIFEST.json and DELTA.wal a
// successor engine (server reload-in-place) is already serving, losing
// its acknowledged writes. Once CloseIngest returns, every mutation
// path fails with ErrIngestOff, and the directory reloads to exactly
// the committed state.
func TestCloseIngestQuiescesCompaction(t *testing.T) {
	images, _, _ := equivBase(t)
	frozenImgs, liveImgs := splitBase(images)
	dir := t.TempDir()
	se := buildShardedFrom(t, frozenImgs, 2)
	entered := make(chan struct{})
	release := make(chan struct{})
	enableIngest(t, se, dir, IngestConfig{crashStage: func(s string) error {
		if s == "built" {
			close(entered)
			<-release
		}
		return nil
	}})
	ctx := context.Background()
	for _, im := range liveImgs {
		if err := se.InsertImage(ctx, im.ID, im.Shapes); err != nil {
			t.Fatal(err)
		}
	}
	wantImages, wantShapes := se.NumImages(), se.NumShapes()

	compactDone := make(chan error, 1)
	go func() { compactDone <- se.Compact() }()
	<-entered
	closeDone := make(chan error, 1)
	go func() { closeDone <- se.CloseIngest() }()
	select {
	case err := <-closeDone:
		t.Fatalf("CloseIngest returned (%v) while the fold was still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-compactDone; err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := <-closeDone; err != nil {
		t.Fatalf("CloseIngest: %v", err)
	}
	if err := se.InsertImage(ctx, 424242, liveImgs[0].Shapes); !errors.Is(err, ErrIngestOff) {
		t.Fatalf("insert after close: %v", err)
	}
	if err := se.DeleteImage(ctx, liveImgs[0].ID); !errors.Is(err, ErrIngestOff) {
		t.Fatalf("delete after close: %v", err)
	}
	if err := se.Compact(); !errors.Is(err, ErrIngestOff) {
		t.Fatalf("compact after close: %v", err)
	}

	re, rec, err := loadShardedDir(dir, LoadModeHeap)
	if err != nil {
		t.Fatalf("recovery load: %v", err)
	}
	if !rec.Complete() {
		t.Fatalf("degraded reload: %+v", rec)
	}
	if re.NumImages() != wantImages || re.NumShapes() != wantShapes {
		t.Fatalf("reload size mismatch: %d/%d images, %d/%d shapes",
			re.NumImages(), wantImages, re.NumShapes(), wantShapes)
	}
}

// TestIngestDeltaStatsCountCopies pins the unit and the meaning of the
// delta's share of Stats.Candidates: normalized copies that reached the
// exact evaluator, as on a frozen shard — not shapes held. With every
// frozen image tombstoned the delta is the only part that evaluates
// anything. Asked for more than it holds there is no k-th best, pass 2
// scores every shape, each shape's copies are cut only by the shape's own
// best so far, and more copies than shapes are scored; under the running
// k-th of k = 3 the floors stop pass 2 early and the distance field turns
// most of the rest away. Once compacted away the delta is no part at all.
func TestIngestDeltaStatsCountCopies(t *testing.T) {
	images, queries, _ := equivBase(t)
	frozenImgs, liveImgs := splitBase(images)
	ctx := context.Background()
	se := buildLive(t, frozenImgs, liveImgs, 2, IngestConfig{})
	for _, im := range frozenImgs {
		if err := se.DeleteImage(ctx, im.ID); err != nil {
			t.Fatalf("DeleteImage(%d): %v", im.ID, err)
		}
	}
	v := se.snapshot()
	copies, shapes := v.active.NumEntries(), v.log.liveShapes(v.activeSlot())
	if ds := v.deltas(); len(ds) != 1 || copies <= shapes {
		t.Fatalf("want one delta holding several copies per shape, have %d deltas", len(ds))
	}
	all, err := se.Search(ctx, SearchRequest{Query: queries[0], K: shapes + 1, Mode: ModeExact})
	if err != nil {
		t.Fatal(err)
	}
	if unbounded := all.Stats.Candidates; len(all.Matches) != shapes || unbounded <= shapes || unbounded > copies {
		t.Fatalf("unbounded: %d matches, Candidates = %d, want more than the delta's %d shapes and at most its %d copies",
			len(all.Matches), unbounded, shapes, copies)
	}
	for _, mode := range []Mode{ModeExact, ModeAuto} {
		got, err := se.Search(ctx, SearchRequest{Query: queries[0], K: 3, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if c := got.Stats.Candidates; len(got.Matches) != 3 || c < 3 || c >= all.Stats.Candidates {
			t.Fatalf("%v: %d matches, Candidates = %d, want at least the 3 returned and fewer than the unbounded scan's %d (of %d copies)",
				mode, len(got.Matches), c, all.Stats.Candidates, copies)
		}
	}
	if err := se.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := len(se.snapshot().parts()); n != se.NumShards() {
		t.Fatalf("%d parts over %d shards: an empty delta still counts as a part", n, se.NumShards())
	}
}
