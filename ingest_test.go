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

// TestIngestEquivalence pins the delta's exactness: a sharded engine
// frozen over 70% of the base with the remaining 30% live-inserted
// answers byte-identically to a single engine built over everything —
// with the delta live, and again after Compact folds it into a frozen
// shard. Global shape ids must line up too: the delta reserves them in
// insertion order exactly as a from-scratch build would.
func TestIngestEquivalence(t *testing.T) {
	images, queries, sketch := equivBase(t)
	frozenImgs, liveImgs := splitBase(images)
	single := buildSingle(t, images)

	for _, shards := range []int{1, 2, 7} {
		se := buildLive(t, frozenImgs, liveImgs, shards, IngestConfig{})
		if se.NumImages() != single.NumImages() || se.NumShapes() != single.NumShapes() {
			t.Fatalf("shards=%d: size mismatch: %d/%d images, %d/%d shapes",
				shards, se.NumImages(), single.NumImages(), se.NumShapes(), single.NumShapes())
		}
		assertSearchEquivalent(t, fmt.Sprintf("shards=%d delta", shards), single, se, queries, sketch)

		if err := se.Compact(); err != nil {
			t.Fatalf("shards=%d: Compact: %v", shards, err)
		}
		st := se.IngestStats()
		if st.DeltaShapes != 0 || st.SealedShapes != 0 || st.Compactions != 1 {
			t.Fatalf("shards=%d: post-compaction stats: %+v", shards, st)
		}
		assertSearchEquivalent(t, fmt.Sprintf("shards=%d compacted", shards), single, se, queries, sketch)
	}
}

// TestIngestDeleteEquivalence checks deletes against a reference engine
// built without the deleted images. Global ids shift (the live engine
// keeps reservations for deleted images), so matches compare on
// (ImageID, Distance) rather than byte-identity.
func TestIngestDeleteEquivalence(t *testing.T) {
	images, queries, _ := equivBase(t)
	frozenImgs, liveImgs := splitBase(images)
	ctx := context.Background()

	// Delete one frozen image and one delta image.
	delFrozen := frozenImgs[len(frozenImgs)/2].ID
	delDelta := liveImgs[len(liveImgs)/2].ID

	var kept []synth.Image
	for _, im := range images {
		if im.ID != delFrozen && im.ID != delDelta {
			kept = append(kept, im)
		}
	}
	ref := buildSingle(t, kept)

	for _, shards := range []int{1, 2, 7} {
		se := buildLive(t, frozenImgs, liveImgs, shards, IngestConfig{})
		for _, id := range []int{delFrozen, delDelta} {
			if err := se.DeleteImage(ctx, id); err != nil {
				t.Fatalf("shards=%d: DeleteImage(%d): %v", shards, id, err)
			}
		}
		if err := se.DeleteImage(ctx, delFrozen); !errors.Is(err, ErrNoImage) {
			t.Fatalf("shards=%d: double delete: got %v, want ErrNoImage", shards, err)
		}
		if se.NumImages() != ref.NumImages() || se.NumShapes() != ref.NumShapes() {
			t.Fatalf("shards=%d: size mismatch after delete: %d/%d images, %d/%d shapes",
				shards, se.NumImages(), ref.NumImages(), se.NumShapes(), ref.NumShapes())
		}
		for _, compacted := range []bool{false, true} {
			if compacted {
				if err := se.Compact(); err != nil {
					t.Fatalf("shards=%d: Compact: %v", shards, err)
				}
			}
			label := fmt.Sprintf("shards=%d compacted=%v", shards, compacted)
			for _, k := range []int{1, 3, se.NumShapes() + 5} {
				for qi, q := range queries {
					// ModeExact and ModeAuto run with the tombstone present:
					// once as a width-1 walk, once with pass 1 fanned out.
					for _, c := range []struct {
						mode Mode
						exec ExecPolicy
					}{{ModeExact, ExecSequential}, {ModeExact, ExecFanout}, {ModeAuto, ExecSequential}, {ModeAuto, ExecFanout}, {ModeApproximate, ExecAuto}} {
						mode := c.mode
						w, err := ref.Search(ctx, SearchRequest{Query: q, K: k, Mode: mode})
						if err != nil {
							t.Fatalf("%s: reference q%d: %v", label, qi, err)
						}
						g, err := se.Search(ctx, SearchRequest{Query: q, K: k, Mode: mode, Exec: c.exec})
						if err != nil {
							t.Fatalf("%s: live q%d: %v", label, qi, err)
						}
						if len(w.Matches) != len(g.Matches) {
							t.Fatalf("%s q%d k=%d %v: %d vs %d matches", label, qi, k, mode, len(g.Matches), len(w.Matches))
						}
						for i := range w.Matches {
							if w.Matches[i].ImageID != g.Matches[i].ImageID || w.Matches[i].Distance != g.Matches[i].Distance {
								t.Fatalf("%s q%d k=%d %v: match %d diverges: got (%d, %g), want (%d, %g)",
									label, qi, k, mode, i,
									g.Matches[i].ImageID, g.Matches[i].Distance,
									w.Matches[i].ImageID, w.Matches[i].Distance)
							}
							if g.Matches[i].ImageID == delFrozen || g.Matches[i].ImageID == delDelta {
								t.Fatalf("%s q%d: deleted image %d surfaced", label, qi, g.Matches[i].ImageID)
							}
						}
					}
				}
			}
		}
	}
}

// TestIngestReinsertAfterDelete exercises the id-reuse path: a deleted
// image id may be re-inserted with different shapes, gets fresh global
// ids, and the stale frozen copy never resurfaces — including after the
// reinsertion is itself compacted (a dead copy in one shard, a live one
// in another).
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
}

// TestIngestMidCompactionQueries runs the full equivalence sweep from
// inside the compaction (after the sealed delta is published, before
// the swap) — queries must answer identically from the {frozen, sealed,
// active} view.
func TestIngestMidCompactionQueries(t *testing.T) {
	images, queries, sketch := equivBase(t)
	frozenImgs, liveImgs := splitBase(images)
	single := buildSingle(t, images)

	var se *ShardedEngine
	checked := false
	cfg := IngestConfig{CrashStage: func(stage string) error {
		if stage != "built" || checked {
			return nil
		}
		checked = true
		st := se.IngestStats()
		if st.SealedShapes == 0 {
			t.Errorf("mid-compaction: sealed delta empty: %+v", st)
		}
		assertSearchEquivalent(t, "mid-compaction", single, se, queries, sketch)
		return nil
	}}
	se = buildLive(t, frozenImgs, liveImgs, 2, cfg)
	if err := se.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if !checked {
		t.Fatal("CrashStage hook never ran")
	}
	assertSearchEquivalent(t, "post-compaction", single, se, queries, sketch)
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

	re, rec, err := LoadShardedDir(dir)
	if err != nil {
		t.Fatalf("LoadShardedDir: %v", err)
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

// TestIngestCrashMidCompaction is the acceptance-criteria test: abort
// the compaction at every stage of its protocol (plus a manifest-write
// fault), "crash" by abandoning the engine, recover the directory with
// LoadShardedDir + EnableIngest, and verify every acknowledged write is
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
			cfg := IngestConfig{CrashStage: func(s string) error {
				if s == stage {
					return crashErr
				}
				return nil
			}}
			if stage == "manifest-fault" {
				cfg = IngestConfig{WrapManifest: func(w io.Writer) io.Writer {
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

			re, rec, lerr := LoadShardedDir(dir)
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
	cfg := IngestConfig{WrapManifest: func(w io.Writer) io.Writer {
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
	cfg := IngestConfig{WrapWAL: func(w io.Writer) io.Writer {
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

// TestIngestErrors covers the refusal paths.
func TestIngestErrors(t *testing.T) {
	images, _, _ := equivBase(t)
	frozenImgs, _ := splitBase(images)
	ctx := context.Background()

	se := buildShardedFrom(t, frozenImgs, 2)
	if err := se.InsertImage(ctx, 999, nil); !errors.Is(err, ErrIngestOff) {
		t.Fatalf("insert before enable: %v", err)
	}
	if err := se.DeleteImage(ctx, 999); !errors.Is(err, ErrIngestOff) {
		t.Fatalf("delete before enable: %v", err)
	}
	if err := se.Compact(); !errors.Is(err, ErrIngestOff) {
		t.Fatalf("compact before enable: %v", err)
	}
	enableIngest(t, se, t.TempDir(), IngestConfig{})
	if err := se.EnableIngest(IngestConfig{Dir: t.TempDir()}); err == nil {
		t.Fatal("double EnableIngest succeeded")
	}
	if err := se.InsertImage(ctx, frozenImgs[0].ID, frozenImgs[0].Shapes); !errors.Is(err, ErrImageExists) {
		t.Fatalf("duplicate insert: %v", err)
	}
	if err := se.DeleteImage(ctx, -12345); !errors.Is(err, ErrNoImage) {
		t.Fatalf("delete unknown: %v", err)
	}
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
	re, rec, err := LoadShardedDir(dir)
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
	enableIngest(t, se, dir, IngestConfig{CrashStage: func(s string) error {
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

	re, rec, err := LoadShardedDir(dir)
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
	if ds := v.deltas(); len(ds) != 1 || ds[0].NumEntries() <= ds[0].NumShapes() {
		t.Fatalf("want one delta holding several copies per shape, have %d deltas", len(ds))
	}
	copies, shapes := v.active.NumEntries(), v.active.NumShapes()
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
	if ds := se.snapshot().deltas(); len(ds) != 0 {
		t.Fatalf("an empty delta still counts as %d parts", len(ds))
	}
}
