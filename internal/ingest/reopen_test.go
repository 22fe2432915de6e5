package ingest_test

import (
	"context"
	"errors"
	"testing"

	geosir "repro"
	"repro/internal/ingest"
	"repro/internal/synth"
)

// TestRewriteReopenFailureLosesNoAck: when the WAL cannot reopen the log
// a compaction rewrote, the compaction reports it, and no later write is
// acknowledged until an append reaches the file at the log's path — so an
// engine restarted from the directory holds every acknowledged write.
func TestRewriteReopenFailureLosesNoAck(t *testing.T) {
	images := synth.GenerateBase(synth.PaperSpec(0.002, 41))
	cut := len(images) / 2
	se := geosir.NewSharded(geosir.DefaultOptions(), 2)
	for _, im := range images[:cut] {
		if err := se.AddImage(im.ID, im.Shapes); err != nil {
			t.Fatal(err)
		}
	}
	if err := se.Freeze(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := se.EnableIngest(geosir.IngestConfig{Dir: dir, CompactThreshold: -1}); err != nil {
		t.Fatal(err)
	}
	defer se.CloseIngest()
	ctx := context.Background()
	live, acked := images[cut:], map[int]bool{}
	for _, im := range live[:2] {
		if err := se.InsertImage(ctx, im.ID, im.Shapes); err != nil {
			t.Fatal(err)
		}
		acked[im.ID] = true
	}

	injected := errors.New("injected reopen failure")
	restore := ingest.FailOpens(injected)
	if err := se.Compact(); !errors.Is(err, injected) {
		restore()
		t.Fatalf("Compact with a failing reopen: %v", err)
	}
	for _, im := range live[2:4] {
		if err := se.InsertImage(ctx, im.ID, im.Shapes); !errors.Is(err, injected) {
			restore()
			t.Fatalf("an insert while the log cannot reopen: %v", err)
		}
	}
	restore()
	for _, im := range live[4:] {
		if err := se.InsertImage(ctx, im.ID, im.Shapes); err != nil {
			t.Fatal(err)
		}
		acked[im.ID] = true
	}
	if err := se.DeleteImage(ctx, live[0].ID); err != nil {
		t.Fatal(err)
	}
	delete(acked, live[0].ID)
	if err := se.CloseIngest(); err != nil {
		t.Fatal(err)
	}

	loaded, rec, err := geosir.LoadAnyMode(dir, geosir.LoadModeHeap)
	if err != nil || !rec.Complete() {
		t.Fatalf("restart: %v, recovery %+v", err, rec)
	}
	re := loaded.(*geosir.ShardedEngine)
	if err := re.EnableIngest(geosir.IngestConfig{Dir: dir, CompactThreshold: -1}); err != nil {
		t.Fatal(err)
	}
	defer re.CloseIngest()
	if got, want := re.NumImages(), cut+len(acked); got != want {
		t.Fatalf("restarted engine holds %d images, want %d", got, want)
	}
	for _, im := range live {
		err := re.InsertImage(ctx, im.ID, im.Shapes)
		if held := errors.Is(err, geosir.ErrImageExists); held != acked[im.ID] {
			t.Fatalf("image %d: acknowledged %v, held after restart %v (%v)", im.ID, acked[im.ID], held, err)
		}
	}
}
