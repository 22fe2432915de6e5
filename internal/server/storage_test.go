package server

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	geosir "repro"
	"repro/internal/mmap"
)

// TestLoadModeMmapServing proves the serving path end to end in mmap
// mode: a GSIR3 snapshot loaded with Config.LoadMode = LoadModeMmap
// answers identically to the heap-loaded server, and /statz reports the
// storage section as mapped.
func TestLoadModeMmapServing(t *testing.T) {
	if !mmap.Supported() || !mmap.CanCast() {
		t.Skip("mmap serving not supported on this platform/build")
	}
	path := filepath.Join(t.TempDir(), "base.gsir3")
	if err := testEngine(t).SaveFile(path); err != nil {
		t.Fatalf("SaveFileAs: %v", err)
	}

	heapSrv := New(Config{})
	if _, err := heapSrv.LoadSnapshot(path); err != nil {
		t.Fatalf("heap load: %v", err)
	}
	mmapSrv := New(Config{LoadMode: geosir.LoadModeMmap})
	if _, err := mmapSrv.LoadSnapshot(path); err != nil {
		t.Fatalf("mmap load: %v", err)
	}

	hs, ms := heapSrv.Statz(), mmapSrv.Statz()
	if hs.Storage == nil || hs.Storage.LoadMode != "heap" || hs.Storage.MappedBytes != 0 {
		t.Errorf("heap storage section = %+v", hs.Storage)
	}
	if ms.Storage == nil || ms.Storage.LoadMode != "mmap" || ms.Storage.MappedBytes == 0 {
		t.Errorf("mmap storage section = %+v", ms.Storage)
	}

	// Identical queries against both servers must produce identical
	// responses (matches AND stats, block accounting included).
	ctx := context.Background()
	for _, req := range []geosir.SearchRequest{
		{Query: geosir.NewPolygon(geosir.Pt(0, 0), geosir.Pt(12, 0), geosir.Pt(12, 12), geosir.Pt(0, 12)), K: 3, Mode: geosir.ModeAuto},
		{Query: geosir.NewPolygon(geosir.Pt(0, 0), geosir.Pt(12, 0), geosir.Pt(12, 12), geosir.Pt(0, 12)), K: 2, Mode: geosir.ModeApproximate},
	} {
		want, werr := heapSrv.Serving().Search(ctx, req)
		got, gerr := mmapSrv.Serving().Search(ctx, req)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("mode=%v: errors differ: %v vs %v", req.Mode, werr, gerr)
		}
		if werr != nil {
			continue
		}
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(got)
		if string(wb) != string(gb) {
			t.Errorf("mode=%v: responses differ\nheap: %s\nmmap: %s", req.Mode, wb, gb)
		}
	}
}
