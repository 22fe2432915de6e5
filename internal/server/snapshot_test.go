package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	geosir "repro"
	"repro/internal/mmap"
)

// TestSnapshotFormatAndSize pins what the daemon reports about the
// snapshot it serves. Each committed golden (GSIR1, GSIR2, GSIR3) served
// as a file, and a 4-shard directory, is loaded through /admin/reload in
// heap and in mmap mode. The reload response's "format" and /statz's
// snapshot.format name the format the shard files hold, "-SHARDED"
// appended for a directory; snapshot.size_bytes is a file's size and
// absent for a directory. Mmap mode serves in place only a GSIR3 file on
// a build that can map and cast; everything else falls back to the heap
// ("load_mode": "heap") and answers byte for byte as the heap load does.
func TestSnapshotFormatAndSize(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	if err := testSharded(t, 4).SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	golden := func(name string) string { return filepath.Join("..", "..", "testdata", name) }
	mapped := mmap.Supported() && mmap.CanCast()
	for _, tc := range []struct {
		name, path, format string
		inPlace            bool // mmap mode serves the sections in place
	}{
		{"gsir1", golden("gsir1/base.gsir1"), "GSIR1", false},
		{"gsir2", golden("gsir2/base.gsir2"), "GSIR2", false},
		{"gsir3", golden("gsir3/kdtree.gsir3"), "GSIR3", true},
		{"dir4", dir, "GSIR3-SHARDED", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var size int64
			if fi, err := os.Stat(tc.path); err != nil {
				t.Fatal(err)
			} else if !fi.IsDir() {
				size = fi.Size()
			}
			var heapBody string
			for _, mode := range []geosir.LoadMode{geosir.LoadModeHeap, geosir.LoadModeMmap} {
				ts := httptest.NewServer(New(Config{LoadMode: mode}).Handler())
				defer ts.Close()
				resp, raw := post(t, ts.URL+"/admin/reload", map[string]string{"path": tc.path})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%v: reload: %d %s", mode, resp.StatusCode, raw)
				}
				var rl struct {
					Format string `json:"format"`
				}
				if err := json.Unmarshal(raw, &rl); err != nil {
					t.Fatal(err)
				}
				if rl.Format != tc.format {
					t.Errorf("%v: reload format %q, want %q", mode, rl.Format, tc.format)
				}

				_, raw = get(t, ts.URL+"/statz")
				var stz struct {
					Snapshot struct {
						Format    string `json:"format"`
						SizeBytes int64  `json:"size_bytes"`
					} `json:"snapshot"`
					Storage struct {
						LoadMode string `json:"load_mode"`
					} `json:"storage"`
				}
				if err := json.Unmarshal(raw, &stz); err != nil {
					t.Fatal(err)
				}
				if stz.Snapshot.Format != tc.format || stz.Snapshot.SizeBytes != size {
					t.Errorf("%v: statz snapshot format %q size %d, want %q %d",
						mode, stz.Snapshot.Format, stz.Snapshot.SizeBytes, tc.format, size)
				}
				want := "heap"
				if mode == geosir.LoadModeMmap && tc.inPlace && mapped {
					want = "mmap"
				}
				if stz.Storage.LoadMode != want {
					t.Errorf("%v: load_mode %q, want %q", mode, stz.Storage.LoadMode, want)
				}

				resp, raw = post(t, ts.URL+"/v1/search", map[string]any{"shape": wireSquare(), "k": 3, "mode": "exact"})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%v: search: %d %s", mode, resp.StatusCode, raw)
				}
				if mode == geosir.LoadModeHeap {
					heapBody = string(raw)
				} else if string(raw) != heapBody {
					t.Errorf("mmap answer differs from heap\nheap: %s\nmmap: %s", heapBody, raw)
				}
			}
		})
	}
}
