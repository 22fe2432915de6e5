// Command geosir-smoke probes a running geosird end to end for the
// Makefile's daemon smoke legs: liveness, readiness, one /v1/search per
// mode plus /v1/topological, optional /statz assertions (shard health,
// load mode), and the live-ingestion loop. It exits 0 when every probe
// passes and 1 otherwise. Performance is measured by the benchmark
// (bench/), not here.
//
//	geosir-smoke -addr http://127.0.0.1:8080 -smoke   # readiness probe + one query of each kind
//	geosir-smoke -addr http://127.0.0.1:8080 -smoke -expect-shards 4   # also assert shard health
//	geosir-smoke -addr http://127.0.0.1:8080 -smoke -expect-load-mode mmap   # also assert the storage mode
//	geosir-smoke -addr http://127.0.0.1:8080 -ingest-smoke   # insert → query → compact → query → delete
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", "http://127.0.0.1:8080", "geosird base URL")
		wait        = flag.Duration("wait", 0, "poll /readyz up to this long before starting")
		smoke       = flag.Bool("smoke", false, "probe healthz, readyz, /v1/search in every mode and /v1/topological; exit 0/1")
		expShards   = flag.Int("expect-shards", 0, "with -smoke: require /statz to report exactly N live shards")
		expLoadMode = flag.String("expect-load-mode", "", "with -smoke: require /statz storage to report this load mode (heap or mmap; mmap also requires mapped bytes)")
		ingestSmoke = flag.Bool("ingest-smoke", false, "probe live ingestion: insert → query → compact → query → delete; exit 0/1")
	)
	flag.Parse()
	if err := run(*addr, *wait, *smoke, *expShards, *expLoadMode, *ingestSmoke); err != nil {
		fmt.Fprintln(os.Stderr, "geosir-smoke:", err)
		os.Exit(1)
	}
}

func run(addr string, wait time.Duration, smoke bool, expShards int, expLoadMode string, ingestSmoke bool) error {
	if !smoke && !ingestSmoke {
		return fmt.Errorf("need -smoke or -ingest-smoke")
	}
	addr = strings.TrimRight(addr, "/")
	client := &http.Client{Timeout: 30 * time.Second}
	if err := waitReady(client, addr, wait); err != nil {
		return err
	}
	if ingestSmoke {
		return runIngestSmoke(client, addr)
	}
	return runSmoke(client, addr, expShards, expLoadMode)
}

func waitReady(client *http.Client, addr string, wait time.Duration) error {
	if wait <= 0 {
		return nil
	}
	deadline := time.Now().Add(wait)
	for {
		resp, err := client.Get(addr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("server not ready after %v: %v", wait, err)
			}
			return fmt.Errorf("server not ready after %v", wait)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// getStatz fetches and decodes the daemon's /statz document.
func getStatz(client *http.Client, addr string) (server.Statz, error) {
	var st server.Statz
	resp, err := client.Get(addr + "/statz")
	if err != nil {
		return st, fmt.Errorf("/statz: %w", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		return st, fmt.Errorf("/statz: %d %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("/statz: %w", err)
	}
	return st, nil
}

// checkShards asserts that the server is backed by a sharded snapshot
// with exactly expect live, undropped shards.
func checkShards(st server.Statz, expect int) error {
	if st.Snapshot == nil || len(st.Snapshot.Shards) == 0 {
		return fmt.Errorf("expected %d shards, but /statz reports no sharded snapshot", expect)
	}
	if got := len(st.Snapshot.Shards); got != expect {
		return fmt.Errorf("expected %d shards, /statz reports %d", expect, got)
	}
	for _, sh := range st.Snapshot.Shards {
		if sh.Dropped {
			return fmt.Errorf("shard %d dropped: %s", sh.Shard, sh.Error)
		}
		if sh.Shapes > 0 && !sh.Live {
			return fmt.Errorf("shard %d has %d shapes but is not live", sh.Shard, sh.Shapes)
		}
	}
	fmt.Printf("%-16s ok (%d shards live)\n", "/statz", expect)
	return nil
}

// checkLoadMode asserts that the snapshot is served in the expected
// storage mode. An mmap expectation also requires a nonzero mapped
// footprint — "mmap" with nothing mapped means the daemon fell back to
// heap decoding without saying so.
func checkLoadMode(st server.Statz, expect string) error {
	if st.Storage == nil {
		return fmt.Errorf("expected load mode %q, but /statz reports no storage section", expect)
	}
	if st.Storage.LoadMode != expect {
		return fmt.Errorf("expected load mode %q, /statz reports %q", expect, st.Storage.LoadMode)
	}
	if expect == "mmap" && st.Storage.MappedBytes <= 0 {
		return fmt.Errorf("load mode is mmap but /statz reports %d mapped bytes", st.Storage.MappedBytes)
	}
	fmt.Printf("%-16s ok (load mode %s, %d bytes mapped)\n", "/statz", expect, st.Storage.MappedBytes)
	return nil
}

// probeShape and probeShape2 are the fixed query shapes of both smokes.
var (
	probeShape = server.WireShape{Closed: true,
		Points: [][2]float64{{0, 0}, {9, 0}, {11, 5}, {4.5, 9}, {-2, 5}}}
	probeShape2 = server.WireShape{Closed: true,
		Points: [][2]float64{{0, 0}, {4, 0}, {4, 2}, {2, 2}, {2, 6}, {0, 6}}}
)

// queryProbes is the daemon's whole query surface: /v1/search once per
// mode, and /v1/topological.
var queryProbes = []struct {
	name, path string
	body       map[string]any
}{
	{"search auto", "/v1/search", map[string]any{"shape": probeShape, "k": 3, "mode": "auto"}},
	{"search exact", "/v1/search", map[string]any{"shape": probeShape, "k": 3, "mode": "exact"}},
	{"search approx", "/v1/search", map[string]any{"shape": probeShape, "k": 3, "mode": "approximate"}},
	{"search sketch", "/v1/search", map[string]any{"shapes": []server.WireShape{probeShape, probeShape2}, "k": 3, "mode": "sketch"}},
	{"topological", "/v1/topological", map[string]any{"query": "similar(q)", "binds": map[string]server.WireShape{"q": probeShape}}},
}

func runSmoke(client *http.Client, addr string, expShards int, expLoadMode string) error {
	for _, probe := range []string{"/healthz", "/readyz"} {
		resp, err := client.Get(addr + probe)
		if err != nil {
			return fmt.Errorf("%s: %w", probe, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			return fmt.Errorf("%s: %d %s", probe, resp.StatusCode, bytes.TrimSpace(body))
		}
		fmt.Printf("%-16s ok\n", probe)
	}
	for _, p := range queryProbes {
		blob, err := json.Marshal(p.body)
		if err != nil {
			return err
		}
		resp, err := client.Post(addr+p.path, "application/json", bytes.NewReader(blob))
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			return fmt.Errorf("%s: %s: %d %s", p.name, p.path, resp.StatusCode, bytes.TrimSpace(body))
		}
		fmt.Printf("%-16s ok (%d bytes)\n", p.name, len(body))
	}
	if expShards > 0 || expLoadMode != "" {
		st, err := getStatz(client, addr)
		if err != nil {
			return err
		}
		if expShards > 0 {
			if err := checkShards(st, expShards); err != nil {
				return err
			}
		}
		if expLoadMode != "" {
			if err := checkLoadMode(st, expLoadMode); err != nil {
				return err
			}
		}
	}
	fmt.Println("smoke ok")
	return nil
}

// runIngestSmoke probes the live-ingestion loop end to end: insert a
// uniquely shaped image, query it back, fold it with /admin/compact,
// query it again off the frozen shard, then delete it and verify it is
// gone — each query both a search and a topological similar(q). Any prior leftover of the probe id is deleted first so the probe
// is re-runnable against a long-lived server.
func runIngestSmoke(client *http.Client, addr string) error {
	const probeID = 987654321

	do := func(step, method, path string, body any) (int, []byte, error) {
		var rd io.Reader
		if body != nil {
			blob, err := json.Marshal(body)
			if err != nil {
				return 0, nil, err
			}
			rd = bytes.NewReader(blob)
		}
		req, err := http.NewRequest(method, addr+path, rd)
		if err != nil {
			return 0, nil, err
		}
		if rd != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, fmt.Errorf("%s: %w", step, err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, out, nil
	}
	expectTop := func(step string, want int) error {
		status, body, err := do(step, http.MethodPost, "/v1/search",
			map[string]any{"shape": probeShape, "k": 1, "mode": "exact"})
		if err != nil {
			return err
		}
		if status != 200 {
			return fmt.Errorf("%s: /v1/search: %d %s", step, status, bytes.TrimSpace(body))
		}
		var sr struct {
			Matches []struct {
				ImageID int `json:"image_id"`
			} `json:"matches"`
		}
		if err := json.Unmarshal(body, &sr); err != nil {
			return fmt.Errorf("%s: %w", step, err)
		}
		got := -1
		if len(sr.Matches) > 0 {
			got = sr.Matches[0].ImageID
		}
		if want >= 0 && got != want {
			return fmt.Errorf("%s: top match is image %d, want %d", step, got, want)
		}
		if want < 0 && got == probeID {
			return fmt.Errorf("%s: deleted probe image still served", step)
		}
		fmt.Printf("%-16s ok\n", step)
		return nil
	}
	// expectTopo asks /v1/topological for similar(q) over the probe shape:
	// the probe image is in the answer exactly when it is live.
	expectTopo := func(step string, live bool) error {
		status, body, err := do(step, http.MethodPost, "/v1/topological",
			map[string]any{"query": "similar(q)", "binds": map[string]server.WireShape{"q": probeShape}})
		if err != nil {
			return err
		}
		if status != 200 {
			return fmt.Errorf("%s: /v1/topological: %d %s", step, status, bytes.TrimSpace(body))
		}
		var tr struct {
			Images []int `json:"images"`
		}
		if err := json.Unmarshal(body, &tr); err != nil {
			return fmt.Errorf("%s: %w", step, err)
		}
		if slices.Contains(tr.Images, probeID) != live {
			return fmt.Errorf("%s: probe image in the topological answer: %v, want %v", step, !live, live)
		}
		fmt.Printf("%-16s ok\n", step)
		return nil
	}

	do("cleanup", http.MethodDelete, fmt.Sprintf("/v1/images/%d", probeID), nil)
	status, body, err := do("insert", http.MethodPost, "/v1/images",
		map[string]any{"id": probeID, "shapes": []server.WireShape{probeShape}})
	if err != nil {
		return err
	}
	if status != 200 {
		return fmt.Errorf("insert: %d %s (is geosird running with -ingest on a snapshot directory?)", status, bytes.TrimSpace(body))
	}
	fmt.Printf("%-16s ok\n", "insert")
	if err := expectTop("query-delta", probeID); err != nil {
		return err
	}
	if err := expectTopo("topo-delta", true); err != nil {
		return err
	}
	if status, body, err = do("compact", http.MethodPost, "/admin/compact", nil); err != nil {
		return err
	} else if status != 200 {
		return fmt.Errorf("compact: %d %s", status, bytes.TrimSpace(body))
	}
	fmt.Printf("%-16s ok\n", "compact")
	if err := expectTop("query-frozen", probeID); err != nil {
		return err
	}
	if err := expectTopo("topo-frozen", true); err != nil {
		return err
	}
	if status, body, err = do("delete", http.MethodDelete, fmt.Sprintf("/v1/images/%d", probeID), nil); err != nil {
		return err
	} else if status != 200 {
		return fmt.Errorf("delete: %d %s", status, bytes.TrimSpace(body))
	}
	fmt.Printf("%-16s ok\n", "delete")
	if err := expectTop("query-deleted", -1); err != nil {
		return err
	}
	if err := expectTopo("topo-deleted", false); err != nil {
		return err
	}
	fmt.Println("ingest smoke ok")
	return nil
}
