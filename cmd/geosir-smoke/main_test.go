package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	geosir "repro"
	"repro/internal/server"
	"repro/internal/synth"
)

// startSharded serves a small sharded engine over httptest.
func startSharded(t *testing.T, shards int) (*server.Server, *httptest.Server) {
	t.Helper()
	se := geosir.NewSharded(geosir.DefaultOptions(), shards)
	spec := synth.PaperSpec(0.002, 11)
	spec.Images = 12
	for _, img := range synth.GenerateBase(spec) {
		valid := img.Shapes[:0]
		for _, sh := range img.Shapes {
			if sh.Validate() == nil {
				valid = append(valid, sh)
			}
		}
		if len(valid) == 0 {
			continue
		}
		if err := se.AddImage(img.ID, valid); err != nil {
			t.Fatal(err)
		}
	}
	if err := se.Freeze(); err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{})
	if err := s.SetServing(se, "(smoke-test)"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestSmokeAgainstShardedServer(t *testing.T) {
	s, ts := startSharded(t, 3)
	// Full smoke including the shard-health and load-mode probes.
	if err := run(ts.URL, 0, true, 3, "heap", false); err != nil {
		t.Fatalf("smoke: %v", err)
	}
	// The smoke covers the whole query surface: /v1/search once per mode
	// (the response echoes the mode it ran) plus /v1/topological.
	eps := s.Statz().Endpoints
	if got := eps["search"]; got.Requests != 4 || got.Status4x+got.Status5x != 0 {
		t.Fatalf("search endpoint after smoke = %+v, want 4 clean requests", got)
	}
	if got := eps["topological"]; got.Requests != 1 || got.Status4x+got.Status5x != 0 {
		t.Fatalf("topological endpoint after smoke = %+v, want 1 clean request", got)
	}
	modes := map[string]bool{}
	for _, p := range queryProbes {
		if p.path == "/v1/search" {
			modes[p.body["mode"].(string)] = true
		}
	}
	for _, mode := range []geosir.Mode{geosir.ModeAuto, geosir.ModeExact, geosir.ModeApproximate, geosir.ModeSketch} {
		if !modes[mode.String()] {
			t.Errorf("smoke does not probe /v1/search in mode %v", mode)
		}
	}
	// Wrong expectations must fail.
	if err := run(ts.URL, 0, true, 5, "", false); err == nil {
		t.Fatal("expect-shards mismatch should fail the smoke")
	} else if !strings.Contains(err.Error(), "shards") {
		t.Fatalf("unexpected error: %v", err)
	}
	if err := run(ts.URL, 0, true, 0, "mmap", false); err == nil {
		t.Fatal("expect-load-mode mismatch should fail the smoke")
	}
	// No probe selected is a usage error.
	if err := run(ts.URL, 0, false, 0, "", false); err == nil {
		t.Fatal("run with neither -smoke nor -ingest-smoke should fail")
	}
}

// TestCheckShardsRejectsUnsharded: a server of one shard — what a
// snapshot file serves as — reports one shard row, so it fails a
// two-shard expectation and passes a one-shard one.
func TestCheckShardsRejectsUnsharded(t *testing.T) {
	eng := geosir.NewSharded(geosir.DefaultOptions(), 1)
	spec := synth.PaperSpec(0.002, 11)
	spec.Images = 6
	for _, img := range synth.GenerateBase(spec) {
		valid := img.Shapes[:0]
		for _, sh := range img.Shapes {
			if sh.Validate() == nil {
				valid = append(valid, sh)
			}
		}
		if len(valid) == 0 {
			continue
		}
		if err := eng.AddImage(img.ID, valid); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Freeze(); err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{})
	if err := s.SetServing(eng, "(single)"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	st, err := getStatz(http.DefaultClient, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkShards(st, 2); err == nil {
		t.Fatal("a one-shard server should fail a two-shard expectation")
	}
	if err := checkShards(st, 1); err != nil {
		t.Fatalf("a one-shard server fails a one-shard expectation: %v", err)
	}
}

// startIngest serves a sharded snapshot directory with live ingestion
// enabled, as geosird -ingest would.
func startIngest(t *testing.T) *httptest.Server {
	t.Helper()
	se := geosir.NewSharded(geosir.DefaultOptions(), 2)
	spec := synth.PaperSpec(0.002, 11)
	spec.Images = 12
	for _, img := range synth.GenerateBase(spec) {
		valid := img.Shapes[:0]
		for _, sh := range img.Shapes {
			if sh.Validate() == nil {
				valid = append(valid, sh)
			}
		}
		if len(valid) == 0 {
			continue
		}
		if err := se.AddImage(img.ID, valid); err != nil {
			t.Fatal(err)
		}
	}
	if err := se.Freeze(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := se.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{Ingest: &server.IngestOptions{CompactThreshold: -1, NoSync: true}})
	if _, err := s.LoadSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestIngestSmoke(t *testing.T) {
	ts := startIngest(t)
	if err := run(ts.URL, 0, false, 0, "", true); err != nil {
		t.Fatalf("ingest smoke: %v", err)
	}
	// Read-only server: the smoke must fail with the insert refused.
	_, ro := startSharded(t, 2)
	if err := run(ro.URL, 0, false, 0, "", true); err == nil {
		t.Fatal("ingest smoke should fail against a read-only server")
	}
}
