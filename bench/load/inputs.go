// Package load is the end-to-end half of the GeoSIR benchmark: the four
// workload definitions, their seeded inputs, the in-process daemon they
// run against, the closed-loop clients, and the report schema. It imports
// only repro, repro/internal/server and repro/internal/synth, so a
// refactor of any other internal package cannot stop the end-to-end
// numbers from being produced; the probes that reach into the layers live
// in ../layers.
package load

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	geosir "repro"
	"repro/internal/server"
	"repro/internal/synth"
)

const (
	// BaseSeed fixes the image base: it is `geosir -demo 200`'s default
	// base, identical on every run. --seed drives the traffic only. A
	// base drawn from --seed moves exact latency by ±25% and snapshot
	// bytes by ±13% between seeds, which would bury every bound below.
	BaseSeed = 1
	// BaseImages is demo-200: ~1,080 shapes.
	BaseImages = 200
	// RunSeconds is the --seconds the frozen request counts in Specs were
	// calibrated for; another --seconds scales the counts, never the speed.
	RunSeconds = 20
	// K is every search's k.
	K = 5
	// FirstInsertID is the id of the first image the ingest workload
	// inserts; base ids are far below it. freshPool is how many images the
	// inserts are drawn from.
	FirstInsertID = 1_000_000
	freshPool     = 1000
)

// Distortions are the per-vertex jitters query shapes are drawn at. The
// base has 8 prototypes whose ~135 instances each differ by a 0.015
// jitter, so a query jittered by more than ~0.01 is as close to its
// source's siblings as to its source, and planted-source recall stops
// measuring the engine.
var Distortions = []float64{0.0025, 0.005, 0.01}

// Spec is one workload: how the daemon is set up and what traffic it gets.
// The counts are frozen at the seed commit for RunSeconds of traffic.
type Spec struct {
	Name string
	Why  string

	Shards       int
	Mmap         bool
	CacheBytes   int64
	CacheEntries int
	Ingest       bool

	// Mode is the "mode" of every search; AnnOdd sends "ann":"approx" on
	// odd query ids.
	Mode   string
	AnnOdd bool
	// Queries is the number of distinct query shapes, Searches the number
	// of searches in the timed phase: passes over the list in order, or
	// zipf(1.1) draws from it when Zipf is set.
	Queries  int
	Searches int
	Zipf     bool
	// Writes is the length of the write list (ingest only), sent one
	// every WriteEvery; the searcher runs until the last write is
	// acknowledged and Searches is ignored.
	Writes     int
	WriteEvery time.Duration
	// MinRecall is the planted-source recall below which a run is
	// incorrect.
	MinRecall float64
	// TraceRequests is how many requests the traced replay re-executes
	// layer by layer.
	TraceRequests int
}

// Specs are the four workloads, in the order a set runs them.
var Specs = []Spec{
	{
		Name:   "exact_1shard",
		Why:    "1 shard, cache/ANN/ingest off, exact mode: the paper's kernel does nearly all the work, so a kernel gain shows here and a sharding or cache gain must not",
		Shards: 1, Mode: "exact", Queries: 220, Searches: 880, MinRecall: 0.95, TraceRequests: 48,
	},
	{
		Name:   "exact_8shard",
		Why:    "same base, query list and clients on 8 shards (the serving default): differs from exact_1shard only in scatter/merge and per-shard repeated fattening, answers byte-identical",
		Shards: 8, Mode: "exact", Queries: 220, Searches: 220, MinRecall: 0.95, TraceRequests: 12,
	},
	{
		Name:   "approx_zipf_cached",
		Why:    "8 mmap shards, 500-entry cache, zipf(1.1) approximate searches over a pool 4x the cache, half ANN half hashing: HTTP codec, qcache, geohash and annindex do the work, the exact kernel none",
		Shards: 8, Mmap: true, CacheBytes: 64 << 20, CacheEntries: 500,
		Mode: "approximate", AnnOdd: true, Queries: 2000, Searches: 20000, Zipf: true, MinRecall: 0.80, TraceRequests: 100,
	},
	{
		Name:   "ingest_beside_search",
		Why:    "8 shards with live ingest, WAL fsync on, manual compaction: a 12.5/s writer (4 inserts : 1 delete) beside an auto-mode searcher exercises delta shard, tombstones, shard growth and the writer mutex",
		Shards: 8, Ingest: true, Mode: "auto", Queries: 220, Writes: 250, WriteEvery: 80 * time.Millisecond, MinRecall: 0.90, TraceRequests: 12,
	},
}

// SpecByName finds a workload.
func SpecByName(name string) (Spec, bool) {
	for _, s := range Specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Scaled returns the spec with its counts scaled for a run of the given
// length (the smoke test runs a twentieth of the calibrated traffic).
func (s Spec) Scaled(seconds float64) Spec {
	f := seconds / RunSeconds
	scale := func(n, min int) int {
		if n == 0 {
			return 0
		}
		if v := int(math.Round(float64(n) * f)); v > min {
			return v
		}
		return min
	}
	passes := 1
	if !s.Zipf && s.Queries > 0 && s.Searches > s.Queries {
		passes = s.Searches / s.Queries
	}
	s.Queries = scale(s.Queries, 8)
	if s.Zipf {
		s.Searches = scale(s.Searches, 32)
		s.CacheEntries = s.Queries / 4
	} else {
		s.Searches = s.Queries * passes
	}
	s.Writes = scale(s.Writes, 20)
	if s.TraceRequests > s.Queries {
		s.TraceRequests = s.Queries
	}
	return s
}

// Base is the image base every workload serves, with the global shape id
// each stored shape gets when images are added in order.
type Base struct {
	Spec   synth.BaseSpec
	Images []synth.Image
	// FirstShape[i] is the global shape id of Images[i].Shapes[0].
	FirstShape []int
	Shapes     int
}

// NewBase generates the fixed base at the given image count.
func NewBase(images int) *Base {
	spec := synth.PaperSpec(float64(images)/10000, BaseSeed)
	b := &Base{Spec: spec, Images: synth.GenerateBase(spec)}
	for _, im := range b.Images {
		b.FirstShape = append(b.FirstShape, b.Shapes)
		b.Shapes += len(im.Shapes)
	}
	return b
}

// Query is one distinct search request with its planted source: the
// stored shape (or, for a shape of an image inserted live, the image) it
// is a distorted copy of.
type Query struct {
	Shape        geosir.Shape
	Mode, Ann    string
	Body         []byte // the /v1/search body, encoded once
	PlantedShape int    // global shape id, or -1
	PlantedImage int
}

// Write is one mutation of the ingest workload.
type Write struct {
	Insert bool
	ID     int
	Body   []byte // POST /v1/images body (inserts)
	// Kept marks an insert that no later write deletes: it must survive
	// the restart, and the searcher may query it once acknowledged.
	Kept bool
	// Query is a distorted copy of the image's first shape, which the
	// searcher sends once a Kept insert is acknowledged; Probe is an exact
	// copy sent in approximate mode by the read-back after the restart.
	Query Query
	Probe []byte
}

// Traffic is everything a workload sends, generated from --seed alone.
type Traffic struct {
	Queries []Query
	// Order holds the timed phase's searches as indexes into Queries.
	Order  []int32
	Writes []Write
	// CompactAfter lists the write indexes after which the writer calls
	// /admin/compact.
	CompactAfter map[int]bool
	Digest       string
}

type searchBody struct {
	Shape server.WireShape `json:"shape"`
	K     int              `json:"k"`
	Mode  string           `json:"mode"`
	Ann   string           `json:"ann,omitempty"`
	Exec  string           `json:"exec,omitempty"`
}

func wireShape(s geosir.Shape) server.WireShape {
	ws := server.WireShape{Points: make([][2]float64, len(s.Pts)), Closed: s.Closed}
	for i, p := range s.Pts {
		ws.Points[i] = [2]float64{p.X, p.Y}
	}
	return ws
}

// EncodeSearch renders a /v1/search body; exec "" leaves the server's
// default policy in charge.
func EncodeSearch(s geosir.Shape, mode, ann, exec string) []byte {
	b, err := json.Marshal(searchBody{Shape: wireShape(s), K: K, Mode: mode, Ann: ann, Exec: exec})
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return b
}

func distorted(rng *rand.Rand, src geosir.Shape) geosir.Shape {
	q := synth.Distort(rng, src, Distortions[rng.Intn(len(Distortions))])
	if q.Validate() != nil {
		return src.Clone()
	}
	return q
}

// NewTraffic builds the workload's request lists. The same seed gives the
// same lists; exact_1shard and exact_8shard share theirs because their
// specs agree on everything NewTraffic reads.
func NewTraffic(spec Spec, base *Base, seed int64) *Traffic {
	rng := rand.New(rand.NewSource(seed))
	t := &Traffic{CompactAfter: map[int]bool{}}

	deleted := map[int]bool{}
	if spec.Ingest {
		t.writes(spec, base, rng, deleted)
	}
	for len(t.Queries) < spec.Queries {
		i := rng.Intn(len(base.Images))
		im := base.Images[i]
		if deleted[im.ID] {
			continue
		}
		j := rng.Intn(len(im.Shapes))
		q := Query{
			Shape: distorted(rng, im.Shapes[j]), Mode: spec.Mode,
			PlantedShape: base.FirstShape[i] + j, PlantedImage: im.ID,
		}
		if spec.AnnOdd && len(t.Queries)%2 == 1 {
			q.Ann = "approx"
		}
		q.Body = EncodeSearch(q.Shape, q.Mode, q.Ann, "")
		t.Queries = append(t.Queries, q)
	}
	switch {
	case spec.Zipf:
		z := rand.NewZipf(rng, 1.1, 1, uint64(spec.Queries-1))
		// Shuffle ranks onto ids so the hot queries are not all even (hashing).
		perm := rng.Perm(spec.Queries)
		for i := 0; i < spec.Searches; i++ {
			t.Order = append(t.Order, int32(perm[z.Uint64()]))
		}
	case !spec.Ingest:
		for i := 0; i < spec.Searches; i++ {
			t.Order = append(t.Order, int32(i%spec.Queries))
		}
	}
	t.Digest = t.digest(base)
	return t
}

// writes builds the ingest write list: 4 inserts of fresh ~5-shape images
// to 1 delete, deletes alternating between a base image and the oldest
// live inserted image (by then usually folded into a frozen shard, so the
// delete leaves a tombstone). Compaction is requested after each fifth of
// the list but the last, which leaves a WAL tail for the restart to replay.
func (t *Traffic) writes(spec Spec, base *Base, rng *rand.Rand, deleted map[int]bool) {
	// Like the base, the pool the inserts are drawn from is the same on
	// every run (other prototypes cost other amounts to search); the seed
	// picks which of its images are inserted, and in what order.
	fresh := synth.GenerateBase(synth.BaseSpec{
		Images: freshPool, MeanShapes: 5, MeanVertices: 20, Prototypes: 16,
		Distortion: 0.015, OpenFraction: 0.25, Seed: BaseSeed + 1,
	})
	pick := rng.Perm(len(fresh))
	var live []int // indexes into t.Writes of inserts not yet deleted
	deletes := 0
	for i := 0; i < spec.Writes; i++ {
		if i%5 == 4 {
			w := Write{}
			if deletes%2 == 0 || len(live) == 0 {
				for {
					im := base.Images[rng.Intn(len(base.Images))]
					if !deleted[im.ID] {
						w.ID = im.ID
						break
					}
				}
				deleted[w.ID] = true
			} else {
				w.ID = t.Writes[live[0]].ID
				live = live[1:]
			}
			deletes++
			t.Writes = append(t.Writes, w)
			continue
		}
		im := fresh[pick[i%len(pick)]]
		w := Write{Insert: true, ID: FirstInsertID + i}
		shapes := make([]server.WireShape, len(im.Shapes))
		for j, s := range im.Shapes {
			shapes[j] = wireShape(s)
		}
		body, err := json.Marshal(struct {
			ID     int                `json:"id"`
			Shapes []server.WireShape `json:"shapes"`
		}{w.ID, shapes})
		if err != nil {
			panic(err)
		}
		w.Body = body
		w.Query = Query{Shape: distorted(rng, im.Shapes[0]), Mode: spec.Mode, PlantedShape: -1, PlantedImage: w.ID}
		w.Query.Body = EncodeSearch(w.Query.Shape, w.Query.Mode, "", "")
		w.Probe = EncodeSearch(im.Shapes[0], "approximate", "", "")
		live = append(live, len(t.Writes))
		t.Writes = append(t.Writes, w)
	}
	for _, i := range live {
		t.Writes[i].Kept = true
	}
	for c := 1; c <= 4; c++ {
		t.CompactAfter[c*spec.Writes/5-1] = true
	}
}

// digest is the input_digest: base vertices, request bodies, order.
func (t *Traffic) digest(base *Base) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, im := range base.Images {
		put(uint64(im.ID))
		for _, s := range im.Shapes {
			put(uint64(len(s.Pts)))
			for _, p := range s.Pts {
				put(math.Float64bits(p.X))
				put(math.Float64bits(p.Y))
			}
		}
	}
	for _, q := range t.Queries {
		h.Write(q.Body)
	}
	for _, o := range t.Order {
		put(uint64(o))
	}
	for _, w := range t.Writes {
		fmt.Fprintf(h, "%t:%d:", w.Insert, w.ID)
		h.Write(w.Body)
		h.Write(w.Query.Body)
	}
	return hex.EncodeToString(h.Sum(nil))
}
