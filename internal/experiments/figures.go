package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/chamfer"
	"repro/internal/core"
	"repro/internal/extindex"
	"repro/internal/extstore"
	"repro/internal/geohash"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rangesearch"
	"repro/internal/synth"
)

// Fig1Result reproduces the Figure 1 discrimination example: the query Q
// against a spiked shape A and a mildly perturbed shape B, under the
// Hausdorff distance and the average measure.
type Fig1Result struct {
	HausdorffA, HausdorffB float64
	AvgA, AvgB             float64
	HausdorffPicksA        bool // the failure mode of §2.1
	AvgPicksB              bool // the paper's fix
}

// Fig1 computes the example.
func Fig1() Fig1Result {
	q := geom.NewPolygon(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1))
	b := geom.NewPolygon(geom.Pt(0.02, 0.01), geom.Pt(1.03, -0.02), geom.Pt(0.98, 1.02), geom.Pt(-0.01, 0.97))
	a := geom.NewPolygon(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(3.0, 0.5), geom.Pt(1, 1), geom.Pt(0, 1))
	r := Fig1Result{
		HausdorffA: core.Hausdorff(a, q, 512),
		HausdorffB: core.Hausdorff(b, q, 512),
		AvgA:       core.AvgMinDistSym(a, q, 512),
		AvgB:       core.AvgMinDistSym(b, q, 512),
	}
	r.HausdorffPicksA = r.HausdorffA > r.HausdorffB // A penalized by the spike
	r.AvgPicksB = r.AvgB < r.AvgA
	return r
}

// Fig2Result reproduces the Figure 2 robustness comparison: a query whose
// every edge has been split and displaced (no original edge survives) is
// matched by diameter normalization (GeoSIR) and by the edge-normalized
// Mehrotra–Gary index.
type Fig2Result struct {
	Trials    int
	GeoSIRHit int // retrievals that returned the true source shape
	MGHit     int
	MGVectors int // the baseline's storage cost, in feature vectors
	Entries   int // GeoSIR's storage cost, in normalized copies
}

// Fig2 runs the comparison over the fixture's prototype shapes.
func Fig2(f *Fixture, trials int) (Fig2Result, error) {
	if trials <= 0 {
		trials = 20
	}
	res := Fig2Result{Entries: f.Base.NumEntries()}
	mg, err := core.NewMGIndex(f.Base.Shapes())
	if err != nil {
		return res, err
	}
	res.MGVectors = mg.NumVectors()
	rng := rand.New(rand.NewSource(f.Cfg.Seed + 77))
	shapes := f.Base.Shapes()
	for t := 0; t < trials; t++ {
		src := shapes[rng.Intn(len(shapes))]
		dq, ok := edgeSplitDistort(src.Poly, 0.05, rng)
		if !ok {
			continue
		}
		res.Trials++
		if ms, _, err := f.Base.Match(dq, 1); err == nil && len(ms) > 0 && ms[0].ShapeID == src.ID {
			res.GeoSIRHit++
		}
		if ms, err := mg.Match(dq, 1); err == nil && len(ms) > 0 && ms[0].ShapeID == src.ID {
			res.MGHit++
		}
	}
	if res.Trials == 0 {
		return res, fmt.Errorf("experiments: no valid distorted queries")
	}
	return res, nil
}

// edgeSplitDistort splits every edge at its midpoint and displaces the
// midpoint perpendicular to the edge — the local distortion of Figure 2
// under which no original edge survives.
func edgeSplitDistort(p geom.Poly, mag float64, rng *rand.Rand) (geom.Poly, bool) {
	m := p.NumEdges()
	var pts []geom.Point
	for i := 0; i < m; i++ {
		e := p.Edge(i)
		pts = append(pts, e.A)
		off := e.Dir().Unit().Perp().Scale((rng.Float64()*2 - 1) * mag * e.Length())
		pts = append(pts, e.Midpoint().Add(off))
	}
	if !p.Closed {
		pts = append(pts, p.Pts[len(p.Pts)-1])
	}
	q := geom.Poly{Pts: pts, Closed: p.Closed}
	if q.Validate() != nil {
		return geom.Poly{}, false
	}
	return q, true
}

// Fig5Row is one sample of the E(x) area function and its derivative
// (Figure 5).
type Fig5Row struct {
	X, E, DE float64
}

// Fig5 samples E and ∂E/∂x on [0,1].
func Fig5(samples int) []Fig5Row {
	if samples < 2 {
		samples = 101
	}
	out := make([]Fig5Row, samples)
	for i := 0; i < samples; i++ {
		x := float64(i) / float64(samples-1)
		out[i] = Fig5Row{X: x, E: geohash.E(x), DE: geohash.DE(x)}
	}
	return out
}

// Fig10Point is one observation of the Figure 10 selectivity experiment:
// a query's significant-vertex count and its number of similar shapes.
type Fig10Point struct {
	VS      float64
	Matches int
}

// Fig10Result carries the two experiments of Figure 10 (full base and
// half base) and the fitted constants of the hyperbolic law
// matches ≈ c / V_S.
type Fig10Result struct {
	Exp1, Exp2 []Fig10Point
	C1, C2     float64
}

// Fig10 runs the selectivity experiment on a complexity-graded star
// domain (see synth.ZipfStarImages): the paper established the law
// matches ≈ c/V_S(Q) experimentally on an image domain where simple
// boundaries are more frequent than structured ones; the Zipf-graded star
// base reproduces exactly that frequency property, with V_S growing with
// the corner count. Experiment 1 runs the workload against the full base
// and experiment 2 against a half-size base of the same domain (the
// paper's two experiments differ by a factor of two in base size).
func Fig10(cfg Config, tau float64, queries int) (Fig10Result, error) {
	if queries <= 0 {
		queries = 40
	}
	if tau <= 0 {
		tau = 0.03
	}
	var res Fig10Result
	shapes := int(1500 * cfg.Scale / 0.02)
	if shapes < 100 {
		shapes = 100
	}
	const (
		minC  = 3
		maxC  = 12
		noise = 0.015
	)
	buildStarBase := func(n int, seed int64) (*core.Base, error) {
		images := synth.ZipfStarImages(synth.ZipfStarSpec{
			Shapes: n, MinC: minC, MaxC: maxC, Noise: noise, Seed: seed,
		})
		b := core.NewBase(cfg.CoreOpts)
		for _, img := range images {
			var err error
			if b, err = b.Append(img.ID, img.Shapes); err != nil {
				return nil, err
			}
		}
		return b, nil
	}
	full, err := buildStarBase(shapes, cfg.Seed)
	if err != nil {
		return res, err
	}
	half, err := buildStarBase(shapes/2, cfg.Seed)
	if err != nil {
		return res, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 4242))
	for i := 0; i < queries; i++ {
		// Uniform corner counts cover the V_S axis evenly.
		c := minC + i%(maxC-minC+1)
		q := synth.Star(rng, c, noise)
		vs := query.SignificantVertices(q)
		if vs <= 0 {
			continue
		}
		m1, _, err := full.SimilarShapes(context.Background(), q, tau)
		if err != nil {
			return res, err
		}
		m2, _, err := half.SimilarShapes(context.Background(), q, tau)
		if err != nil {
			return res, err
		}
		res.Exp1 = append(res.Exp1, Fig10Point{VS: vs, Matches: len(m1)})
		res.Exp2 = append(res.Exp2, Fig10Point{VS: vs, Matches: len(m2)})
	}
	res.C1 = fitHyperbolic(res.Exp1)
	res.C2 = fitHyperbolic(res.Exp2)
	return res, nil
}

// fitHyperbolic fits matches = c / V_S by least squares on c (closed
// form: c = Σ(mᵢ/vᵢ) / Σ(1/vᵢ²)).
func fitHyperbolic(pts []Fig10Point) float64 {
	var num, den float64
	for _, p := range pts {
		if p.VS <= 0 {
			continue
		}
		num += float64(p.Matches) / p.VS
		den += 1 / (p.VS * p.VS)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// ScalingRow is one point of the retrieval-complexity experiment (§2.5's
// polylogarithmic claim): base size vs. average query cost.
type ScalingRow struct {
	Images          int
	Vertices        int
	AvgMicros       float64
	AvgIterations   float64
	AvgVertsCounted float64
}

// Scaling measures retrieval cost across base scales.
func Scaling(cfg Config, scales []float64) ([]ScalingRow, error) {
	if len(scales) == 0 {
		scales = []float64{0.005, 0.01, 0.02, 0.04, 0.08}
	}
	var out []ScalingRow
	for _, s := range scales {
		c := cfg
		c.Scale = s
		f, err := BuildFixture(c)
		if err != nil {
			return nil, err
		}
		var totalDur time.Duration
		var iters, counted, ran int
		for _, q := range f.Queries {
			start := time.Now()
			_, st, err := f.Base.Match(q, 1)
			if err != nil {
				return nil, err
			}
			totalDur += time.Since(start)
			iters += st.Iterations
			counted += st.VerticesCounted
			ran++
		}
		out = append(out, ScalingRow{
			Images:          len(f.Images),
			Vertices:        f.Base.NumVertices(),
			AvgMicros:       float64(totalDur.Microseconds()) / float64(ran),
			AvgIterations:   float64(iters) / float64(ran),
			AvgVertsCounted: float64(counted) / float64(ran),
		})
	}
	return out, nil
}

// HashRow is one point of the §3 hashing study: family size vs. bucket
// occupancy and candidate-set size.
type HashRow struct {
	Curves        int
	MeanBucket    float64
	MaxBucket     int
	AvgCandidates float64
	HitRate       float64 // queries whose source shape is in the candidates
}

// Hashing sweeps the curve-family size.
func Hashing(f *Fixture, curveCounts []int) ([]HashRow, error) {
	if len(curveCounts) == 0 {
		curveCounts = []int{10, 25, 50, 100, 200}
	}
	// Query workload: mildly distorted copies of known shapes.
	rng := rand.New(rand.NewSource(f.Cfg.Seed + 9))
	type qcase struct {
		q   geom.Poly
		src int
	}
	var cases []qcase
	shapes := f.Base.Shapes()
	for len(cases) < 30 {
		s := shapes[rng.Intn(len(shapes))]
		dq := synth.Distort(rng, s.Poly, 0.01)
		if dq.Validate() == nil {
			cases = append(cases, qcase{q: dq, src: s.ID})
		}
	}
	var out []HashRow
	for _, k := range curveCounts {
		family, err := geohash.NewFamily(k)
		if err != nil {
			return nil, err
		}
		table := geohash.NewTable(family)
		for _, s := range shapes {
			ce, err := core.NormalizeCanonical(s.Poly)
			if err != nil {
				continue
			}
			if err := table.Insert(s.ID, family.Characteristic(ce.Poly.Pts)); err != nil {
				return nil, err
			}
		}
		mean, maxB := table.BucketStats()
		row := HashRow{Curves: k, MeanBucket: mean, MaxBucket: maxB}
		totalCand, hits := 0, 0
		for _, c := range cases {
			ce, err := core.NormalizeCanonical(c.q)
			if err != nil {
				continue
			}
			ids := table.Lookup(family.Characteristic(ce.Poly.Pts), 1)
			totalCand += len(ids)
			for _, id := range ids {
				if id == c.src {
					hits++
					break
				}
			}
		}
		row.AvgCandidates = float64(totalCand) / float64(len(cases))
		row.HitRate = float64(hits) / float64(len(cases))
		out = append(out, row)
	}
	return out, nil
}

// PlanRow compares query-plan orderings (§5.4): the selectivity-driven
// plan against the worst-case ordering, in per-image predicate checks.
type PlanRow struct {
	Query         string
	PlannedChecks int
	NaiveChecks   int
	ResultSize    int
}

// Plans builds a topological DB over the fixture's images and runs a set
// of composite queries with both orderings.
func Plans(f *Fixture) ([]PlanRow, error) {
	db := query.NewDB(query.Options{Core: f.Cfg.CoreOpts, Tau: 0.05, AngleTol: 0.15})
	for _, img := range f.Images {
		valid := make([]geom.Poly, 0, len(img.Shapes))
		for _, s := range img.Shapes {
			if s.Validate() == nil {
				valid = append(valid, s)
			}
		}
		if len(valid) == 0 {
			continue
		}
		if err := db.AddImage(img.ID, valid); err != nil {
			return nil, err
		}
	}
	// Bind two query shapes: a common one (low V_S) and a rare, highly
	// structured one (high V_S).
	rng := rand.New(rand.NewSource(f.Cfg.Seed + 5))
	qs := synth.Queries(rng, f.Images, 2, 0.01)
	binds := query.Bindings{"qa": qs[0], "qb": qs[1]}
	srcs := []string{
		"similar(qa) AND similar(qb)",
		"similar(qa) AND NOT similar(qb)",
		"overlap(qa, qb, any) OR similar(qb)",
	}
	var out []PlanRow
	for _, src := range srcs {
		set, plan, err := db.EvalString(context.Background(), src, binds)
		if err != nil {
			return nil, err
		}
		planned := 0
		for _, c := range plan.Conjuncts {
			planned += c.FilterChecks
		}
		// Naive ordering: drive every conjunct from the full image set.
		naive := naiveChecks(db, src, binds)
		out = append(out, PlanRow{
			Query:         src,
			PlannedChecks: planned,
			NaiveChecks:   naive,
			ResultSize:    len(set),
		})
	}
	return out, nil
}

// naiveChecks evaluates the query by checking every literal on every
// image (no index, no ordering) and returns the number of checks.
func naiveChecks(db *query.DB, src string, binds query.Bindings) int {
	e, err := query.Parse(src)
	if err != nil {
		return 0
	}
	checks := 0
	for _, c := range query.ToDNF(e) {
		checks += len(c) * db.NumImages()
	}
	return checks
}

// SortedVS returns the Fig10 points sorted by V_S, for plotting.
func SortedVS(pts []Fig10Point) []Fig10Point {
	out := append([]Fig10Point(nil), pts...)
	sort.Slice(out, func(i, j int) bool { return out[i].VS < out[j].VS })
	return out
}

// Spearman computes the Spearman rank correlation between V_S and the
// match count — Figure 10's "hyperbolic behavior" implies a strong
// negative correlation.
func Spearman(pts []Fig10Point) float64 {
	n := len(pts)
	if n < 3 {
		return 0
	}
	rx := ranks(func(i int) float64 { return pts[i].VS }, n)
	ry := ranks(func(i int) float64 { return float64(pts[i].Matches) }, n)
	var d2 float64
	for i := 0; i < n; i++ {
		d := rx[i] - ry[i]
		d2 += d * d
	}
	return 1 - 6*d2/float64(n*(n*n-1))
}

func ranks(val func(int) float64, n int) []float64 {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return val(idx[a]) < val(idx[b]) })
	r := make([]float64, n)
	for pos := 0; pos < n; {
		end := pos
		for end+1 < n && math.Abs(val(idx[end+1])-val(idx[pos])) < 1e-12 {
			end++
		}
		avg := float64(pos+end) / 2
		for k := pos; k <= end; k++ {
			r[idx[k]] = avg
		}
		pos = end + 1
	}
	return r
}

// ChamferResult compares the chamfer-matching baseline (§1 related work)
// with GeoSIR on the same retrieval task: top-1 image whose content
// class matches the query's source class, and mean per-query latency.
// The paper's criticism is cost: chamfer scans a full distance map per
// stored image per query.
type ChamferResult struct {
	Queries       int
	ChamferHits   int
	GeoSIRHits    int
	ChamferMicros float64
	GeoSIRMicros  float64
	// ChamferBytes is the distance-map bytes a query must scan (every
	// image, every rotation step reads the full map's footprint); it
	// grows linearly with the base. GeoSIRBytes is the measured block
	// I/O of the same queries against the mean-curve store — the
	// index-pruned footprint.
	ChamferBytes float64
	GeoSIRBytes  float64
}

// Chamfer runs the comparison on the fixture.
func Chamfer(f *Fixture, trials int) (ChamferResult, error) {
	if trials <= 0 {
		trials = 15
	}
	var res ChamferResult

	imageShapes := make(map[int][]geom.Poly, len(f.Images))
	classOf := make(map[int][]int, len(f.Images))
	for _, img := range f.Images {
		imageShapes[img.ID] = img.Shapes
		classOf[img.ID] = img.Class
	}
	cm, err := chamfer.NewMatcher(imageShapes, 96)
	if err != nil {
		return res, err
	}

	imageHasClass := func(imageID, class int) bool {
		for _, c := range classOf[imageID] {
			if c == class {
				return true
			}
		}
		return false
	}

	rng := rand.New(rand.NewSource(f.Cfg.Seed + 31))
	for t := 0; t < trials; t++ {
		img := f.Images[rng.Intn(len(f.Images))]
		si := rng.Intn(len(img.Shapes))
		q := synth.Distort(rng, img.Shapes[si], 0.01)
		if q.Validate() != nil {
			q = img.Shapes[si]
		}
		class := img.Class[si]
		res.Queries++

		start := time.Now()
		cms, err := cm.Query(q, 1)
		if err != nil {
			return res, err
		}
		res.ChamferMicros += float64(time.Since(start).Microseconds())
		if len(cms) > 0 && imageHasClass(cms[0].ImageID, class) {
			res.ChamferHits++
		}

		start = time.Now()
		gms, _, err := f.Base.Match(q, 1)
		if err != nil {
			return res, err
		}
		res.GeoSIRMicros += float64(time.Since(start).Microseconds())
		if len(gms) > 0 {
			gimg := f.Base.Shape(gms[0].ShapeID).Image
			if imageHasClass(gimg, class) {
				res.GeoSIRHits++
			}
		}
	}
	res.ChamferMicros /= float64(res.Queries)
	res.GeoSIRMicros /= float64(res.Queries)

	// Footprints: chamfer touches every image's full distance map
	// (96×96 float32) once per query; GeoSIR touches the blocks its
	// candidate accesses hit (replay against the mean-curve layout).
	res.ChamferBytes = float64(len(f.Images)) * 96 * 96 * 4
	traces, err := collectTraces(f, 1)
	if err != nil {
		return res, err
	}
	io, err := replayTraces(f, traces, extstore.LayoutMean, 100)
	if err != nil {
		return res, err
	}
	res.GeoSIRBytes = io * extstore.BlockSize
	return res, nil
}

// ExtIndexRow reports the external-memory cost of the *auxiliary*
// structures during retrieval (§4: "for accommodating the auxiliary data
// structures in external memory we use optimal range search indexing
// structures"): the matching engine runs against a block-packed external
// kd-tree and the block reads are counted per query.
type ExtIndexRow struct {
	BufferBlocks int
	IndexBlocks  int
	ReadsPerQry  float64
	HitRate      float64
}

// ExtIndexIO rebuilds the fixture's base over the external tree and
// replays the query workload for each buffer capacity.
func ExtIndexIO(f *Fixture, bufferBlocks []int) ([]ExtIndexRow, error) {
	if len(bufferBlocks) == 0 {
		bufferBlocks = []int{4, 16, 64, 256}
	}
	var out []ExtIndexRow
	for _, buf := range bufferBlocks {
		var tree *extindex.Tree
		opts := f.Cfg.CoreOpts
		bufCopy := buf
		opts.BackendFactory = func(pts []geom.Point) rangesearch.Backend {
			t, err := extindex.Build(pts, bufCopy)
			if err != nil {
				panic(err) // simulated disk; cannot fail on valid input
			}
			tree = t
			return extindex.Backend{T: t}
		}
		b := core.NewBase(opts)
		for _, img := range f.Images {
			var err error
			if b, err = b.Append(img.ID, img.Shapes); err != nil {
				return nil, err
			}
		}
		b.BuildRangeIndex() // the tree exists from here, its counters start below
		tree.ResetStats()
		for _, q := range f.Queries {
			if _, _, err := b.Match(q, 1); err != nil {
				return nil, err
			}
		}
		st := tree.Stats()
		total := st.PoolHits + st.PoolMisses
		row := ExtIndexRow{
			BufferBlocks: buf,
			IndexBlocks:  tree.NumBlocks(),
			ReadsPerQry:  float64(st.DiskReads) / float64(len(f.Queries)),
		}
		if total > 0 {
			row.HitRate = float64(st.PoolHits) / float64(total)
		}
		out = append(out, row)
	}
	return out, nil
}

// FamilyRow compares hash-curve families (§3: "we have considered
// different families of conic curves, trying to increase the retrieval
// accuracy, while minimizing the computational complexity").
type FamilyRow struct {
	Name          string
	BuildMicros   float64
	MeanBucket    float64
	MaxBucket     int
	AvgCandidates float64
	HitRate       float64
}

// FamilyAblation evaluates the unit-arc family against the radial family
// at the same per-quarter curve count.
func FamilyAblation(f *Fixture, curves int) ([]FamilyRow, error) {
	if curves <= 0 {
		curves = 50
	}
	rng := rand.New(rand.NewSource(f.Cfg.Seed + 9))
	type qcase struct {
		q   geom.Poly
		src int
	}
	var cases []qcase
	shapes := f.Base.Shapes()
	for len(cases) < 30 {
		s := shapes[rng.Intn(len(shapes))]
		dq := synth.Distort(rng, s.Poly, 0.01)
		if dq.Validate() == nil {
			cases = append(cases, qcase{q: dq, src: s.ID})
		}
	}

	study := func(name string, build func() (geohash.CurveFamily, error)) (FamilyRow, error) {
		start := time.Now()
		fam, err := build()
		if err != nil {
			return FamilyRow{}, err
		}
		row := FamilyRow{Name: name, BuildMicros: float64(time.Since(start).Microseconds())}
		table := geohash.NewTableWith(fam)
		for _, s := range shapes {
			ce, err := core.NormalizeCanonical(s.Poly)
			if err != nil {
				continue
			}
			if err := table.Insert(s.ID, fam.Characteristic(ce.Poly.Pts)); err != nil {
				return FamilyRow{}, err
			}
		}
		row.MeanBucket, row.MaxBucket = table.BucketStats()
		totalCand, hits := 0, 0
		for _, c := range cases {
			ce, err := core.NormalizeCanonical(c.q)
			if err != nil {
				continue
			}
			ids := table.Lookup(fam.Characteristic(ce.Poly.Pts), 1)
			totalCand += len(ids)
			for _, id := range ids {
				if id == c.src {
					hits++
					break
				}
			}
		}
		row.AvgCandidates = float64(totalCand) / float64(len(cases))
		row.HitRate = float64(hits) / float64(len(cases))
		return row, nil
	}

	unit, err := study("unit-arcs", func() (geohash.CurveFamily, error) {
		return geohash.NewFamily(curves)
	})
	if err != nil {
		return nil, err
	}
	radial, err := study("radial", func() (geohash.CurveFamily, error) {
		return geohash.NewRadialFamily(curves)
	})
	if err != nil {
		return nil, err
	}
	return []FamilyRow{unit, radial}, nil
}

// QualityRow quantifies the noise-tolerance claim (§1, §2: the criterion
// "is tolerant to distortion"; "our similarity criterion has been
// designed to be tolerant to such noise situations"): precision of
// retrieval as the query's distortion grows.
type QualityRow struct {
	Distortion float64
	P1         float64 // top-1 is an instance of the query's class
	P5         float64 // some top-5 hit is an instance of the class
	MRR        float64 // mean reciprocal rank of the first class hit
}

// Quality sweeps query distortion levels over the fixture base.
func Quality(f *Fixture, distortions []float64, queriesPer int) ([]QualityRow, error) {
	if len(distortions) == 0 {
		distortions = []float64{0.005, 0.02, 0.05, 0.1}
	}
	if queriesPer <= 0 {
		queriesPer = 20
	}
	classOf := make(map[int]int) // shape id -> class
	{
		sid := 0
		for _, img := range f.Images {
			for i := range img.Shapes {
				// Shape ids are assigned in Append order, which follows
				// the image iteration order of BuildFixture.
				classOf[sid] = img.Class[i]
				sid++
			}
		}
	}
	shapes := f.Base.Shapes()
	var out []QualityRow
	for _, dist := range distortions {
		rng := rand.New(rand.NewSource(f.Cfg.Seed + int64(dist*1e4)))
		row := QualityRow{Distortion: dist}
		ran := 0
		for t := 0; t < queriesPer; t++ {
			src := shapes[rng.Intn(len(shapes))]
			q := synth.Distort(rng, src.Poly, dist)
			if q.Validate() != nil {
				continue
			}
			ms, _, err := f.Base.Match(q, 5)
			if err != nil {
				return nil, err
			}
			ran++
			class := classOf[src.ID]
			for rank, m := range ms {
				if classOf[m.ShapeID] == class {
					if rank == 0 {
						row.P1++
					}
					row.P5++
					row.MRR += 1 / float64(rank+1)
					break
				}
			}
		}
		if ran == 0 {
			return nil, fmt.Errorf("experiments: no valid queries at distortion %v", dist)
		}
		row.P1 /= float64(ran)
		row.P5 /= float64(ran)
		row.MRR /= float64(ran)
		out = append(out, row)
	}
	return out, nil
}
