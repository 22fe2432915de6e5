package load

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// The host this benchmark runs on changes speed: the same 20 searches
// take 33 ms or 57 ms each depending on the minute, in regimes that last
// 10 to 60 s (no steal time is reported; it looks like neighbours on the
// same cores). A 20 s run lands in one regime or another, and raw
// timings of identical runs spread by 20%, which no bound below 0.25
// survives. So the clients run a canary — a fixed 1 ms computation with
// the kernel's instruction mix (dependent walks over a 1.25 MB table,
// point distances, data-dependent branches) — every canaryEvery, and
// every CPU-bound timing is divided by the host's speed factor at that
// moment: canary time ÷ canaryNominal. Measured against exact searches
// over 100 s, that takes the coefficient of variation from 12% to 3%.
//
// The canary is frozen with the benchmark: it imports nothing from the
// repo, so no change to the program can move it.
const (
	// canaryNominal is the canary's usual duration on this box beside two
	// busy clients (alone on a quiet core it takes 950 µs), so that a
	// typical run's factor is near 1 and its timings near the clock's. On
	// another host every normalised timing is scaled by one constant;
	// comparisons, which are all relative, do not change.
	canaryNominal = 1200 * time.Microsecond
	canaryEvery   = 20 * time.Millisecond
	speedBucket   = time.Second
)

var (
	canaryPts [1 << 16][2]float64
	canaryIdx [1 << 16]int32
)

func init() {
	r := rand.New(rand.NewSource(1))
	for i := range canaryPts {
		canaryPts[i] = [2]float64{r.Float64(), r.Float64()}
		canaryIdx[i] = int32(r.Intn(len(canaryPts)))
	}
}

// canary returns how long the computation took, and its result so that
// the compiler keeps it.
func canary() (time.Duration, float64) {
	t := time.Now()
	j := int32(0)
	acc := 0.0
	const mask = len(canaryPts) - 1
	for i := 0; i < 60_000; i++ {
		p := canaryPts[j]
		q := canaryPts[(int(j)+i)&mask]
		dx, dy := p[0]-q[0], p[1]-q[1]
		if d := dx*dx + dy*dy; d < 0.25 {
			acc += math.Sqrt(d)
			j = canaryIdx[j]
		} else {
			acc -= d
			j = canaryIdx[(int(j)+1)&mask]
		}
	}
	return time.Since(t), acc
}

// Speedometer collects canary runs from the client goroutines of one
// timed section.
type Speedometer struct {
	start time.Time
	mu    sync.Mutex
	at    []time.Duration
	dur   []time.Duration
	sink  float64
}

// NewSpeedometer starts the section's clock.
func NewSpeedometer() *Speedometer { return &Speedometer{start: time.Now()} }

// Tick runs one canary if the caller's last one is canaryEvery old.
func (s *Speedometer) Tick(last *time.Time) {
	if time.Since(*last) < canaryEvery {
		return
	}
	s.Burst(1)
	*last = time.Now()
}

// Burst runs n canaries back to back.
func (s *Speedometer) Burst(n int) {
	for i := 0; i < n; i++ {
		at := time.Since(s.start)
		d, acc := canary()
		s.mu.Lock()
		s.at, s.dur, s.sink = append(s.at, at), append(s.dur, d), s.sink+acc
		s.mu.Unlock()
	}
}

// Speed is the host's speed factor over a timed section: 1 when the
// canary takes canaryNominal, 1.25 when the host is a quarter slower.
type Speed struct {
	buckets []float64 // per speedBucket; 0 where no canary ran
	// Mean is the factor averaged over the section's buckets, Busy the CPU
	// time the canaries themselves took.
	Mean float64
	Busy time.Duration
	N    int
}

// Speed closes the section.
func (s *Speedometer) Speed() Speed {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := Speed{N: len(s.at), Mean: 1}
	by := map[int][]float64{}
	last := 0
	for i, at := range s.at {
		b := int(at / speedBucket)
		by[b] = append(by[b], float64(s.dur[i])/float64(canaryNominal))
		sp.Busy += s.dur[i]
		if b > last {
			last = b
		}
	}
	if sp.N == 0 {
		return sp
	}
	sp.buckets = make([]float64, last+1)
	var sum, n float64
	for b, v := range by {
		sort.Float64s(v)
		sp.buckets[b] = v[len(v)/2]
		sum += sp.buckets[b]
		n++
	}
	sp.Mean = sum / n
	return sp
}

// At is the speed factor at offset t of the section: its bucket's median
// canary, or the nearest bucket's that has one.
func (sp Speed) At(t time.Duration) float64 {
	if len(sp.buckets) == 0 {
		return 1
	}
	b := int(t / speedBucket)
	if b >= len(sp.buckets) {
		b = len(sp.buckets) - 1
	}
	for d := 0; d < len(sp.buckets); d++ {
		if i := b - d; i >= 0 && sp.buckets[i] > 0 {
			return sp.buckets[i]
		}
		if i := b + d; i < len(sp.buckets) && sp.buckets[i] > 0 {
			return sp.buckets[i]
		}
	}
	return 1
}
