package load

import (
	"math"
	"testing"
)

// Python: statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
// gives [3.5, 13.5, 31.0].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := Quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if math.Abs(q1-3.5) > 1e-12 || math.Abs(q3-31.0) > 1e-12 {
		t.Errorf("quartiles %v, %v; want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([10, 20, 30, 40, 50], n=4) gives [15.0, 30.0, 45.0].
	q1, q3 = Quartiles([]float64{10, 20, 30, 40, 50})
	if q1 != 15 || q3 != 45 {
		t.Errorf("quartiles %v, %v; want 15, 45", q1, q3)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	vs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for p, want := range map[float64]float64{0.5: 5, 0.9: 9, 0.95: 10, 1: 10, 0.01: 1} {
		if got := Percentile(vs, p); got != want {
			t.Errorf("p%v = %v, want %v", p*100, got, want)
		}
	}
}

func TestTrafficIsAFunctionOfTheSeed(t *testing.T) {
	base := NewBase(20)
	for _, spec := range Specs {
		s := spec.Scaled(1)
		a, b, c := NewTraffic(s, base, 3), NewTraffic(s, base, 3), NewTraffic(s, base, 4)
		if a.Digest != b.Digest {
			t.Errorf("%s: same seed, different inputs", spec.Name)
		}
		if a.Digest == c.Digest {
			t.Errorf("%s: different seeds, same inputs", spec.Name)
		}
	}
	one, eight := Specs[0].Scaled(1), Specs[1].Scaled(1)
	qa, qb := NewTraffic(one, base, 3).Queries, NewTraffic(eight, base, 3).Queries
	if len(qa) != len(qb) {
		t.Fatalf("exact workloads have %d and %d queries", len(qa), len(qb))
	}
	for i := range qa {
		if string(qa[i].Body) != string(qb[i].Body) {
			t.Fatalf("exact workloads differ at query %d", i)
		}
	}
}
