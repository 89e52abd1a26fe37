package stats

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// Expected values are Python's statistics.quantiles(xs, n=4) and
// statistics.median(xs), computed by hand for these samples.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 2.2, 8.5, 4.4, 9.9, 1.0, 7.3}, 2.2, 4.4, 8.5},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{10, 20, 30}, 10, 20, 30},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if med := Median(c.xs); !near(med, c.q2) {
			t.Errorf("Median(%v) = %v, want %v", c.xs, med, c.q2)
		}
	}
}

func TestSpread(t *testing.T) {
	// 1..10: (8.25 - 2.75) / 5.5 = 1.
	if s := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, 1) {
		t.Errorf("Spread = %v, want 1", s)
	}
	if s := Spread([]float64{0, 0, 0}); !math.IsInf(s, 1) {
		t.Errorf("Spread of zeros = %v, want +Inf", s)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the function must sort
	}
	return xs
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	// 1000 samples 1..1000: p99 is rank 990, ten samples lie beyond it.
	got := TailPercentile(seq(1000), 0.99)
	if !got.Exact || got.Value != 990 || got.P != 0.99 {
		t.Errorf("n=1000 p99 = %+v, want exact 990", got)
	}
	// 999 samples: rank ceil(989.01) = 990 leaves nine beyond, so the
	// reported percentile falls back to rank 989 = 989/999.
	got = TailPercentile(seq(999), 0.99)
	if got.Exact || got.Value != 989 || !near(got.P, 989.0/999.0) {
		t.Errorf("n=999 p99 = %+v, want fallback to rank 989", got)
	}
	// 200 samples: the highest reportable percentile is rank 190 = p95.
	got = TailPercentile(seq(200), 0.99)
	if got.Exact || got.Value != 190 || !near(got.P, 0.95) {
		t.Errorf("n=200 p99 = %+v, want p95 = 190", got)
	}
	// Ten samples or fewer have no tail at all.
	got = TailPercentile(seq(10), 0.99)
	if got.Exact || got.P != 0 || got.Value != 1 {
		t.Errorf("n=10 p99 = %+v, want no tail", got)
	}
	if got := TailPercentile(nil, 0.99); got != (Tail{}) {
		t.Errorf("empty sample = %+v", got)
	}
}

func TestSumsToWhole(t *testing.T) {
	if sum, ok := SumsToWhole([]float64{1, 2, 3.05}, 6, 0.01); !ok || !near(sum, 6.05) {
		t.Errorf("6.05 vs 6 at 1%%: sum=%v ok=%v", sum, ok)
	}
	if _, ok := SumsToWhole([]float64{1, 2, 3.07}, 6, 0.01); ok {
		t.Error("6.07 vs 6 at 1% must fail")
	}
	if _, ok := SumsToWhole([]float64{1, 2}, 6, 0.01); ok {
		t.Error("a missing part must fail")
	}
}

func TestWorseByAndBound(t *testing.T) {
	// Lower is better: 110 against 100 is 10 % worse, 90 is 10 % better.
	if w := WorseBy(100, 110, true); !near(w, 0.10) {
		t.Errorf("WorseBy(100,110,lower) = %v", w)
	}
	if w := WorseBy(100, 90, true); !near(w, -0.10) {
		t.Errorf("WorseBy(100,90,lower) = %v", w)
	}
	// Higher is better: 90 against 100 is 10 % worse.
	if w := WorseBy(100, 90, false); !near(w, 0.10) {
		t.Errorf("WorseBy(100,90,higher) = %v", w)
	}
	if !WithinBound(100, 109.9, true, 0.10) || WithinBound(100, 110.1, true, 0.10) {
		t.Error("lower-is-better bound at 10% misjudged")
	}
	if !WithinBound(1000, 901, false, 0.10) || WithinBound(1000, 899, false, 0.10) {
		t.Error("higher-is-better bound at 10% misjudged")
	}
}
