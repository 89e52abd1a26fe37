// Package stats holds the small statistics the benchmark reports and gates
// on: medians and quartiles (the quartile rule is Python's
// statistics.quantiles(n=4), which is what the driver uses), tail
// percentiles that refuse to report a percentile with fewer than ten
// samples beyond it, sum-to-whole checks and relative-bound comparison.
package stats

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// Median returns the median of xs (mean of the two middle values for an
// even count) and 0 for an empty sample.
func Median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method): position i*(n+1)/4
// with linear interpolation, clamped to the sample. It needs at least two
// values; with fewer it returns the single value (or 0) three times.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Spread is the inter-quartile distance as a share of the median — the
// steadiness measure the driver bounds. It is +Inf when the median is 0.
func Spread(xs []float64) float64 {
	q1, _, q3 := Quartiles(xs)
	med := Median(xs)
	if med == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// MinBeyond is the number of samples that must lie beyond a reported tail
// percentile.
const MinBeyond = 10

// Tail is a tail percentile as reported: the value, the percentile it
// actually is, and whether that is the percentile that was asked for.
type Tail struct {
	Value float64
	P     float64
	Exact bool
}

// TailPercentile returns the p-th percentile (nearest rank, 0 < p < 1) of xs
// if at least MinBeyond samples lie beyond it. Otherwise it returns the
// highest percentile that does have MinBeyond samples beyond it, with Exact
// false so the caller can fail the run. A sample of MinBeyond values or
// fewer has no reportable tail: Value is the minimum and P is 0.
func TailPercentile(xs []float64, p float64) Tail {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return Tail{}
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if n-rank >= MinBeyond {
		return Tail{Value: s[rank-1], P: p, Exact: true}
	}
	rank = n - MinBeyond
	if rank < 1 {
		return Tail{Value: s[0]}
	}
	return Tail{Value: s[rank-1], P: float64(rank) / float64(n)}
}

// SumsToWhole reports the sum of parts and whether it is within tol (a
// share, e.g. 0.01) of whole.
func SumsToWhole(parts []float64, whole, tol float64) (sum float64, ok bool) {
	for _, p := range parts {
		sum += p
	}
	if whole == 0 {
		return sum, sum == 0
	}
	return sum, math.Abs(sum-whole) <= tol*math.Abs(whole)
}

// WorseBy returns by how much cur is worse than base, as a share of base:
// positive means worse, negative better. lowerIsBetter gives the metric's
// direction.
func WorseBy(base, cur float64, lowerIsBetter bool) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (cur - base) / math.Abs(base)
	if lowerIsBetter {
		return d
	}
	return -d
}

// WithinBound reports whether cur is no worse than base by more than bound.
func WithinBound(base, cur float64, lowerIsBetter bool, bound float64) bool {
	return WorseBy(base, cur, lowerIsBetter) <= bound
}
