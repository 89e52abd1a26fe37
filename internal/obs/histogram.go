package obs

import "sync/atomic"

// DefLatencyBuckets are the default histogram upper bounds in seconds for
// engine-side latencies: resolver stages sit in the single-digit
// microseconds, store compactions in the tens of milliseconds, pathological
// queries above that. The range deliberately starts two decades below the
// buckets internal/serve registers for moma_request_duration_seconds —
// stage tracing exists to show where inside a 76µs resolve the time goes.
var DefLatencyBuckets = []float64{
	0.000001, 0.0000025, 0.000005, 0.00001, 0.000025, 0.00005,
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// Histogram is a fixed-bucket histogram: upper bounds are set at
// registration, a record is one bucket add plus a count add and a CAS-summed
// float. Buckets hold per-bin (non-cumulative) counts; the scrape cumulates
// them, which both keeps the record path to a single cell and makes the
// emitted cumulative series monotonic by construction. Create with
// Registry.Histogram.
type Histogram struct {
	uppers []float64       // immutable after registration
	counts []atomic.Uint64 // len(uppers)+1; last bin is +Inf
	sum    atomicFloat
	count  atomic.Uint64
}

func newHistogram(uppers []float64) *Histogram {
	return &Histogram{uppers: uppers, counts: make([]atomic.Uint64, len(uppers)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.uppers) && v > h.uppers[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// snapshot returns the cumulative bucket counts (parallel to uppers, +Inf
// bin excluded — the +Inf count equals Count), plus sum and count read
// once. Bins are read low-to-high after the total, so a concurrent Observe
// can only make the reported buckets undercount relative to the reported
// total — cumulative monotonicity of the emitted lines is preserved.
func (h *Histogram) snapshot() (cum []uint64, sum float64, count uint64) {
	count = h.count.Load()
	sum = h.sum.Load()
	cum = make([]uint64, len(h.uppers))
	var run uint64
	for i := range h.uppers {
		run += h.counts[i].Load()
		if run > count {
			run = count
		}
		cum[i] = run
	}
	return cum, sum, count
}
