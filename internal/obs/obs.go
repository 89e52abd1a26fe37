// Package obs is MOMA's dependency-free observability core: counters,
// gauges and fixed-bucket histograms allocated at registration time and
// recorded with a few atomic operations, a process-global registry with
// deterministic Prometheus text exposition, and a stage-trace facility
// (Stages/Span) that times named pipeline stages into caller-owned scratch
// and captures recent slow queries in a ring buffer.
//
// # Why another metrics core
//
// The engine's hot paths carry allocation budgets: a warm
// live.Resolver.ResolveAppend allocates nothing, pinned by
// testing.AllocsPerRun gates. Instrumentation that allocates — a label-map
// lookup, a string key build, a histogram bucket append — would void those
// budgets the moment it was added, so the record paths here obey the same
// contract, pinned by TestRecordPathsZeroAllocs:
//
//   - Counter.Inc/Add and Gauge.Set/Add are single atomic operations.
//   - Histogram.Observe is one bucket index scan over a registration-time
//     bucket slice plus three atomic operations (bucket, count, CAS-summed
//     float). Buckets store per-bin counts and are cumulated at scrape time,
//     so a record touches exactly one bucket cell.
//   - Span.Mark reads the monotonic clock and adds into a fixed array owned
//     by the caller (the resolver embeds its Span in pooled scratch).
//   - SlowRing.record retains the query id by string header (no copy) under
//     a mutex taken only for threshold-exceeding queries — "lock-cheap": the
//     warm path pays an atomic threshold load and a branch.
//
// Plain atomics were chosen over padded per-CPU shards: a Resolve records
// ~10 atomic adds on distinct cache lines per query, and at the measured
// ~76µs/op even heavily contended adds are noise. Shards would buy nothing
// until single-counter traffic approaches millions of records per second.
//
// # Registration and exposition
//
// Metrics are registered get-or-create on a Registry (usually the
// process-global Default): registering the same (name, labels) twice returns
// the same handle, so package-level var blocks in instrumented packages
// stay idempotent under repeated test binaries and multiple resolvers.
// Labels are pre-rendered strings fixed at registration (`stage="score"`),
// never built at record time. WritePrometheus emits the text exposition
// format with families sorted by name and series sorted by label string —
// the output ordering is deterministic across scrapes, which the repo's
// determinism invariant (moma-vet mapiter) demands of every observable
// output.
package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. Create with
// Registry.Counter; the zero value works but is unregistered.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value. Create with Registry.Gauge.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to decrement).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// atomicFloat accumulates a float64 sum with compare-and-swap — the
// histogram sum needs float addition without a mutex.
type atomicFloat struct {
	bits atomic.Uint64
}

// Add adds v to the sum.
func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Load returns the current sum.
func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }
