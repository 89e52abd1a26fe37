package obs

import (
	"testing"
	"time"

	"repro/internal/race"
)

// TestRecordPathsZeroAllocs pins the record and load paths: counters,
// gauges, histogram observes, span marks, a Stages.Finish that captures into
// the slow ring, and the loads that read them back must not allocate —
// instrumentation on the warm resolve path may not cost an allocation (the
// engine-wide gate is live's TestResolveAppendZeroAllocs).
func TestRecordPathsZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r := NewRegistry()
	ring := &SlowRing{}
	ring.SetThreshold(time.Nanosecond) // force every Finish into the ring
	c := r.Counter("t_alloc_total", "help")
	g := r.Gauge("t_alloc_gauge", "help")
	h := r.Histogram("t_alloc_seconds", "help", nil)
	st := NewStages(r, "t_alloc_op", "help", ring, "a", "b", "c")
	var sp Span
	id := "query-id"

	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Gauge.Set", func() { g.Set(9) }},
		{"Gauge.Add", func() { g.Add(-1) }},
		{"Histogram.Observe", func() { h.Observe(0.0001) }},
		{"Span+Finish+ring", func() {
			sp.Begin()
			sp.Mark(0)
			sp.Mark(1)
			sp.Mark(2)
			sp.Candidates, sp.Pruned, sp.Kept = 11, 6, 4
			st.Finish(&sp, id)
		}},
		{"Counter.Load", func() { sinkU = c.Load() }},
		{"Gauge.Load", func() { sinkI = g.Load() }},
		{"Histogram.Count", func() { sinkU = h.Count() }},
		{"Histogram.Sum", func() { sinkF = h.Sum() }},
		{"Span.StageNS", func() { sinkI = sp.StageNS(1) }},
		{"Span.Total", func() { sinkI = int64(sp.Total()) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(200, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %.0f times per run, want 0", tc.name, allocs)
		}
	}
}

// Sinks keep the loads above from being optimized away.
var (
	sinkU uint64
	sinkI int64
	sinkF float64
)
