package mapping

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Operator metrics: one histogram series per (op, workers) pair timing
// whole operator invocations, plus a rows counter per op counting output
// correspondences. Everything is recorded exactly once per operator call —
// never inside the per-row loops, which carry the package's zero-alloc and
// no-atomic-traffic budgets. The workers label is the resolved worker cap
// (par.Workers of the caller's request), the knob an operator run was
// configured with; the number of chunks actually run additionally shrinks
// with the input and would fragment the series per input size.
//
// Series handles are cached in a sync.Map keyed by (op, workers): label
// strings are built and the registry mutex taken only the first time a
// pair is seen, so steady-state recording is one lock-free map load plus
// the obs atomics.
var opMetricsCache sync.Map // key opMetricsKey -> *opSeries

type opMetricsKey struct {
	op      string
	workers int
}

type opSeries struct {
	seconds *obs.Histogram
	rows    *obs.Counter
}

func opSeriesFor(op string, workers int) *opSeries {
	key := opMetricsKey{op, workers}
	if s, ok := opMetricsCache.Load(key); ok {
		return s.(*opSeries)
	}
	labels := `op="` + op + `",workers="` + strconv.Itoa(workers) + `"`
	s := &opSeries{
		seconds: obs.Default.Histogram("moma_mapping_op_seconds",
			"Wall time of one mapping-operator invocation.", nil, labels),
		rows: obs.Default.Counter("moma_mapping_op_rows_total",
			"Output correspondences produced by mapping operators.", labels),
	}
	actual, _ := opMetricsCache.LoadOrStore(key, s)
	return actual.(*opSeries)
}

// observeOp records one finished operator invocation. Callers pass the
// resolved worker cap and the output row count; rows < 0 (operator error)
// records the duration only.
func observeOp(op string, workers int, start time.Time, rows int) {
	s := opSeriesFor(op, workers)
	s.seconds.Observe(time.Since(start).Seconds())
	if rows > 0 {
		s.rows.Add(uint64(rows))
	}
}
