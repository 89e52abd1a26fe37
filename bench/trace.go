package main

import (
	"runtime"
	"sort"
	"strings"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the call (spans inside the program are a later issue). Times are
// nanoseconds since the tracer started; Counts are taken at the same
// boundary as the times.
type Span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"` // 0 for a root span
	Name    string             `json:"name"`
	StartNS int64              `json:"start_ns"`
	EndNS   int64              `json:"end_ns"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

// Tracer keeps spans in memory until the workload ends. It is used from
// one goroutine: probe sections are sequential, so spans nest strictly and
// a stack gives each span its parent. A nil *Tracer records nothing, which
// is how the same probe code runs untraced.
type Tracer struct {
	t0    time.Time
	spans []Span
	stack []int // indexes into spans of the open spans
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// OpenSpan is a started span; End closes it.
type OpenSpan struct {
	t   *Tracer
	idx int
}

// Start opens a span under the innermost open span.
func (t *Tracer) Start(name string) *OpenSpan {
	if t == nil {
		return nil
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].ID
	}
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartNS: int64(time.Since(t.t0))})
	t.stack = append(t.stack, len(t.spans)-1)
	return &OpenSpan{t: t, idx: len(t.spans) - 1}
}

// End closes the span, which must be the innermost open one.
func (s *OpenSpan) End() {
	if s == nil {
		return
	}
	s.t.spans[s.idx].EndNS = int64(time.Since(s.t.t0))
	s.t.stack = s.t.stack[:len(s.t.stack)-1]
}

// Count attaches a count to the span.
func (s *OpenSpan) Count(key string, v float64) {
	if s == nil {
		return
	}
	sp := &s.t.spans[s.idx]
	if sp.Counts == nil {
		sp.Counts = map[string]float64{}
	}
	sp.Counts[key] = v
}

// Time runs fn inside a span and returns how long it took. Untraced, it
// only times.
func (t *Tracer) Time(name string, fn func()) time.Duration {
	sp := t.Start(name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	sp.End()
	return d
}

// TimeEach runs fn(i) for i in [0,n), one span per call, and returns the
// per-call durations in microseconds.
func (t *Tracer) TimeEach(name string, n int, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(t.Time(name, func() { fn(i) })) / 1e3
	}
	return out
}

// LayerRow is one row of the per-layer table derived from a trace: all
// spans of one name. Self time is a span's duration minus the part its
// child spans cover.
type LayerRow struct {
	Layer  string  `json:"layer"` // module: the span name up to the first dot
	Name   string  `json:"name"`
	Calls  int     `json:"calls"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// Layers derives the per-layer table, sorted by self time, largest first.
func (t *Tracer) Layers() []LayerRow {
	if t == nil {
		return nil
	}
	covered := make(map[int]int64, len(t.spans)) // span id -> time covered by children
	for _, sp := range t.spans {
		if sp.Parent != 0 {
			covered[sp.Parent] += sp.EndNS - sp.StartNS
		}
	}
	rows := map[string]*LayerRow{}
	for _, sp := range t.spans {
		row := rows[sp.Name]
		if row == nil {
			layer, _, _ := strings.Cut(sp.Name, ".")
			row = &LayerRow{Layer: layer, Name: sp.Name}
			rows[sp.Name] = row
		}
		dur := sp.EndNS - sp.StartNS
		row.Calls++
		row.TotalS += float64(dur) / 1e9
		row.SelfS += float64(dur-covered[sp.ID]) / 1e9
	}
	out := make([]LayerRow, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfS != out[j].SelfS {
			return out[i].SelfS > out[j].SelfS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// probeRoot is the name of the span that wraps a probe section; its self
// time is what the layer spans leave unaccounted.
const probeRoot = "probes"

// Coverage is the share of the probe sections' wall time that the spans
// inside them account for: 1 - self(probes)/total(probes).
func (t *Tracer) Coverage() float64 {
	for _, row := range t.Layers() {
		if row.Name == probeRoot && row.TotalS > 0 {
			return 1 - row.SelfS/row.TotalS
		}
	}
	return 0
}

// probeTwice runs a workload's probe section twice — untraced (pass 0), then
// under tr (pass 1) — each time after a collection and inside the root span,
// and records trace.overhead_share: (traced - untraced wall) / untraced. The
// traced pass gives the per-layer numbers. A section returns the time it
// spent on probes only the traced pass runs; that is left out of the
// comparison.
func probeTwice(res *Result, tr *Tracer, section func(pass int, t *Tracer) (excluded time.Duration, err error)) error {
	var wall [2]time.Duration
	for pass, t := range []*Tracer{nil, tr} {
		runtime.GC()
		root := t.Start(probeRoot)
		t0 := time.Now()
		excluded, err := section(pass, t)
		root.End()
		if err != nil {
			return err
		}
		wall[pass] = time.Since(t0) - excluded
	}
	res.layer("trace.overhead_share", (wall[1]-wall[0]).Seconds()/wall[0].Seconds())
	return nil
}

// traceFile is what a traced workload writes to out/<workload>.trace.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []Span `json:"spans"`
}
