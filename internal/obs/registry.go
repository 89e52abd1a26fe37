package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// Default is the process-global registry. Instrumented packages register
// their metrics here in package-level var blocks — internal/serve its route
// counters and latency histograms among them — and GET /metrics is one
// WritePrometheus of it.
var Default = NewRegistry()

// metricKind discriminates what a family holds.
type metricKind uint8

const (
	counterKind metricKind = iota
	gaugeKind
	gaugeFuncKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind, gaugeFuncKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	}
	return "untyped"
}

// family is one metric name: its help, kind and children keyed by
// pre-rendered label string ("" for the unlabeled series).
type family struct {
	name, help string
	kind       metricKind
	children   map[string]any // owned by the registry; mutated only under its mu
}

// Registry holds registered metrics. Registration takes a mutex and may
// allocate; record-time operations on the returned handles are lock-free
// and allocation-free. Scrapes (WritePrometheus) also take the mutex, but
// only to snapshot the family table — recording never touches it.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// familyFor returns the family for name get-or-create, panicking when the
// name is already registered under a different kind — metric wiring is
// static, so a kind clash is a programming error, not a runtime condition.
// Callers hold mu.
func (r *Registry) familyFor(name, help string, kind metricKind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, children: make(map[string]any)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.kind, kind))
	}
	return f
}

// Counter returns the unlabeled counter of name, registering it on first
// use. labels, if given, is a single pre-rendered label block such as
// `stage="score"` (no braces) identifying one series of the family.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, counterKind)
	key := labelKey(labels)
	if c, ok := f.children[key].(*Counter); ok {
		return c
	}
	c := &Counter{}
	f.children[key] = c
	return c
}

// Gauge returns the gauge of (name, labels), registering it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, gaugeKind)
	key := labelKey(labels)
	if g, ok := f.children[key].(*Gauge); ok {
		return g
	}
	g := &Gauge{}
	f.children[key] = g
	return g
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// the idiom for sizes owned elsewhere (dictionary lengths, cache entry
// counts) where pushing every change through a Gauge would couple the owner
// to its observer. fn must be safe to call from any goroutine. Re-registering
// the same (name, labels) replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, gaugeFuncKind)
	f.children[labelKey(labels)] = fn
}

// Histogram returns the histogram of (name, labels), registering it with
// the given bucket upper bounds on first use (nil means DefLatencyBuckets).
// Buckets are fixed at registration; a later call with different buckets
// returns the existing histogram unchanged.
func (r *Registry) Histogram(name, help string, uppers []float64, labels ...string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, histogramKind)
	key := labelKey(labels)
	if h, ok := f.children[key].(*Histogram); ok {
		return h
	}
	if uppers == nil {
		uppers = DefLatencyBuckets
	}
	h := newHistogram(uppers)
	f.children[key] = h
	return h
}

// labelKey joins pre-rendered label blocks into the child key.
func labelKey(labels []string) string {
	switch len(labels) {
	case 0:
		return ""
	case 1:
		return labels[0]
	}
	key := labels[0]
	for _, l := range labels[1:] {
		key += "," + l
	}
	return key
}

// WritePrometheus emits every registered metric in the Prometheus text
// exposition format: families sorted by name, series within a family sorted
// by label string, histogram buckets cumulative with a trailing +Inf. The
// ordering is a pure function of the registered names, so consecutive
// scrapes list series identically.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	type series struct {
		labels string
		m      any
	}
	type fam struct {
		name, help, typ string
		series          []series
	}
	fams := make([]fam, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		out := fam{name: name, help: f.help, typ: f.kind.String()}
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			out.series = append(out.series, series{labels: k, m: f.children[k]})
		}
		fams = append(fams, out)
	}
	r.mu.Unlock()

	// Emission happens outside the lock: the handles are atomic-read and the
	// family table snapshot above is private, so a stalled scraper never
	// blocks registration (or another scrape).
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			switch m := s.m.(type) {
			case *Counter:
				fmt.Fprintf(w, "%s%s %d\n", f.name, braced(s.labels), m.Load())
			case *Gauge:
				fmt.Fprintf(w, "%s%s %d\n", f.name, braced(s.labels), m.Load())
			case func() float64:
				fmt.Fprintf(w, "%s%s %s\n", f.name, braced(s.labels), formatFloat(m()))
			case *Histogram:
				cum, sum, count := m.snapshot()
				for i, ub := range m.uppers {
					fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, bracedLe(s.labels, formatFloat(ub)), cum[i])
				}
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, bracedLe(s.labels, "+Inf"), count)
				fmt.Fprintf(w, "%s_sum%s %s\n", f.name, braced(s.labels), formatFloat(sum))
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, braced(s.labels), count)
			}
		}
	}
}

// braced wraps a non-empty label block in braces.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// bracedLe appends the le label to a label block.
func bracedLe(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return "{" + labels + `,le="` + le + `"}`
}

// formatFloat renders a float the way Prometheus text format expects.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
