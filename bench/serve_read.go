package main

// Workload serve_read: read-only resolve traffic against a selective
// resident set (n = 100 000, eight-word titles over n/5 words) served by the
// real moma-serve binary over loopback. The vocabulary is sized so the
// engine's Resolve is at most a quarter of the client-observed median: HTTP
// decode, model.NewInstance, ranking, JSON encode and the request metrics
// dominate. A serve-layer change must show here; an engine-only change must
// not.
//
// This file also holds what both serve workloads share: the server
// environment, the two load phases and the in-process resolve probes. Every
// call into the program's packages that serve_read makes is in this file.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	moma "repro"
	"repro/bench/stats"
	"repro/bench/worldgen"
	"repro/internal/live"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/sim"
)

// resolveLimit is the limit every resolve request asks for.
const resolveLimit = 10

// Request kinds, indexes into phaseResult.lat.
const (
	kindResolve = iota
	kindAdd
	kindRemove
	numKinds
)

// serveEnv is one serve workload's server and client.
type serveEnv struct {
	o       options
	res     *Result
	bin     string
	setName string
	args    []string // moma-serve flags after -addr
	srv     *server
	hc      *http.Client
	starts  int
}

// newServeEnv writes the resident set as the CSV directory moma-serve
// loads, and builds the binary.
func newServeEnv(o options, res *Result, set *model.ObjectSet, args ...string) (*serveEnv, error) {
	dataDir := filepath.Join(o.tmpDir, "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	if err := worldgen.WriteSetCSV(filepath.Join(dataDir, "resident.csv"), set); err != nil {
		return nil, err
	}
	bin, err := buildServe(filepath.Join(o.outDir, "bin"))
	if err != nil {
		return nil, err
	}
	lds := set.LDS()
	setName := string(lds.Source) + "." + string(lds.Type)
	return &serveEnv{
		o: o, res: res, bin: bin, setName: setName,
		args: append([]string{"-data", dataDir, "-sets", setName}, args...),
		hc:   newHTTPClient(runtime.NumCPU() + 2),
	}, nil
}

// start launches the server and waits for readiness, returning exec-to-ready.
func (e *serveEnv) start() (time.Duration, error) {
	e.starts++
	srv, ready, err := startServer(e.bin, filepath.Join(e.o.tmpDir, fmt.Sprintf("serve-%d.log", e.starts)), e.args...)
	if err != nil {
		return 0, err
	}
	e.srv = srv
	return ready, nil
}

func (e *serveEnv) stop() error {
	srv := e.srv
	e.srv = nil
	e.hc.CloseIdleConnections()
	return srv.stop()
}

// setupRepeats is how often a workload sets up: set-up is short and at the
// mercy of the host (exec, page cache, a 25 % slower minute), so setup_s is
// the median of three.
const setupRepeats = 3

// measureSetup starts the server setupRepeats times, stopping it again
// after all but the last, and records the median exec-to-ready as setup_s.
func (e *serveEnv) measureSetup() error {
	var ready []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			if err := e.stop(); err != nil {
				return err
			}
		}
		d, err := e.start()
		if err != nil {
			return err
		}
		ready = append(ready, d.Seconds())
	}
	e.res.e2e("setup_s", stats.Median(ready))
	return nil
}

func (e *serveEnv) url(path string) *url.URL {
	u, err := url.Parse(e.srv.url + path)
	if err != nil {
		panic(err) // the paths are the benchmark's own
	}
	return u
}

// loadResult is what the load measured.
type loadResult struct {
	slices       []*phaseResult // the 1-client phase, cut into slices of equal length
	whole        *phaseResult   // the slices together
	prom         [2]promSample  // server metrics around the 1-client phase
	rssMB        float64        // the server's peak resident set after the 1-client phase
	thr          *phaseResult   // the nproc-client phase; traced runs only
	thrCPU       float64        // server CPU seconds over the nproc-client phase
	thrMem       [2]serverMem
	ops, failed  int // every operation sent, warm-up included
	nprocClients int
}

// join merges phases that ran one after another into one.
func join(parts []*phaseResult) *phaseResult {
	out := &phaseResult{clients: parts[0].clients, lat: make([][]float64, len(parts[0].lat))}
	for _, p := range parts {
		out.wall += p.wall
		out.ops += p.ops
		out.failed += p.failed
		out.overhead += p.overhead
		for k := range p.lat {
			out.lat[k] = append(out.lat[k], p.lat[k]...)
		}
	}
	return out
}

// load runs the measured traffic. One client, closed loop, for --seconds
// after a warm-up, cut into slices of sliceLen with a sample of the host's
// speed after each: every end-to-end latency and the rate are computed per
// slice and the run reports the calm quartile of the slices (hostref.go), so
// seconds the host disturbed do not count as the program's. One client and
// one server are as many runnable threads as the sandbox has cores; traced
// runs add a phase at nproc clients, where generator and server compete for
// the cores, for the per-layer metrics only. The server's own counters are
// read at the phase boundaries, outside the timed slices.
func (e *serveEnv) load(src source, host *hostProbe, sliceLen time.Duration) (*loadResult, error) {
	warm1, warmN, thrPhase := 3*time.Second, time.Second, 6*time.Second
	n := int(time.Duration(e.o.seconds) * time.Second / sliceLen)
	if e.o.quick {
		warm1, warmN, thrPhase, sliceLen, n = 200*time.Millisecond, 100*time.Millisecond, 500*time.Millisecond, 100*time.Millisecond, 5
	}
	out := &loadResult{nprocClients: runtime.NumCPU()}
	tally := func(p *phaseResult) { out.ops += p.ops; out.failed += p.failed }
	var err error

	release, err := bindLoad(e.srv.pid())
	if err != nil {
		// A sandbox that forbids binding still gets a measurement, a noisier one.
		e.res.note("flag_unbound", "client and server could not be bound to one CPU: %v", err)
		release = func() error { return nil }
	}
	tally(runPhase(e.hc, src, 1, numKinds, warm1))
	if out.prom[0], err = e.srv.scrape(e.hc); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		out.slices = append(out.slices, runPhase(e.hc, src, 1, numKinds, sliceLen))
		if err := host.sample(); err != nil {
			return nil, err
		}
	}
	if err := release(); err != nil {
		return nil, err
	}
	out.whole = join(out.slices)
	tally(out.whole)
	if out.prom[1], err = e.srv.scrape(e.hc); err != nil {
		return nil, err
	}
	if out.rssMB, err = peakRSSMB(e.srv.pid()); err != nil {
		return nil, err
	}
	if !e.o.trace {
		return out, nil
	}

	tally(runPhase(e.hc, src, out.nprocClients, numKinds, warmN))
	if out.thrMem[0], err = e.srv.memstats(e.hc); err != nil {
		return nil, err
	}
	cpu0, err := cpuSeconds(e.srv.pid())
	if err != nil {
		return nil, err
	}
	out.thr = runPhase(e.hc, src, out.nprocClients, numKinds, thrPhase)
	tally(out.thr)
	cpu1, err := cpuSeconds(e.srv.pid())
	if err != nil {
		return nil, err
	}
	out.thrCPU = cpu1 - cpu0
	if out.thrMem[1], err = e.srv.memstats(e.hc); err != nil {
		return nil, err
	}
	return out, nil
}

// perSlice computes one value per slice.
func (l *loadResult) perSlice(f func(*phaseResult) float64) []float64 {
	out := make([]float64, len(l.slices))
	for i, p := range l.slices {
		out[i] = f(p)
	}
	return out
}

// calmPercentile is the calm quartile, over the slices, of one kind's p-th
// latency percentile within each slice. Every slice must have ten samples
// beyond its percentile; quick slices are too short for that, and their
// numbers are never recorded.
func (l *loadResult) calmPercentile(res *Result, what string, kind int, p float64) float64 {
	short := 0
	vals := l.perSlice(func(s *phaseResult) float64 {
		t := stats.TailPercentile(s.lat[kind], p)
		if !t.Exact {
			short++
		}
		return t.Value
	})
	if short > 0 && !res.Quick {
		res.fail("%s: %d of %d slices have fewer than ten samples beyond their p%g", what, short, len(vals), p*100)
	}
	return calm(vals)
}

// recordLoad turns the load into the end-to-end metrics both serve
// workloads share and the per-layer metrics read off the server.
func (e *serveEnv) recordLoad(l *loadResult) {
	res := e.res
	res.Attempted, res.Failed = l.ops, l.failed
	res.e2e("failed_share", float64(l.failed)/float64(l.ops))
	if l.failed > 0 {
		res.fail("%d of %d operations failed (non-2xx or transport error); failed_share must be 0", l.failed, l.ops)
	}
	res.e2e("peak_rss_mb", l.rssMB)
	p50 := calm(l.perSlice(func(s *phaseResult) float64 { return stats.Median(s.lat[kindResolve]) }))
	res.e2e("resolve_p50_us", p50)
	res.e2e("throughput_rps", brisk(l.perSlice((*phaseResult).rps)))
	res.note("samples", "1 client: %d ops in %d slices of %.2fs", l.whole.ops, len(l.slices), l.whole.wall.Seconds()/float64(len(l.slices)))

	overhead := float64(l.whole.overhead) / 1e3 / float64(l.whole.ops)
	if overhead > 0.05*p50 {
		res.note("flag_client_overhead", "generator spends %.1f us per op outside the HTTP call, over 5%% of the %.1f us median", overhead, p50)
	}
	if !res.Traced {
		return
	}
	res.layer("client.overhead_us", overhead)
	// The whole phase's tail: every stall counts at its full weight, the
	// host's with the program's. Not gated, for that reason.
	res.layer("client.resolve_p99_us", l.whole.p99(kindResolve).Value)
	res.layer("client.rps_cN", l.thr.rps())
	res.layer("client.resolve_p50_us_cN", stats.Median(l.thr.lat[kindResolve]))
	res.layer("client.resolve_p99_us_cN", l.thr.p99(kindResolve).Value)
	res.note("samples_cN", "%d clients: %d ops in %.2fs", l.nprocClients, l.thr.ops, l.thr.wall.Seconds())

	ops := float64(l.thr.ops)
	res.layer("server.cpu_us_per_req", l.thrCPU*1e6/ops)
	res.layer("server.alloc_bytes_per_req", (l.thrMem[1].TotalAlloc-l.thrMem[0].TotalAlloc)/ops)
	res.layer("server.gc_per_1k_req", (l.thrMem[1].NumGC-l.thrMem[0].NumGC)*1000/ops)

	// Engine stage shares over the 1-client phase, from the server's own
	// stage histograms.
	a, b := l.prom[0], l.prom[1]
	total := delta(a, b, "moma_live_resolve_seconds_sum")
	stage := func(name string) float64 {
		key := `moma_live_resolve_stage_seconds_sum{stage="` + name + `"}`
		if total == 0 {
			return 0
		}
		return (b[key] - a[key]) / total
	}
	res.layer("live.stage_block_share", stage("block"))
	res.layer("live.stage_profile_share", stage("profile"))
	res.layer("live.stage_score_share", stage("score"))
	if resolves := delta(a, b, "moma_live_resolves_total"); resolves > 0 {
		res.layer("live.candidates_per_resolve", delta(a, b, "moma_live_resolve_candidates_total")/resolves)
		res.layer("live.matches_per_resolve", delta(a, b, "moma_live_resolve_matches_total")/resolves)
	}
}

// tookUS extracts the server-reported took_us of a resolve reply.
func tookUS(reply []byte) (float64, bool) {
	const key = `"took_us":`
	i := bytes.Index(reply, []byte(key))
	if i < 0 {
		return 0, false
	}
	j := i + len(key)
	k := j
	for k < len(reply) && reply[k] >= '0' && reply[k] <= '9' {
		k++
	}
	v, err := strconv.Atoi(string(reply[j:k]))
	return float64(v), err == nil
}

// idNeedle is the byte pattern of one match id in a reply.
func idNeedle(id model.ID) []byte { return []byte(`"id":"` + string(id) + `"`) }

// readSource feeds resolve-only traffic: client c takes queries c, c+m,
// c+2m, ... (m = maxClients) so no two clients send the same query.
type readSource struct {
	url        *url.URL
	bodies     [][]byte
	needles    [][]byte
	maxClients int
	cursor     []int
	hits, sent []int
	took       [][]float64
}

func newReadSource(u *url.URL, queries []worldgen.Query, maxClients int) *readSource {
	s := &readSource{
		url: u, maxClients: maxClients,
		cursor: make([]int, maxClients), hits: make([]int, maxClients), sent: make([]int, maxClients),
		took: make([][]float64, maxClients),
	}
	for _, q := range queries {
		s.bodies = append(s.bodies, worldgen.ResolveBody(q.Title, resolveLimit))
		s.needles = append(s.needles, idNeedle(q.True))
	}
	return s
}

func (s *readSource) next(client int) request {
	i := (s.cursor[client]*s.maxClients + client) % len(s.bodies)
	s.cursor[client]++
	return request{kind: kindResolve, method: http.MethodPost, url: s.url, body: s.bodies[i], tag: i}
}

func (s *readSource) done(client int, r request, status int, reply []byte) {
	if status != http.StatusOK {
		return
	}
	s.sent[client]++
	if bytes.Contains(reply, s.needles[r.tag]) {
		s.hits[client]++
	}
	if t, ok := tookUS(reply); ok {
		s.took[client] = append(s.took[client], t)
	}
}

// hitShare is the share of answered resolves whose reply held the true match.
func hitShare(hits, sent []int) float64 {
	var h, n int
	for i := range sent {
		h += hits[i]
		n += sent[i]
	}
	if n == 0 {
		return 0
	}
	return float64(h) / float64(n)
}

// readSlice is the length of serve_read's slices: some 6 000 resolves each,
// sixty beyond a slice's p99.
const readSlice = time.Second

func runServeRead(o options) (*Result, error) {
	res := newResult(wlServeRead, o)
	n := 100_000
	if o.quick {
		n = 2_000
	}
	res.note("resident", "%d instances, 8-word titles over %d words", n, n/5)
	set := worldgen.SelectiveSet(o.seed, n)
	queries := worldgen.SelectiveQueries(o.seed, set, n)

	env, err := newServeEnv(o, res, set, "-min-shared", "3", "-threshold", "0.7", "-measure", "trigram")
	if err != nil {
		return nil, err
	}
	if err := env.measureSetup(); err != nil {
		return nil, err
	}
	src := newReadSource(env.url("/sets/"+env.setName+"/resolve"), queries, runtime.NumCPU())
	l, err := env.load(src, o.host, readSlice)
	if err != nil {
		return nil, err
	}
	if err := env.stop(); err != nil {
		return nil, err
	}
	env.recordLoad(l)
	res.e2e("resolve_p90_us", l.calmPercentile(res, "resolve", kindResolve, 0.90))
	res.e2e("resolve_p99_us", l.calmPercentile(res, "resolve", kindResolve, 0.99))
	hit := hitShare(src.hits, src.sent)
	res.e2e("resolve_hit_share", hit)
	if hit < 0.99 {
		res.fail("resolve_hit_share %.4f is below 0.99", hit)
	}
	res.layer("serve.took_us_p50", stats.Median(slices.Concat(src.took...)))

	if o.trace {
		cfg := live.Config{MinShared: 3, Threshold: 0.7, Columns: []live.Column{{QueryAttr: "title", SetAttr: "title", Sim: sim.Trigram}}}
		probeQueries := make([]probeQuery, min(2000, len(queries)/4))
		for i := range probeQueries {
			probeQueries[i] = probeQuery{title: queries[i].Title, body: src.bodies[i]}
		}
		tr := newTracer()
		if err := probeTwice(res, tr, func(_ int, t *Tracer) (time.Duration, error) {
			resolveProbes(t, res, moma.NewSystem(), set, env.setName, cfg, probeQueries)
			return 0, nil
		}); err != nil {
			return nil, err
		}
		deriveServeLayers(res)
		finishTrace(res, tr, o)
	}
	res.Correct = len(res.Failures) == 0
	return res, nil
}

// probeQuery is one resolve query for the in-process probes: the title for
// the direct Resolve call and the wire body for the handler.
type probeQuery struct {
	title string
	body  []byte
}

// discardWriter is the http.ResponseWriter the handler probes write into: a
// preallocated header map and buffer, so what is measured is the handler's
// own work and allocation, not a recorder's.
type discardWriter struct {
	header http.Header
	buf    []byte
	status int
}

func newDiscardWriter() *discardWriter {
	return &discardWriter{header: make(http.Header, 4), buf: make([]byte, 0, 4096)}
}

func (w *discardWriter) Header() http.Header  { return w.header }
func (w *discardWriter) WriteHeader(code int) { w.status = code }
func (w *discardWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// handlerRequest builds an in-process request for the server's handler.
func handlerRequest(method, path string, body []byte) *http.Request {
	req, err := http.NewRequest(method, "http://bench"+path, bytes.NewReader(body))
	if err != nil {
		panic(err) // the paths are the benchmark's own
	}
	return req
}

// resolveProbes builds the workload's set and resolver configuration in this
// process — moma.NewSystem + RegisterResolver + serve's handler, the same
// wiring cmd/moma-serve does — and times the engine and the handler on the
// workload's own queries, with no network in between. It returns the
// resolver and handler for the mixed workload's write probes.
func resolveProbes(tr *Tracer, res *Result, sys *moma.System, set *model.ObjectSet, setName string, cfg live.Config, queries []probeQuery) (*live.Resolver, http.Handler) {
	if err := sys.AddObjectSet(setName, set); err != nil {
		panic(err) // a fresh system has no such set
	}
	var r *live.Resolver
	res.layer("live.new_resolver_s", tr.Time("live.new_resolver", func() {
		var err error
		if r, err = sys.RegisterResolver(setName, cfg); err != nil {
			panic(err) // the configuration is the benchmark's own
		}
	}).Seconds())
	handler := serve.NewWithOptions(sys, serve.Options{}).Handler()

	// Everything a call needs is built before the timed loops, so the
	// allocation counts are the callee's. The benchmark's own preparation is
	// a span too, so that the trace accounts for the whole section.
	instances := make([]*model.Instance, len(queries))
	requests := make([]*http.Request, len(queries))
	writers := make([]*discardWriter, len(queries))
	path := "/sets/" + setName + "/resolve"
	tr.Time("bench.prepare", func() {
		for i, q := range queries {
			instances[i] = model.NewInstance("", map[string]string{"title": q.title})
			requests[i] = handlerRequest(http.MethodPost, path, q.body)
			writers[i] = newDiscardWriter()
		}
		runtime.GC()
	})
	n := float64(len(queries))

	m0 := readMem()
	engine := tr.TimeEach("live.resolve", len(queries), func(i int) { r.Resolve(instances[i]) })
	mem := memSince(m0)
	res.layer("live.resolve_us", stats.Median(engine))
	res.layer("live.resolve_allocs_op", mem.Mallocs/n)
	res.layer("live.resolve_bytes_op", mem.Bytes/n)

	tr.Time("bench.prepare", runtime.GC)
	m0 = readMem()
	handled := tr.TimeEach("serve.resolve_handler", len(queries), func(i int) { handler.ServeHTTP(writers[i], requests[i]) })
	mem = memSince(m0)
	for i, w := range writers {
		if w.status != http.StatusOK {
			res.fail("in-process resolve %d answered %d: %s", i, w.status, w.buf)
			break
		}
	}
	res.layer("serve.resolve_handler_us", stats.Median(handled))
	res.layer("serve.resolve_handler_allocs_op", mem.Mallocs/n)
	res.layer("serve.resolve_handler_bytes_op", mem.Bytes/n)
	return r, handler
}

// deriveServeLayers computes the per-layer metrics that are differences and
// ratios of measured ones.
func deriveServeLayers(res *Result) {
	p50 := res.EndToEnd["resolve_p50_us"].Value
	engine := res.PerLayer["live.resolve_us"].Value
	handler := res.PerLayer["serve.resolve_handler_us"].Value
	res.layer("serve.resolve_self_us", handler-engine)
	res.layer("http.gap_us", p50-handler)
	res.layer("live.resolve_share", engine/p50)
}
