// Package serve exposes MOMA's online resolution subsystem as an HTTP JSON
// service over a moma.System: resolve a record against a registered set,
// add or remove instances with incremental same-mapping deltas in the
// repository, read stored mappings, and observe health and request metrics.
// cmd/moma-serve is the thin binary wrapper; the package keeps the handlers
// testable in-process (httptest) and reusable from examples.
//
// Routes:
//
//	POST   /sets/{set}/resolve        resolve one record (no state change)
//	POST   /sets/{set}/instances      add (and by default resolve) a record
//	DELETE /sets/{set}/instances/{id} remove a record from the set and its live view
//	GET    /mappings/{name}           read a stored mapping
//	GET    /healthz                   liveness, uptime and resolver sizes
//	GET    /readyz                    readiness: not draining, repository healthy
//	GET    /metrics                   Prometheus text: the process registry (obs.Default)
//	GET    /debug/slow                recent slow-query traces (threshold-gated)
//	GET    /debug/vars                expvar JSON
//	GET    /debug/pprof/*             runtime profiles (index, profile, trace, ...)
//
// Adding an instance resolves it against the live members first and records
// the resulting correspondences in the repository mapping "live.<set>" —
// the arrival's same-mapping delta; nothing already resolved is re-matched
// (the incremental workflow style of rule-based matching processes).
// Removing an instance drops it from the resolver and from the registered
// set, and its correspondences from that mapping.
//
// The sets a server serves are bound when it is constructed: each resolver
// registered by then gets one immutable record (resolver, registered set,
// delta-mapping name, write mutex), and a request finds it with one map
// read. A resolve holds exactly one lock, the resolver's read lock. A write
// takes the set's mutex, then the resolver's lock, then the store's, in that
// order and never two sets' at once, so traffic against different sets does
// not contend. Route counters and latency histograms live on the process
// registry (internal/obs) beside the engine's series: recording a request
// is a few atomic adds, and GET /metrics is one exposition of one registry.
//
// The API surface sits behind a hardening layer (harden.go): a
// concurrency-cap admission controller (429 + Retry-After on overload),
// per-request deadlines, body-size caps (413), panic containment, and a
// graceful drain that flips /readyz before the listener closes.
package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	moma "repro"
	"repro/internal/live"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/obs"
)

// Server wires a moma.System to the HTTP API. Create with New or
// NewWithOptions.
type Server struct {
	sys   *moma.System
	mux   *http.ServeMux
	start time.Time
	opts  Options
	sets  map[string]*served // bound by NewWithOptions, never written again

	// Admission state (see harden.go): sem is the concurrency-cap
	// semaphore — a slot per admitted API request, non-blocking acquire,
	// excess shed with 429, so len(sem) is the in-flight count /readyz and
	// the drain log report; draining flips when Run begins its graceful
	// shutdown.
	sem      chan struct{}
	draining atomic.Bool
}

// served is one resolvable set as NewWithOptions found it.
type served struct {
	res   *live.Resolver
	set   *moma.ObjectSet
	delta string // the repository mapping "live.<set>"
	// mu serializes the set's state-changing requests and the readers of its
	// delta mapping: an add touches the resolver, the registered set and the
	// delta mapping together. Sets share nothing, so each has its own.
	mu sync.Mutex
}

// New returns a server over the system with default hardening options.
// The sets it serves are the ones with a resolver registered
// (System.RegisterResolver) at this moment: a resolver registered later is
// not served, and answers 404.
func New(sys *moma.System) *Server {
	return NewWithOptions(sys, Options{})
}

// NewWithOptions returns a server with explicit admission, deadline and
// drain settings (zero fields take the defaults). It binds the served sets
// as New describes.
func NewWithOptions(sys *moma.System, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		sys: sys, mux: http.NewServeMux(), start: time.Now(),
		opts: opts,
		sem:  make(chan struct{}, opts.MaxInFlight),
		sets: make(map[string]*served),
	}
	for _, name := range sys.ResolverNames() {
		res, _ := sys.Resolver(name)
		set, _ := sys.ObjectSetByName(name)
		s.sets[name] = &served{res: res, set: set, delta: deltaMappingPrefix + name}
	}
	// The registry outlives the server, so the callback holds the start time,
	// not the server; with several servers in a process the latest one reports.
	start := s.start
	obs.Default.GaugeFunc("moma_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(start).Seconds() })
	// Probe routes answer outside admission: an overloaded or draining
	// server must stay observable.
	s.route("GET /healthz", "healthz", s.handleHealthz)
	s.route("GET /readyz", "readyz", s.handleReadyz)
	// API routes go through the admission controller (harden.go).
	s.api("POST /sets/{set}/resolve", "resolve", s.handleResolve)
	s.api("POST /sets/{set}/instances", "add_instance", s.handleAddInstance)
	s.api("DELETE /sets/{set}/instances/{id}", "remove_instance", s.handleRemoveInstance)
	s.api("GET /mappings/{name}", "get_mapping", s.handleGetMapping)
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		obs.Default.WritePrometheus(w)
	})
	s.registerDebug()
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Run serves on addr until ctx is cancelled, then drains gracefully:
// readiness flips first (new API requests answer 503, /readyz reports
// unready) and in-flight requests get Options.DrainTimeout to finish.
func (s *Server) Run(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.serve(ctx, ln)
}

// serve runs the HTTP server over an existing listener — the seam the
// drain tests use (an httptest listener stands in for the real socket).
func (s *Server) serve(ctx context.Context, ln net.Listener) error {
	// A client that never finishes its headers is not admitted and so never
	// meets the request deadline; bound it here. The body is bounded in admit.
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: s.opts.RequestTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Flip readiness before touching the listener: load balancers watching
	// /readyz stop sending work, admission refuses what still arrives, and
	// the requests already admitted finish normally.
	s.draining.Store(true)
	accepted := len(s.sem)
	s.opts.Logf("moma-serve: draining, %d request(s) in flight, timeout %s", accepted, s.opts.DrainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), s.opts.DrainTimeout)
	defer cancel()
	shutdownErr := srv.Shutdown(shutdownCtx)
	s.opts.Logf("moma-serve: drained %d request(s)", accepted-len(s.sem))
	if shutdownErr != nil {
		return fmt.Errorf("serve: drain timed out: %w", shutdownErr)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// latencyBuckets are the request-latency histogram upper bounds in seconds,
// spanning the expected range of a resolver hit: tens of microseconds on
// warm indexes up to seconds for pathological queries.
var latencyBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// routeMetrics are one route's handles on the process registry, resolved
// when the route is installed. Handles are get-or-create by (name, labels),
// so every server of a process records into the same series.
type routeMetrics struct {
	label   string
	seconds *obs.Histogram
	// byCode holds moma_requests_total{route,code}, indexed by status code
	// and registered at a code's first answer, so a scrape lists only the
	// (route, code) pairs that occurred.
	byCode [600]atomic.Pointer[obs.Counter]
}

func newRouteMetrics(label string) *routeMetrics {
	return &routeMetrics{label: label, seconds: obs.Default.Histogram("moma_request_duration_seconds",
		"Request latency, by route.", latencyBuckets, fmt.Sprintf("route=%q", label))}
}

// record counts one finished request. Once a (route, code) has been seen it
// takes no lock and allocates nothing (TestRouteRecordZeroAllocs).
func (m *routeMetrics) record(code int, took time.Duration) {
	c := m.byCode[code].Load()
	if c == nil {
		c = obs.Default.Counter("moma_requests_total", "Requests served, by route and status code.",
			fmt.Sprintf(`route=%q,code="%d"`, m.label, code))
		m.byCode[code].Store(c)
	}
	c.Inc()
	m.seconds.Observe(took.Seconds())
}

// route installs an instrumented handler: every request is counted and its
// latency observed under the given metric label.
func (s *Server) route(pattern, label string, h func(http.ResponseWriter, *http.Request) (int, error)) {
	m := newRouteMetrics(label)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		code, err := h(w, r)
		if err != nil {
			writeJSON(w, code, map[string]string{"error": err.Error()})
		}
		m.record(code, time.Since(t0))
	})
}

// --- wire types ----------------------------------------------------------

// ResolveRequest asks a resolver to match one record.
type ResolveRequest struct {
	// ID optionally names the query record (echoed back; used as the domain
	// id of same-mapping deltas on the add path).
	ID string `json:"id,omitempty"`
	// Attrs are the record's attribute values.
	Attrs map[string]string `json:"attrs"`
	// Limit caps the returned matches to the top-n by similarity (0 = all).
	Limit int `json:"limit,omitempty"`
}

// ResolveResponse answers a resolve call.
type ResolveResponse struct {
	Set     string       `json:"set"`
	QueryID string       `json:"query_id,omitempty"`
	Matches []live.Match `json:"matches"`
	TookUS  int64        `json:"took_us"`
}

// MaxSetAttrs bounds the attribute names of a served set that an add may
// bring it to. The set keeps a value column per name, one entry per member,
// so a name costs every member a slot; an add that names more, or that
// would take a set past it with names the set does not hold yet, answers
// 400 and changes nothing. A set loaded with more names keeps them, and
// adds that use only those still succeed.
const MaxSetAttrs = 64

// AddInstanceRequest adds a record to a set's live view.
type AddInstanceRequest struct {
	ID    string            `json:"id"`
	Attrs map[string]string `json:"attrs"`
	// NoResolve skips the arrival resolution (and thus the same-mapping
	// delta) — a pure index update.
	NoResolve bool `json:"no_resolve,omitempty"`
}

// AddInstanceResponse answers an add call.
type AddInstanceResponse struct {
	Set     string       `json:"set"`
	ID      string       `json:"id"`
	Matches []live.Match `json:"matches"`
	// Mapping names the repository mapping holding the recorded delta
	// (empty with NoResolve or when nothing matched).
	Mapping string `json:"mapping,omitempty"`
}

// MappingResponse renders a stored mapping.
type MappingResponse struct {
	Name            string             `json:"name"`
	Domain          string             `json:"domain"`
	Range           string             `json:"range"`
	Type            string             `json:"type"`
	Len             int                `json:"len"`
	Correspondences []CorrespondenceJS `json:"correspondences"`
	Truncated       bool               `json:"truncated,omitempty"`
}

// CorrespondenceJS is one mapping row.
type CorrespondenceJS struct {
	Domain string  `json:"domain"`
	Range  string  `json:"range"`
	Sim    float64 `json:"sim"`
}

// HealthResponse reports liveness.
type HealthResponse struct {
	Status    string                    `json:"status"`
	UptimeS   float64                   `json:"uptime_s"`
	Resolvers map[string]ResolverHealth `json:"resolvers"`
	Mappings  int                       `json:"mappings"`
}

// ResolverHealth sizes one resolver.
type ResolverHealth struct {
	Live       int `json:"live"`
	Slots      int `json:"slots"`
	IndexTerms int `json:"index_terms"`
}

// --- handlers ------------------------------------------------------------

// handleHealthz reports liveness and per-resolver stats.
//
//moma:readpath
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) (int, error) {
	resp := HealthResponse{
		Status:    "ok",
		UptimeS:   time.Since(s.start).Seconds(),
		Resolvers: make(map[string]ResolverHealth, len(s.sets)),
		Mappings:  s.sys.Repo.Len(),
	}
	for name, sv := range s.sets {
		st := sv.res.Stats()
		resp.Resolvers[name] = ResolverHealth{Live: st.Live, Slots: st.Slots, IndexTerms: st.IndexTerms}
	}
	writeJSON(w, http.StatusOK, resp)
	return http.StatusOK, nil
}

// servedSet finds the request's set among those bound at construction.
func (s *Server) servedSet(r *http.Request) (string, *served, error) {
	name := r.PathValue("set")
	sv, ok := s.sets[name]
	if !ok {
		return name, nil, fmt.Errorf("no resolver for set %q", name)
	}
	return name, sv, nil
}

// matchBufs recycles the match slices of resolve requests.
var matchBufs = sync.Pool{New: func() any {
	buf := make([]live.Match, 0, 16) // never nil: no match encodes as [], not null
	return &buf
}}

// handleResolve resolves one query record against a set's live resolver.
// GET-shaped read traffic: it must stay lookup-only end to end.
//
//moma:readpath
func (s *Server) handleResolve(w http.ResponseWriter, r *http.Request) (int, error) {
	setName, sv, err := s.servedSet(r)
	if err != nil {
		return http.StatusNotFound, err
	}
	var req ResolveRequest
	if code, err := decodeBody(r, &req); code != 0 {
		return code, err
	}
	if len(req.Attrs) == 0 {
		return http.StatusBadRequest, fmt.Errorf("attrs must not be empty")
	}
	if code, err := deadlineStatus(r); code != 0 {
		return code, err
	}
	// The decoded attrs map is this request's own: the query reads it in place.
	q := model.Instance{ID: model.ID(req.ID), Attrs: req.Attrs}
	buf := matchBufs.Get().(*[]live.Match)
	defer matchBufs.Put(buf)
	t0 := time.Now()
	*buf = sv.res.ResolveAppend(&q, (*buf)[:0])
	took := time.Since(t0)
	matches := rank(*buf)
	if req.Limit > 0 && len(matches) > req.Limit {
		matches = matches[:req.Limit]
	}
	writeJSON(w, http.StatusOK, ResolveResponse{
		Set:     setName,
		QueryID: req.ID,
		Matches: matches,
		TookUS:  took.Microseconds(),
	})
	return http.StatusOK, nil
}

func (s *Server) handleAddInstance(w http.ResponseWriter, r *http.Request) (int, error) {
	setName, sv, err := s.servedSet(r)
	if err != nil {
		return http.StatusNotFound, err
	}
	var req AddInstanceRequest
	if code, err := decodeBody(r, &req); code != 0 {
		return code, err
	}
	if req.ID == "" {
		return http.StatusBadRequest, fmt.Errorf("id must not be empty")
	}
	if len(req.Attrs) > MaxSetAttrs {
		return http.StatusBadRequest, fmt.Errorf("%d attributes; an instance may have at most %d", len(req.Attrs), MaxSetAttrs)
	}
	// No copy: the resolver keeps no reference to in, and Add copies its
	// values into the set's columns.
	in := &model.Instance{ID: model.ID(req.ID), Attrs: req.Attrs}

	sv.mu.Lock()
	defer sv.mu.Unlock()
	// The lock wait can consume the whole request budget under contention;
	// don't start mutating for a caller that has already given up.
	if code, err := deadlineStatus(r); code != 0 {
		return code, err
	}
	if fresh := newAttrNames(sv.set, req.Attrs); fresh > 0 && sv.set.AttrCount()+fresh > MaxSetAttrs {
		return http.StatusBadRequest, fmt.Errorf("set %q has %d attribute names; %d new ones would pass the limit of %d",
			setName, sv.set.AttrCount(), fresh, MaxSetAttrs)
	}
	// A re-add replaces the instance: its correspondences in the delta
	// mapping describe the previous attribute values and must not survive.
	// This is the first fallible step, so a failure changes nothing.
	if sv.res.Has(in.ID) {
		if _, err := s.sys.Repo.DropTouching(sv.delta, in.ID); err != nil {
			return storageStatus(w, err)
		}
	}
	var matches []live.Match
	if req.NoResolve {
		err = sv.res.Add(in)
	} else {
		matches, err = sv.res.AddResolve(in)
	}
	if err != nil {
		return http.StatusBadRequest, err
	}
	// Keep the registered set in sync so later batch matches (and their
	// cached blocking structures, which key on the set's version) see the
	// arrival too. ObjectSet itself is not safe for concurrent mutation:
	// an embedding program must not run batch matches over a set while
	// also feeding it instances through this endpoint (the serve process
	// is assumed to own mutation of the sets it serves).
	sv.set.Add(in)
	resp := AddInstanceResponse{Set: setName, ID: req.ID, Matches: []live.Match{}}
	if len(matches) > 0 {
		// Record before ranking: the delta keeps the resolver's row order.
		if err := s.recordDeltaLocked(sv, in.ID, matches); err != nil {
			// The instance is live but its delta was not persisted; surface
			// that instead of answering 200 with a silently-missing mapping.
			// A degraded repository answers 503 + Retry-After (storageStatus)
			// so well-behaved clients back off until Recover lifts it, and
			// their retry is a replace, which resolves and records again.
			return storageStatus(w, fmt.Errorf("recording delta: %w", err))
		}
		resp.Matches, resp.Mapping = rank(matches), sv.delta
	}
	writeJSON(w, http.StatusOK, resp)
	return http.StatusOK, nil
}

// newAttrNames counts the names of attrs that no member of set has.
func newAttrNames(set *model.ObjectSet, attrs map[string]string) int {
	n := 0
	for name := range attrs {
		if !set.AttrKnown(name) {
			n++
		}
	}
	return n
}

func (s *Server) handleRemoveInstance(w http.ResponseWriter, r *http.Request) (int, error) {
	setName, sv, err := s.servedSet(r)
	if err != nil {
		return http.StatusNotFound, err
	}
	id := model.ID(r.PathValue("id"))
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if code, err := deadlineStatus(r); code != 0 {
		return code, err
	}
	if !sv.res.Has(id) {
		return http.StatusNotFound, fmt.Errorf("no live instance %q in %q", id, setName)
	}
	// Drop the instance's correspondences from the delta mapping first: it is
	// the one step that can fail, and failing before anything changed leaves
	// the client's retry a plain DELETE.
	if _, err := s.sys.Repo.DropTouching(sv.delta, id); err != nil {
		return storageStatus(w, err)
	}
	// The registered set follows the live view, as it does on add: a batch
	// match over the set after a DELETE no longer sees the instance, and a
	// server under add/remove churn keeps no record per removed instance.
	// Survivors keep their order and the set's version moves, so derived
	// columns are rebuilt at their next use (see the ownership note in
	// handleAddInstance).
	sv.res.Remove(id)
	sv.set.Remove(id)
	writeJSON(w, http.StatusOK, map[string]any{"set": setName, "id": string(id), "removed": true})
	return http.StatusOK, nil
}

// handleGetMapping serves a stored mapping page.
//
//moma:readpath
func (s *Server) handleGetMapping(w http.ResponseWriter, r *http.Request) (int, error) {
	name := r.PathValue("name")
	m, ok := s.sys.MappingByName(name)
	if !ok {
		return http.StatusNotFound, fmt.Errorf("no mapping %q", name)
	}
	limit := 100
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			return http.StatusBadRequest, fmt.Errorf("bad limit %q (want a non-negative integer)", q)
		}
		limit = n
	}
	writeJSON(w, http.StatusOK, s.mappingPage(name, m, limit))
	return http.StatusOK, nil
}

// mappingPage renders the first limit rows of a mapping. A served set's
// delta mapping mutates on that set's adds and removes, so it is read under
// the set's mutex (released before the response is written); no other
// mapping has a writer behind this server.
func (s *Server) mappingPage(name string, m *mapping.Mapping, limit int) MappingResponse {
	if set, isDelta := strings.CutPrefix(name, deltaMappingPrefix); isDelta {
		if sv, ok := s.sets[set]; ok {
			sv.mu.Lock()
			defer sv.mu.Unlock()
		}
	}
	resp := MappingResponse{
		Name:   name,
		Domain: m.Domain().String(),
		Range:  m.Range().String(),
		Type:   string(m.Type()),
		Len:    m.Len(),
	}
	// Stream rows off the columns with an early stop at the limit: a read
	// of the first 100 rows of a million-row mapping copies 100 rows, not
	// the table.
	ids := m.Dict().All()
	m.EachOrd(func(d, r uint32, sim float64) bool {
		if len(resp.Correspondences) >= limit {
			resp.Truncated = true
			return false
		}
		resp.Correspondences = append(resp.Correspondences, CorrespondenceJS{
			Domain: string(ids[d]), Range: string(ids[r]), Sim: sim,
		})
		return true
	})
	return resp
}

// recordDeltaLocked merges an arrival's matches into the set's delta
// same-mapping ("live.<set>") in the repository, creating it on first use.
// The store applies the rows and — for WAL-backed repositories — persists
// exactly these delta rows in the same critical section, so an acknowledged
// arrival survives a crash without rewriting the whole mapping per add.
// Callers hold the set's lock.
func (s *Server) recordDeltaLocked(sv *served, id model.ID, matches []live.Match) error {
	rows := make([]mapping.Correspondence, len(matches))
	for i, match := range matches {
		rows[i] = mapping.Correspondence{Domain: id, Range: match.ID, Sim: match.Sim}
	}
	lds := sv.res.LDS()
	return s.sys.Repo.PutDelta(sv.delta, lds, lds, model.SameMappingType, rows)
}

// deltaMappingPrefix prefixes the repository mappings accumulating a set's
// online same-mapping deltas.
const deltaMappingPrefix = "live."

// rank sorts matches in place by similarity descending (ties by id). The
// resolver returns set insertion order; an API consumer wants the best
// first.
func rank(matches []live.Match) []live.Match {
	slices.SortFunc(matches, func(a, b live.Match) int {
		if c := cmp.Compare(b.Sim, a.Sim); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return matches
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v) //moma:errsink-ok a failed write means the client hung up; nothing durable to lose
}
