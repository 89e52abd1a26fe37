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
//	GET    /metrics                   Prometheus text: route metrics + engine metrics
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
// The API surface sits behind a hardening layer (harden.go): a
// concurrency-cap admission controller (429 + Retry-After on overload),
// per-request deadlines, body-size caps (413), panic containment, and a
// graceful drain that flips /readyz before the listener closes.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	moma "repro"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/obs"
)

// Server wires a moma.System to the HTTP API. Create with New or
// NewWithOptions.
type Server struct {
	sys     *moma.System
	mux     *http.ServeMux
	metrics *metrics
	start   time.Time
	opts    Options

	// Admission state (see harden.go): sem is the concurrency-cap
	// semaphore — a slot per admitted API request, non-blocking acquire,
	// excess shed with 429; draining flips when Run begins its graceful
	// shutdown; inflight counts admitted requests for /readyz and the
	// drain log.
	sem      chan struct{}
	draining atomic.Bool
	inflight atomic.Int64

	// State-changing requests are serialized per object set, not globally:
	// an add touches the set's object set, resolver and delta mapping
	// together, but sets share nothing, so resolves and adds against
	// different sets never contend. locks lazily allocates one mutex per
	// set name (delta-mapping reads key by the set the mapping belongs to).
	locksMu sync.Mutex
	locks   map[string]*sync.Mutex // guarded by locksMu
}

// New returns a server over the system with default hardening options.
// Resolvers must already be registered (System.RegisterResolver) for their
// sets to be resolvable.
func New(sys *moma.System) *Server {
	return NewWithOptions(sys, Options{})
}

// NewWithOptions returns a server with explicit admission, deadline and
// drain settings (zero fields take the defaults).
func NewWithOptions(sys *moma.System, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		sys: sys, mux: http.NewServeMux(), metrics: newMetrics(), start: time.Now(),
		opts:  opts,
		sem:   make(chan struct{}, opts.MaxInFlight),
		locks: make(map[string]*sync.Mutex),
	}
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
		s.metrics.write(w)
		// Engine-side series (resolver stages, pipeline counters, store and
		// cache metrics) follow the route metrics in one scrape body.
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
	srv := &http.Server{Handler: s.Handler()}
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
	accepted := s.inflight.Load()
	s.opts.Logf("moma-serve: draining, %d request(s) in flight, timeout %s", accepted, s.opts.DrainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), s.opts.DrainTimeout)
	defer cancel()
	shutdownErr := srv.Shutdown(shutdownCtx)
	s.opts.Logf("moma-serve: drained %d request(s)", accepted-s.inflight.Load())
	if shutdownErr != nil {
		return fmt.Errorf("serve: drain timed out: %w", shutdownErr)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// lockFor returns the mutex shard of one object set, allocating it on first
// use. Handlers touching a set's mutable state (resolver membership, the
// registered object set, the live.<set> delta mapping) hold this lock, and
// only this lock, so traffic against different sets proceeds in parallel.
func (s *Server) lockFor(set string) *sync.Mutex {
	s.locksMu.Lock()
	defer s.locksMu.Unlock()
	mu, ok := s.locks[set]
	if !ok {
		mu = &sync.Mutex{}
		s.locks[set] = mu
	}
	return mu
}

// setOfMapping maps a repository mapping name to the lock shard guarding it:
// delta mappings "live.<set>" mutate under their set's lock; any other
// mapping is keyed by its own name (no writer shares it).
func setOfMapping(name string) string {
	return strings.TrimPrefix(name, deltaMappingPrefix)
}

// route installs an instrumented handler: every request is counted and its
// latency observed under the given metric label.
func (s *Server) route(pattern, label string, h func(http.ResponseWriter, *http.Request) (int, error)) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		code, err := h(w, r)
		if err != nil {
			writeJSON(w, code, map[string]string{"error": err.Error()})
		}
		s.metrics.observe(label, code, time.Since(t0))
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

// MatchResult is one returned match.
type MatchResult struct {
	ID  string  `json:"id"`
	Sim float64 `json:"sim"`
}

// ResolveResponse answers a resolve call.
type ResolveResponse struct {
	Set     string        `json:"set"`
	QueryID string        `json:"query_id,omitempty"`
	Matches []MatchResult `json:"matches"`
	TookUS  int64         `json:"took_us"`
}

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
	Set     string        `json:"set"`
	ID      string        `json:"id"`
	Matches []MatchResult `json:"matches"`
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
		Resolvers: make(map[string]ResolverHealth),
		Mappings:  s.sys.Repo.Len(),
	}
	for _, name := range s.sys.ResolverNames() {
		if res, ok := s.sys.Resolver(name); ok {
			st := res.Stats()
			resp.Resolvers[name] = ResolverHealth{Live: st.Live, Slots: st.Slots, IndexTerms: st.IndexTerms}
		}
	}
	writeJSON(w, http.StatusOK, resp)
	return http.StatusOK, nil
}

// handleResolve resolves one query record against a set's live resolver.
// GET-shaped read traffic: it must stay lookup-only end to end.
//
//moma:readpath
func (s *Server) handleResolve(w http.ResponseWriter, r *http.Request) (int, error) {
	setName := r.PathValue("set")
	res, ok := s.sys.Resolver(setName)
	if !ok {
		return http.StatusNotFound, fmt.Errorf("no resolver for set %q", setName)
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
	t0 := time.Now()
	matches := res.Resolve(model.NewInstance(model.ID(req.ID), req.Attrs))
	took := time.Since(t0)
	writeJSON(w, http.StatusOK, ResolveResponse{
		Set:     setName,
		QueryID: req.ID,
		Matches: rankMatches(matches, req.Limit),
		TookUS:  took.Microseconds(),
	})
	return http.StatusOK, nil
}

func (s *Server) handleAddInstance(w http.ResponseWriter, r *http.Request) (int, error) {
	setName := r.PathValue("set")
	res, ok := s.sys.Resolver(setName)
	if !ok {
		return http.StatusNotFound, fmt.Errorf("no resolver for set %q", setName)
	}
	var req AddInstanceRequest
	if code, err := decodeBody(r, &req); code != 0 {
		return code, err
	}
	if req.ID == "" {
		return http.StatusBadRequest, fmt.Errorf("id must not be empty")
	}
	in := model.NewInstance(model.ID(req.ID), req.Attrs)

	mu := s.lockFor(setName)
	mu.Lock()
	defer mu.Unlock()
	// The lock wait can consume the whole request budget under contention;
	// don't start mutating for a caller that has already given up.
	if code, err := deadlineStatus(r); code != 0 {
		return code, err
	}
	// A re-add replaces the instance: its correspondences in the delta
	// mapping describe the previous attribute values and must not survive.
	if res.Has(in.ID) {
		if err := s.dropFromDeltaLocked(setName, in.ID); err != nil {
			return storageStatus(w, err)
		}
	}
	var matches []moma.LiveMatch
	var err error
	if req.NoResolve {
		err = res.Add(in)
	} else {
		matches, err = res.AddResolve(in)
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
	if set, ok := s.sys.ObjectSetByName(setName); ok {
		set.Add(in)
	}
	resp := AddInstanceResponse{Set: setName, ID: req.ID, Matches: rankMatches(matches, 0)}
	if len(matches) > 0 {
		name, err := s.recordDeltaLocked(setName, res, model.ID(req.ID), matches)
		if err != nil {
			// The instance is live but its delta was not persisted; surface
			// that instead of answering 200 with a silently-missing mapping.
			// A degraded repository answers 503 + Retry-After (storageStatus)
			// so well-behaved clients back off until Recover lifts it.
			return storageStatus(w, fmt.Errorf("recording delta: %w", err))
		}
		resp.Mapping = name
	}
	writeJSON(w, http.StatusOK, resp)
	return http.StatusOK, nil
}

func (s *Server) handleRemoveInstance(w http.ResponseWriter, r *http.Request) (int, error) {
	setName := r.PathValue("set")
	id := model.ID(r.PathValue("id"))
	res, ok := s.sys.Resolver(setName)
	if !ok {
		return http.StatusNotFound, fmt.Errorf("no resolver for set %q", setName)
	}
	mu := s.lockFor(setName)
	mu.Lock()
	defer mu.Unlock()
	if code, err := deadlineStatus(r); code != 0 {
		return code, err
	}
	if !res.Remove(id) {
		return http.StatusNotFound, fmt.Errorf("no live instance %q in %q", id, setName)
	}
	// The registered set follows the live view, as it does on add: a batch
	// match over the set after a DELETE no longer sees the instance, and a
	// server under add/remove churn keeps no record per removed instance.
	// Survivors keep their order and the set's version moves, so derived
	// columns are rebuilt at their next use (see the ownership note in
	// handleAddInstance).
	if set, ok := s.sys.ObjectSetByName(setName); ok {
		set.Remove(id)
	}
	// Drop the removed instance's correspondences from the delta mapping.
	if err := s.dropFromDeltaLocked(setName, id); err != nil {
		return storageStatus(w, err)
	}
	writeJSON(w, http.StatusOK, map[string]any{"set": setName, "id": string(id), "removed": true})
	return http.StatusOK, nil
}

// dropFromDeltaLocked removes every correspondence touching id from the
// set's delta mapping. Store.DropTouching answers "does this id appear at
// all" from the mapping's posting lists first, so the common case —
// removing an instance that never matched anything — costs two posting
// probes; when rows do exist, removal walks only that id's postings
// (O(postings) swap-removes) instead of filtering and re-Put-ing the whole
// delta table, and a persistent repository logs a compact "drop" record
// rather than rewriting the full mapping. Callers hold the set's lock.
func (s *Server) dropFromDeltaLocked(setName string, id model.ID) error {
	_, err := s.sys.Repo.DropTouching(deltaMappingName(setName), id)
	return err
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
	// Serialize under the owning set's lock: live.<set> mappings mutate on
	// adds to that set (reads of other sets' mappings proceed in parallel).
	mu := s.lockFor(setOfMapping(name))
	mu.Lock()
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
	mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
	return http.StatusOK, nil
}

// recordDeltaLocked merges an arrival's matches into the set's delta
// same-mapping ("live.<set>") in the repository, creating it on first use.
// The store applies the rows and — for WAL-backed repositories — persists
// exactly these delta rows in the same critical section, so an acknowledged
// arrival survives a crash without rewriting the whole mapping per add.
// Callers hold the set's lock.
func (s *Server) recordDeltaLocked(setName string, res *moma.LiveResolver, id model.ID, matches []moma.LiveMatch) (string, error) {
	name := deltaMappingName(setName)
	rows := make([]mapping.Correspondence, len(matches))
	for i, match := range matches {
		rows[i] = mapping.Correspondence{Domain: id, Range: match.ID, Sim: match.Sim}
	}
	if err := s.sys.Repo.PutDelta(name, res.LDS(), res.LDS(), model.SameMappingType, rows); err != nil {
		return "", err
	}
	return name, nil
}

// deltaMappingPrefix prefixes the repository mappings accumulating a set's
// online same-mapping deltas.
const deltaMappingPrefix = "live."

// deltaMappingName names the delta mapping of one set.
func deltaMappingName(setName string) string { return deltaMappingPrefix + setName }

// rankMatches sorts by similarity descending (ties by id) and applies the
// limit. The resolver returns set insertion order; an API consumer wants
// the best first.
func rankMatches(matches []moma.LiveMatch, limit int) []MatchResult {
	out := make([]MatchResult, 0, len(matches))
	for _, m := range matches {
		out = append(out, MatchResult{ID: string(m.ID), Sim: m.Sim})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sim != out[j].Sim {
			return out[i].Sim > out[j].Sim
		}
		return out[i].ID < out[j].ID
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v) //moma:errsink-ok a failed write means the client hung up; nothing durable to lose
}
