package serve

// Overload and failure hardening for the API surface: a concurrency-cap
// admission controller that sheds excess load with 429 + Retry-After
// instead of queueing it, per-request deadlines (the request context's and,
// with the same timeout, the connection's for reading headers and body),
// request-body size caps (413), panic containment (500 +
// moma_serve_panics_total, never a dead process), a /readyz distinct from
// /healthz — liveness is "the process answers", readiness is "send me
// traffic": draining or a degraded repository flips readiness while
// liveness stays green — and a graceful drain that flips readiness before
// the listener closes. Probe and observability routes (/healthz, /readyz,
// /metrics, /debug/*) bypass admission: an operator must be able to look at
// an overloaded server.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// Admission and deadline defaults (Options zero values).
const (
	DefaultMaxInFlight    = 256
	DefaultRequestTimeout = 10 * time.Second
	DefaultMaxBodyBytes   = int64(1 << 20)
	DefaultDrainTimeout   = 5 * time.Second
)

// Options tunes the hardening layer. The zero value means the defaults
// above; New uses them unchanged.
type Options struct {
	// MaxInFlight caps concurrently admitted API requests; excess requests
	// are shed immediately with 429 and a Retry-After header rather than
	// queued (queues melt under sustained overload, sheds don't).
	MaxInFlight int
	// RequestTimeout bounds each admitted API request; handlers observe the
	// deadline through the request context.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies on body-accepting routes; larger
	// bodies answer 413.
	MaxBodyBytes int64
	// DrainTimeout bounds the graceful drain after Run's context ends.
	DrainTimeout time.Duration
	// Logf receives operational log lines (drain progress, panics). nil
	// discards them.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = DefaultMaxInFlight
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = DefaultRequestTimeout
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = DefaultDrainTimeout
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Hardening metrics, on the shared engine registry so one /metrics scrape
// carries them alongside the store and resolver series.
var (
	servePanics = obs.Default.Counter("moma_serve_panics_total",
		"Handler panics contained by the recovery middleware.")
	serveShed = obs.Default.Counter("moma_serve_shed_total",
		"API requests shed with 429 by the admission controller.")
	serveInflight = obs.Default.Gauge("moma_serve_inflight",
		"API requests currently admitted and executing.")
)

// api installs an instrumented API route behind the admission controller;
// probe routes use route directly.
func (s *Server) api(pattern, label string, h func(http.ResponseWriter, *http.Request) (int, error)) {
	s.route(pattern, label, s.admit(label, h))
}

// admit wraps an API handler with the hardening middleware: drain refusal,
// concurrency-cap shedding, the per-request deadline, the body-size cap,
// and panic containment. Order matters — shedding happens before any work,
// and the recover covers everything after admission.
func (s *Server) admit(label string, h func(http.ResponseWriter, *http.Request) (int, error)) func(http.ResponseWriter, *http.Request) (int, error) {
	return func(w http.ResponseWriter, r *http.Request) (code int, err error) {
		if s.draining.Load() {
			w.Header().Set("Retry-After", "1")
			return http.StatusServiceUnavailable, fmt.Errorf("server is draining")
		}
		select {
		case s.sem <- struct{}{}:
		default:
			serveShed.Inc()
			w.Header().Set("Retry-After", "1")
			return http.StatusTooManyRequests, fmt.Errorf("server at capacity (%d requests in flight)", cap(s.sem))
		}
		defer func() { <-s.sem }()
		serveInflight.Add(1)
		defer serveInflight.Add(-1)
		defer func() {
			if p := recover(); p != nil {
				servePanics.Inc()
				s.opts.Logf("moma-serve: panic in %s: %v\n%s", label, p, debug.Stack())
				code, err = http.StatusInternalServerError, fmt.Errorf("internal error")
			}
		}()
		deadline := time.Now().Add(s.opts.RequestTimeout)
		ctx, cancel := context.WithDeadline(r.Context(), deadline)
		defer cancel()
		r = r.WithContext(ctx)
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
			// The context cannot interrupt a body read, so the connection gets
			// the request's deadline too: a client that stalls mid-body gives
			// its slot back when the request times out. net/http clears it
			// before the next request, so idle keep-alive connections stay open.
			_ = http.NewResponseController(w).SetReadDeadline(deadline) // unsupported only by in-process recorders, which cannot stall
		}
		return h(w, r)
	}
}

// decodeBody decodes a JSON request body, translating the MaxBytesReader
// cap into 413 and everything else into 400. A zero status means success.
func decodeBody(r *http.Request, v any) (int, error) {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds the %d-byte limit", mbe.Limit)
		}
		return http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)
	}
	return 0, nil
}

// deadlineStatus reports whether the request's deadline (or the client)
// already cancelled it — checked after lock waits and before expensive
// stages, the points where an admitted request can have aged out. A zero
// status means the request is still live.
func deadlineStatus(r *http.Request) (int, error) {
	if err := r.Context().Err(); err != nil {
		return http.StatusServiceUnavailable, fmt.Errorf("request deadline exceeded: %w", err)
	}
	return 0, nil
}

// storageStatus maps a repository write error to a response. A degraded
// (read-only) store answers 503 with Retry-After — the condition is
// actionable (store.Recover) and retries may find it lifted. A raw
// StorageError gets the same treatment: it is the mutation that just
// degraded the store, and the client deserves the same retryable answer as
// everyone arriving after it. Anything else is a plain 500.
func storageStatus(w http.ResponseWriter, err error) (int, error) {
	var serr *store.StorageError
	switch {
	case errors.Is(err, store.ErrDegraded):
		w.Header().Set("Retry-After", "5")
		return http.StatusServiceUnavailable, fmt.Errorf("repository degraded (read-only): %w", err)
	case errors.As(err, &serr):
		w.Header().Set("Retry-After", "5")
		return http.StatusServiceUnavailable, fmt.Errorf("repository storage failure: %w", err)
	}
	return http.StatusInternalServerError, err
}

// ReadyResponse answers /readyz.
type ReadyResponse struct {
	Ready    bool   `json:"ready"`
	Draining bool   `json:"draining"`
	Degraded string `json:"degraded,omitempty"`
	Inflight int64  `json:"inflight"`
}

// handleReadyz reports readiness: healthy repository and not draining.
// Distinct from /healthz on purpose — an unready server is still alive, it
// just should not receive new traffic.
//
//moma:readpath
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) (int, error) {
	resp := ReadyResponse{
		Draining: s.draining.Load(),
		Inflight: int64(len(s.sem)),
	}
	if err := s.sys.Repo.Degraded(); err != nil {
		resp.Degraded = err.Error()
	}
	resp.Ready = !resp.Draining && resp.Degraded == ""
	code := http.StatusOK
	if !resp.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
	return code, nil
}
