package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	moma "repro"
	"repro/internal/faultfs"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/store"
)

// gate installs a blocking test route behind the admission controller and
// returns the release function plus a channel signalling each admitted
// entry.
func gate(s *Server) (release func(), started chan struct{}) {
	ch := make(chan struct{})
	started = make(chan struct{}, 1024)
	s.api("GET /testblock", "testblock", func(w http.ResponseWriter, r *http.Request) (int, error) {
		started <- struct{}{}
		<-ch
		writeJSON(w, http.StatusOK, map[string]string{"ok": "true"})
		return http.StatusOK, nil
	})
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }, started
}

// TestOverloadSheds drives more concurrent requests than the admission cap
// and asserts the contract: at most MaxInFlight requests execute at once,
// the excess is shed immediately with 429 + Retry-After (not queued), and
// capacity freed by completions is reusable.
func TestOverloadSheds(t *testing.T) {
	const cap = 3
	srv, _ := testServerWithOptions(t, Options{MaxInFlight: cap})
	release, started := gate(srv)
	defer release()

	shedBefore := serveShed.Load()
	var wg sync.WaitGroup
	codes := make(chan int, 64)
	for i := 0; i < cap; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/testblock", nil))
			codes <- rec.Code
		}()
	}
	for i := 0; i < cap; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("admitted requests did not start")
		}
	}
	if got := len(srv.sem); got != cap {
		t.Fatalf("inflight = %d, want %d", got, cap)
	}

	// Every request beyond the cap is shed synchronously: 429, Retry-After,
	// a JSON error body, and nothing enters the handler.
	const extra = 20
	for i := 0; i < extra; i++ {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/testblock", nil))
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("over-cap request %d: code %d, want 429", i, rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatal("429 must carry Retry-After")
		}
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
			t.Fatalf("429 body = %q", rec.Body.String())
		}
	}
	if got := len(srv.sem); got != cap {
		t.Fatalf("inflight after sheds = %d, want %d (sheds must not execute)", got, cap)
	}
	if len(started) != 0 {
		t.Fatalf("%d shed requests entered the handler", len(started))
	}
	if got := serveShed.Load() - shedBefore; got != extra {
		t.Fatalf("moma_serve_shed_total advanced by %d, want %d", got, extra)
	}

	// Completions free capacity: the blocked requests finish 200 and a new
	// request is admitted again.
	release()
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("admitted request finished %d", code)
		}
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/testblock", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-drain request = %d, want 200", rec.Code)
	}
	if got := len(srv.sem); got != 0 {
		t.Fatalf("inflight at rest = %d, want 0", got)
	}
}

// testServerWithOptions is testServer with explicit hardening options.
func testServerWithOptions(t *testing.T, opts Options) (*Server, *moma.System) {
	t.Helper()
	_, sys := testServer(t)
	return NewWithOptions(sys, opts), sys
}

// TestBodyTooLarge pins the 413 path on both body-accepting routes.
func TestBodyTooLarge(t *testing.T) {
	srv, _ := testServerWithOptions(t, Options{MaxBodyBytes: 128})
	big := strings.Repeat("x", 512)
	for _, path := range []string{
		"/sets/ACM.Publication/resolve",
		"/sets/ACM.Publication/instances",
	} {
		body := fmt.Sprintf(`{"id":"q","attrs":{"title":%q}}`, big)
		req := httptest.NewRequest("POST", path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with %d-byte body = %d, want 413", path, len(body), rec.Code)
		}
		var resp map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || !strings.Contains(resp["error"], "128") {
			t.Fatalf("413 body = %q", rec.Body.String())
		}
	}
	// Small bodies still pass.
	var ok ResolveResponse
	rec := doJSON(t, srv.Handler(), "POST", "/sets/ACM.Publication/resolve",
		ResolveRequest{Attrs: map[string]string{"title": "cupid"}}, &ok)
	if rec.Code != http.StatusOK {
		t.Fatalf("small body = %d: %s", rec.Code, rec.Body.String())
	}
}

// TestPanicContained pins the recovery middleware: a panicking handler
// answers 500, bumps moma_serve_panics_total, and the server keeps serving.
func TestPanicContained(t *testing.T) {
	srv, _ := testServer(t)
	srv.api("GET /testpanic", "testpanic", func(w http.ResponseWriter, r *http.Request) (int, error) {
		panic("boom")
	})
	before := servePanics.Load()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/testpanic", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic route = %d, want 500", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] != "internal error" {
		t.Fatalf("panic body = %q (panic values must not leak)", rec.Body.String())
	}
	if servePanics.Load() != before+1 {
		t.Fatal("moma_serve_panics_total must advance")
	}
	// The slot was released and the process survived: normal traffic flows.
	var resp ResolveResponse
	if rec := doJSON(t, srv.Handler(), "POST", "/sets/ACM.Publication/resolve",
		ResolveRequest{Attrs: map[string]string{"title": "cupid schema matching"}}, &resp); rec.Code != http.StatusOK {
		t.Fatalf("request after panic = %d", rec.Code)
	}
	if got := len(srv.sem); got != 0 {
		t.Fatalf("inflight after panic = %d, want 0 (slot leaked)", got)
	}
}

// TestRequestDeadline pins the per-request deadline plumbing: a handler
// outliving RequestTimeout observes the expired context and answers 503.
func TestRequestDeadline(t *testing.T) {
	srv, _ := testServerWithOptions(t, Options{RequestTimeout: time.Millisecond})
	srv.api("GET /testslow", "testslow", func(w http.ResponseWriter, r *http.Request) (int, error) {
		<-r.Context().Done() // the middleware deadline fires, not a test sleep
		return deadlineStatus(r)
	})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/testslow", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("deadline-expired request = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "deadline") {
		t.Fatalf("deadline body = %q", rec.Body.String())
	}
}

// injectedSystem builds a system over a durable repository whose
// filesystem is a fault injector, healthy until a rule is injected.
func injectedSystem(t *testing.T) (*moma.System, *store.Store, *faultfs.Injector) {
	t.Helper()
	inj := faultfs.NewInjector(nil)
	repo, err := store.OpenRepositoryFS(t.TempDir(), inj)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	return moma.NewSystemWithRepository(repo), repo, inj
}

// degradedSystem is injectedSystem driven into degraded mode with a WAL
// write fault.
func degradedSystem(t *testing.T) (*moma.System, *store.Store, *faultfs.Injector) {
	t.Helper()
	sys, repo, inj := injectedSystem(t)
	inj.Inject(faultfs.Rule{Op: faultfs.OpWrite, Path: "wal.jsonl", Sticky: true})
	err := repo.PutDelta("live.X",
		model.LDS{Source: "A", Type: model.Publication},
		model.LDS{Source: "B", Type: model.Publication},
		model.SameMappingType,
		[]mapping.Correspondence{{Domain: "a", Range: "b", Sim: 1}})
	if err == nil || repo.Degraded() == nil {
		t.Fatalf("fixture failed to degrade the repository: %v", err)
	}
	return sys, repo, inj
}

// serveTwoTitles registers a two-member ACM.Publication set with a resolver
// on the system and returns a server over it.
func serveTwoTitles(t *testing.T, sys *moma.System) *Server {
	t.Helper()
	set := moma.NewObjectSet(moma.LDS{Source: "ACM", Type: moma.Publication})
	set.AddNew("g0", map[string]string{"title": "mapping based object matching"})
	set.AddNew("g1", map[string]string{"title": "mapping based entity matching"})
	if err := sys.AddObjectSet("ACM.Publication", set); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RegisterResolver("ACM.Publication", moma.LiveConfig{
		MinShared: 2, Threshold: 0.5,
		Columns: []moma.LiveColumn{{QueryAttr: "title", SetAttr: "title", Sim: moma.Trigram}},
	}); err != nil {
		t.Fatal(err)
	}
	return New(sys)
}

// TestReadyzReflectsDegradation: /readyz turns 503 while the repository is
// degraded and recovers with it; /healthz (liveness) stays 200 throughout.
func TestReadyzReflectsDegradation(t *testing.T) {
	sys, repo, inj := degradedSystem(t)
	srv := New(sys)

	var ready ReadyResponse
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("degraded readyz = %d, want 503", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil || ready.Ready || ready.Degraded == "" {
		t.Fatalf("degraded readyz body = %q", rec.Body.String())
	}
	if rec := httptest.NewRecorder(); true {
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("healthz while degraded = %d, want 200 (liveness is not readiness)", rec.Code)
		}
	}

	inj.ClearFaults()
	if err := repo.Recover(); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("recovered readyz = %d: %s", rec.Code, rec.Body.String())
	}
}

// TestDegradedStoreAnswers503 pins the client-facing contract of a
// degraded repository: mutations answer 503 + Retry-After (not 500), reads
// keep answering.
func TestDegradedStoreAnswers503(t *testing.T) {
	sys, _, _ := degradedSystem(t)
	srv := serveTwoTitles(t, sys)

	// The add resolves against live members and must persist the delta:
	// with the store degraded that is a 503, and the client is told when to
	// come back.
	rec := doJSON(t, srv.Handler(), "POST", "/sets/ACM.Publication/instances", AddInstanceRequest{
		ID: "new1", Attrs: map[string]string{"title": "mapping based object matching"},
	}, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("add against degraded store = %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("degraded 503 must carry Retry-After")
	}
	// Reads still answer.
	if rec := doJSON(t, srv.Handler(), "POST", "/sets/ACM.Publication/resolve", ResolveRequest{
		Attrs: map[string]string{"title": "mapping based object matching"},
	}, nil); rec.Code != http.StatusOK {
		t.Fatalf("resolve against degraded store = %d, want 200", rec.Code)
	}
}

// TestDeleteIsRetrySafe: a DELETE whose store write fails must change
// nothing, so the client's retry after recovery is still a DELETE of a live
// instance — not a 404 over a durable delta row naming an instance the
// resolver has already forgotten.
func TestDeleteIsRetrySafe(t *testing.T) {
	sys, repo, inj := injectedSystem(t)
	srv := serveTwoTitles(t, sys)
	h := srv.Handler()
	const title = "mapping based object matching"
	var add AddInstanceResponse
	if rec := doJSON(t, h, "POST", "/sets/ACM.Publication/instances", AddInstanceRequest{
		ID: "new1", Attrs: map[string]string{"title": title},
	}, &add); rec.Code != http.StatusOK || add.Mapping == "" {
		t.Fatalf("add on a healthy store = %d %s, want a recorded delta", rec.Code, rec.Body.String())
	}
	resolves := func() bool {
		var rr ResolveResponse
		doJSON(t, h, "POST", "/sets/ACM.Publication/resolve", ResolveRequest{Attrs: map[string]string{"title": title}}, &rr)
		for _, m := range rr.Matches {
			if m.ID == "new1" {
				return true
			}
		}
		return false
	}

	inj.Inject(faultfs.Rule{Op: faultfs.OpWrite, Path: "wal.jsonl", Sticky: true})
	rec := doJSON(t, h, "DELETE", "/sets/ACM.Publication/instances/new1", nil, nil)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("DELETE with a failing WAL = %d (Retry-After %q), want 503 + Retry-After", rec.Code, rec.Header().Get("Retry-After"))
	}
	if !resolves() {
		t.Fatal("the failed DELETE removed the instance from the resolver")
	}
	if set, _ := sys.ObjectSetByName("ACM.Publication"); !set.Has("new1") {
		t.Fatal("the failed DELETE removed the instance from the registered set")
	}

	inj.ClearFaults()
	if err := repo.Recover(); err != nil {
		t.Fatal(err)
	}
	if rec := doJSON(t, h, "DELETE", "/sets/ACM.Publication/instances/new1", nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("retried DELETE after recovery = %d: %s", rec.Code, rec.Body.String())
	}
	if resolves() {
		t.Fatal("removed instance still resolves")
	}
	if m, ok := repo.Get("live.ACM.Publication"); !ok || m.Touches("new1") {
		t.Fatalf("delta mapping still names the removed instance (found %v): %v", ok, m)
	}
}

// shortTimeoutServer serves a 200 ms request timeout on a real listener
// until the test ends, and returns its host:port.
func shortTimeoutServer(t *testing.T) string {
	t.Helper()
	srv, _ := testServerWithOptions(t, Options{RequestTimeout: 200 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("serve returned %v", err)
		}
	})
	return ln.Addr().String()
}

// stalledConn opens a raw connection that sends the given bytes and then
// nothing more.
func stalledConn(t *testing.T, addr, sent string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() }) // runs before the server's drain, which would wait for it
	if _, err := io.WriteString(conn, sent); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	return conn
}

// TestStalledHeadersAreClosed: a client that never finishes its request
// headers is never admitted, so no request deadline covers it; the listener
// must hang up on it instead of holding its goroutine and fd forever.
func TestStalledHeadersAreClosed(t *testing.T) {
	conn := stalledConn(t, shortTimeoutServer(t), "POST /sets/ACM.Publication/resolve HTTP/1.1\r\nHost: moma\r\n")
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("reading from a connection stalled mid-header: %v, want the server to close it (EOF)", err)
	}
}

// TestStalledBodyReleasesSlot: a client that stalls mid-body sits inside
// decodeBody holding an admission slot, where the request context cannot
// reach it; the connection's read deadline must end the request and give
// the slot back.
func TestStalledBodyReleasesSlot(t *testing.T) {
	addr := shortTimeoutServer(t)
	conn := stalledConn(t, addr, "POST /sets/ACM.Publication/resolve HTTP/1.1\r\nHost: moma\r\n"+
		"Content-Type: application/json\r\nContent-Length: 64\r\n\r\n{\"attrs\":")
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("a request stalled mid-body was never answered, so it still holds its admission slot: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stalled body answered %d, want 400", resp.StatusCode)
	}
	ready, err := http.Get("http://" + addr + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer ready.Body.Close()
	var body ReadyResponse
	if err := json.NewDecoder(ready.Body).Decode(&body); err != nil || body.Inflight != 0 {
		t.Fatalf("/readyz after the stalled request timed out: inflight %d (%v), want 0", body.Inflight, err)
	}
}

// TestIdleKeepAliveOutlivesTimeout: the read deadlines bound a request in
// progress, not the wait between two requests — load generators reuse their
// connections, and a deadline that doubled as an idle timeout would have
// them redial.
func TestIdleKeepAliveOutlivesTimeout(t *testing.T) {
	base := "http://" + shortTimeoutServer(t)
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	var reused bool
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused },
	})
	for i := 0; i < 2; i++ {
		req, _ := http.NewRequestWithContext(ctx, "POST", base+"/sets/ACM.Publication/resolve",
			strings.NewReader(`{"attrs":{"title":"generic schema matching with cupid"}}`))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d = %d", i, resp.StatusCode)
		}
		if i == 0 {
			time.Sleep(500 * time.Millisecond) // idle for well over the 200 ms request timeout
		}
	}
	if !reused {
		t.Fatal("the second request had to redial: the server closed an idle keep-alive connection")
	}
}

// TestDrainFlipsReadinessFirst runs a real listener, parks a request in a
// gated handler, cancels the run context, and asserts the drain order:
// readiness flips (new work refused) while the in-flight request completes,
// and the drained count is logged.
func TestDrainFlipsReadinessFirst(t *testing.T) {
	var logMu sync.Mutex
	var logLines []string
	logf := func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		logLines = append(logLines, fmt.Sprintf(format, args...))
	}
	srv, _ := testServerWithOptions(t, Options{DrainTimeout: 5 * time.Second, Logf: logf})
	release, started := gate(srv)
	defer release()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.serve(ctx, ln) }()

	var inflightCode atomic.Int64
	reqDone := make(chan struct{})
	go func() {
		defer close(reqDone)
		resp, err := http.Get(base + "/testblock")
		if err == nil {
			inflightCode.Store(int64(resp.StatusCode))
			resp.Body.Close()
		}
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never started")
	}

	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for !srv.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("draining flag never flipped")
		}
		time.Sleep(time.Millisecond)
	}
	// Readiness answers unready the moment draining starts (checked via the
	// handler — the listener is closing).
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), `"draining":true`) {
		t.Fatalf("readyz during drain = %d %s", rec.Code, rec.Body.String())
	}
	// New API work is refused with 503 while draining.
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/testblock", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("API during drain = %d, want 503", rec.Code)
	}

	// The parked request still completes, and serve returns cleanly.
	release()
	select {
	case <-reqDone:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request did not complete during drain")
	}
	if code := inflightCode.Load(); code != http.StatusOK {
		t.Fatalf("in-flight request finished %d, want 200", code)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after drain")
	}

	logMu.Lock()
	defer logMu.Unlock()
	joined := strings.Join(logLines, "\n")
	if !strings.Contains(joined, "draining, 1 request(s) in flight") {
		t.Fatalf("drain start not logged: %q", joined)
	}
	if !strings.Contains(joined, "drained 1 request(s)") {
		t.Fatalf("drained count not logged: %q", joined)
	}
}

// TestProbesBypassAdmission: /healthz, /readyz and /metrics answer even
// with every admission slot taken.
func TestProbesBypassAdmission(t *testing.T) {
	srv, _ := testServerWithOptions(t, Options{MaxInFlight: 1})
	release, started := gate(srv)
	defer release()
	go func() {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/testblock", nil))
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("blocking request never started")
	}
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s while saturated = %d, want 200", path, rec.Code)
		}
		if path == "/metrics" {
			body, _ := io.ReadAll(rec.Body)
			for _, series := range []string{"moma_serve_inflight", "moma_serve_shed_total", "moma_serve_panics_total"} {
				if !strings.Contains(string(body), series) {
					t.Fatalf("metrics missing %s", series)
				}
			}
		}
	}
}
