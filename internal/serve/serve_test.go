package serve

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	moma "repro"
	"repro/internal/live"
	"repro/internal/model"
	"repro/internal/race"
)

// testServer builds a system with one resolvable publication set.
func testServer(t *testing.T) (*Server, *moma.System) {
	t.Helper()
	sys := moma.NewSystem()
	set := moma.NewObjectSet(moma.LDS{Source: "ACM", Type: moma.Publication})
	titles := []string{
		"generic schema matching with cupid",
		"a formal perspective on the view selection problem",
		"mapping based object matching",
		"entity resolution over web data sources",
	}
	for i, title := range titles {
		set.AddNew(moma.ID(fmt.Sprintf("g%d", i)), map[string]string{
			"title": title, "year": fmt.Sprintf("%d", 2000+i),
		})
	}
	if err := sys.AddObjectSet("ACM.Publication", set); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RegisterResolver("ACM.Publication", moma.LiveConfig{
		MinShared: 2,
		Threshold: 0.7,
		Columns: []moma.LiveColumn{
			{QueryAttr: "title", SetAttr: "title", Sim: moma.Trigram},
		},
	}); err != nil {
		t.Fatal(err)
	}
	return New(sys), sys
}

func doJSON(t *testing.T, h http.Handler, method, path string, body, out any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad response %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec
}

func TestHealthz(t *testing.T) {
	srv, _ := testServer(t)
	var resp HealthResponse
	rec := doJSON(t, srv.Handler(), "GET", "/healthz", nil, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	if resp.Status != "ok" || resp.Resolvers["ACM.Publication"].Live != 4 {
		t.Fatalf("healthz body = %+v", resp)
	}
}

func TestResolveEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	var resp ResolveResponse
	rec := doJSON(t, srv.Handler(), "POST", "/sets/ACM.Publication/resolve", ResolveRequest{
		ID:    "q1",
		Attrs: map[string]string{"title": "the view selection problem a formal perspective"},
	}, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("resolve = %d: %s", rec.Code, rec.Body.String())
	}
	if len(resp.Matches) == 0 || resp.Matches[0].ID != "g1" {
		t.Fatalf("resolve body = %+v, want g1 first", resp)
	}
	if resp.QueryID != "q1" || resp.Set != "ACM.Publication" {
		t.Fatalf("echo fields wrong: %+v", resp)
	}

	// Unknown set and malformed bodies are client errors.
	if rec := doJSON(t, srv.Handler(), "POST", "/sets/Nope/resolve", ResolveRequest{Attrs: map[string]string{"title": "x"}}, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown set = %d", rec.Code)
	}
	req := httptest.NewRequest("POST", "/sets/ACM.Publication/resolve", strings.NewReader("{"))
	rec2 := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec2, req)
	if rec2.Code != http.StatusBadRequest {
		t.Fatalf("malformed body = %d", rec2.Code)
	}
}

// TestResolveLimitAndRanking: a resolve answers best first, ties by id, and
// a limit-k answer is the first k rows of the unlimited one. A negative
// limit is a 400, as it is on GET /mappings.
func TestResolveLimitAndRanking(t *testing.T) {
	h := wireServer(t, Options{}).Handler()
	resolve := func(limit int) []live.Match {
		var resp ResolveResponse
		rec := doJSON(t, h, "POST", "/sets/ACM.Publication/resolve", ResolveRequest{
			Attrs: map[string]string{"title": "mapping based object matching"},
			Limit: limit,
		}, &resp)
		if rec.Code != http.StatusOK {
			t.Fatalf("limit %d: resolve = %d: %s", limit, rec.Code, rec.Body.String())
		}
		return resp.Matches
	}
	all := resolve(0)
	if len(all) < 3 {
		t.Fatalf("want at least 3 matches to rank, got %+v", all)
	}
	if !bestFirst(all) || all[0].Sim != all[1].Sim {
		t.Fatalf("matches not best first with a tie by id: %+v", all)
	}
	for k := 1; k <= len(all)+1; k++ {
		if got := resolve(k); !slices.Equal(got, all[:min(k, len(all))]) {
			t.Fatalf("limit %d = %+v, want the first %d of %+v", k, got, k, all)
		}
	}
	rec := doJSON(t, h, "POST", "/sets/ACM.Publication/resolve", ResolveRequest{
		Attrs: map[string]string{"title": "mapping based object matching"},
		Limit: -3,
	}, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("limit -3 = %d: %s", rec.Code, rec.Body.String())
	}
}

// bestFirst reports whether ms is in similarity descending order, ties by
// ascending id.
func bestFirst(ms []live.Match) bool {
	for i := 1; i < len(ms); i++ {
		if a, b := ms[i-1], ms[i]; a.Sim < b.Sim || a.Sim == b.Sim && a.ID >= b.ID {
			return false
		}
	}
	return true
}

// TestAddRanksResponseNotDelta: an arrival's add response is best first,
// while the delta it records keeps the resolver's row order, the set's
// insertion order.
func TestAddRanksResponseNotDelta(t *testing.T) {
	srv := wireServer(t, Options{})
	h := srv.Handler()
	var resp AddInstanceResponse
	rec := doJSON(t, h, "POST", "/sets/ACM.Publication/instances", AddInstanceRequest{
		ID:    "n1",
		Attrs: map[string]string{"title": "mapping based object matching"},
	}, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("add = %d: %s", rec.Code, rec.Body.String())
	}
	set, _ := srv.sys.ObjectSetByName("ACM.Publication")
	inSetOrder := slices.Clone(resp.Matches)
	slices.SortFunc(inSetOrder, func(a, b live.Match) int { return cmp.Compare(set.IndexOf(a.ID), set.IndexOf(b.ID)) })
	if len(resp.Matches) < 2 || slices.Equal(inSetOrder, resp.Matches) || !bestFirst(resp.Matches) {
		t.Fatalf("want at least 2 matches, best first, in an order unlike the set's: %+v", resp.Matches)
	}
	var mresp MappingResponse
	doJSON(t, h, "GET", "/mappings/live.ACM.Publication", nil, &mresp)
	rows := make([]live.Match, len(mresp.Correspondences))
	for i, c := range mresp.Correspondences {
		if c.Domain != "n1" {
			t.Fatalf("delta row %+v is not the arrival's", c)
		}
		rows[i] = live.Match{ID: model.ID(c.Range), Sim: c.Sim}
	}
	if !slices.Equal(rows, inSetOrder) {
		t.Fatalf("delta rows %+v, want the resolver's order %+v", rows, inSetOrder)
	}
}

// TestAddRejectsAttributeFlood pins MaxSetAttrs: an add that names more
// attributes than a set may hold, or that would take the set past the limit
// with names it does not hold yet, answers 400 and leaves the set's
// attribute columns and members as they were; an add within the limit, and
// a later one that reuses its names, succeed.
func TestAddRejectsAttributeFlood(t *testing.T) {
	srv, sys := testServer(t)
	h := srv.Handler()
	set, _ := sys.ObjectSetByName("ACM.Publication")
	names := func(from, n int) map[string]string {
		attrs := map[string]string{"title": "mapping based object matching"}
		for i := range n {
			attrs[fmt.Sprintf("a%d", from+i)] = ""
		}
		return attrs
	}
	held := set.AttrCount() // title and year
	for _, c := range []struct {
		what  string
		attrs map[string]string
		code  int
		count int
	}{
		{"more names than a set may hold", names(0, 80000), http.StatusBadRequest, held},
		{"names up to the limit", names(0, MaxSetAttrs-held), http.StatusOK, MaxSetAttrs},
		{"one new name past the limit", names(MaxSetAttrs, 1), http.StatusBadRequest, MaxSetAttrs},
		{"the held names again", names(0, MaxSetAttrs-held), http.StatusOK, MaxSetAttrs},
	} {
		version := set.Version()
		rec := doJSON(t, h, "POST", "/sets/ACM.Publication/instances", AddInstanceRequest{ID: "wide", Attrs: c.attrs, NoResolve: true}, nil)
		if rec.Code != c.code || set.AttrCount() != c.count {
			t.Fatalf("%s: %d (%s), set holds %d attribute names; want %d and %d", c.what, rec.Code, rec.Body.String(), set.AttrCount(), c.code, c.count)
		}
		if c.code != http.StatusOK && set.Version() != version {
			t.Fatalf("%s: a rejected add moved the set's version %d to %d", c.what, version, set.Version())
		}
	}
	// The names only "wide" held go with it.
	if rec := doJSON(t, h, "DELETE", "/sets/ACM.Publication/instances/wide", nil, nil); rec.Code != http.StatusOK || set.AttrCount() != held {
		t.Fatalf("remove = %d, set holds %d attribute names; want 200 and %d", rec.Code, set.AttrCount(), held)
	}
}

func TestAddInstanceRecordsDelta(t *testing.T) {
	srv, sys := testServer(t)
	var resp AddInstanceResponse
	rec := doJSON(t, srv.Handler(), "POST", "/sets/ACM.Publication/instances", AddInstanceRequest{
		ID:    "g99",
		Attrs: map[string]string{"title": "a formal perspective on the view selection problem", "year": "2004"},
	}, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("add = %d: %s", rec.Code, rec.Body.String())
	}
	if len(resp.Matches) == 0 || resp.Matches[0].ID != "g1" || resp.Matches[0].Sim != 1 {
		t.Fatalf("arrival must match g1 exactly: %+v", resp)
	}
	if resp.Mapping != "live.ACM.Publication" {
		t.Fatalf("delta mapping name = %q", resp.Mapping)
	}
	// The delta is in the repository.
	m, ok := sys.Repo.Get("live.ACM.Publication")
	if !ok || !m.Has("g99", "g1") {
		t.Fatalf("repository delta missing: ok=%v m=%v", ok, m)
	}
	// The registered set grew too.
	set, _ := sys.ObjectSetByName("ACM.Publication")
	if !set.Has("g99") {
		t.Fatal("registered set must see the arrival")
	}
	// The instance is immediately resolvable.
	var rr ResolveResponse
	doJSON(t, srv.Handler(), "POST", "/sets/ACM.Publication/resolve", ResolveRequest{
		Attrs: map[string]string{"title": "a formal perspective on the view selection problem"},
	}, &rr)
	found := false
	for _, mt := range rr.Matches {
		if mt.ID == "g99" {
			found = true
		}
	}
	if !found {
		t.Fatalf("arrival not resolvable: %+v", rr.Matches)
	}

	// GET /mappings serves the delta.
	var mresp MappingResponse
	doJSON(t, srv.Handler(), "GET", "/mappings/live.ACM.Publication", nil, &mresp)
	if mresp.Len == 0 || mresp.Domain != "Publication@ACM" {
		t.Fatalf("mapping response = %+v", mresp)
	}
}

// TestReAddReplacesDelta: re-adding a live id must not self-match, and the
// delta mapping must forget the correspondences of the previous version.
func TestReAddReplacesDelta(t *testing.T) {
	srv, sys := testServer(t)
	add := func(title string) AddInstanceResponse {
		var resp AddInstanceResponse
		doJSON(t, srv.Handler(), "POST", "/sets/ACM.Publication/instances", AddInstanceRequest{
			ID:    "g99",
			Attrs: map[string]string{"title": title},
		}, &resp)
		return resp
	}
	first := add("a formal perspective on the view selection problem")
	if len(first.Matches) == 0 {
		t.Fatalf("first add must match g1: %+v", first)
	}
	// Replace with an unrelated title: no self-match, and the old g99->g1
	// correspondence must be gone.
	second := add("an unrelated replacement about nothing shared")
	for _, m := range second.Matches {
		if m.ID == "g99" {
			t.Fatalf("replace matched its own stale self: %+v", second)
		}
	}
	if m, ok := sys.Repo.Get("live.ACM.Publication"); ok {
		for _, c := range m.Correspondences() {
			if c.Domain == "g99" || c.Range == "g99" {
				t.Fatalf("stale delta survived the replace: %v", c)
			}
		}
	}
}

func TestRemoveInstance(t *testing.T) {
	srv, sys := testServer(t)
	// Seed a delta via an add.
	doJSON(t, srv.Handler(), "POST", "/sets/ACM.Publication/instances", AddInstanceRequest{
		ID:    "g99",
		Attrs: map[string]string{"title": "a formal perspective on the view selection problem"},
	}, nil)
	rec := doJSON(t, srv.Handler(), "DELETE", "/sets/ACM.Publication/instances/g99", nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("remove = %d: %s", rec.Code, rec.Body.String())
	}
	if m, ok := sys.Repo.Get("live.ACM.Publication"); ok {
		for _, c := range m.Correspondences() {
			if c.Domain == "g99" || c.Range == "g99" {
				t.Fatalf("delta still references removed instance: %v", c)
			}
		}
	}
	// The registered set follows the live view.
	if set, _ := sys.ObjectSetByName("ACM.Publication"); set.Has("g99") {
		t.Fatal("registered set still holds the removed instance")
	}
	// Removed instances no longer resolve.
	var rr ResolveResponse
	doJSON(t, srv.Handler(), "POST", "/sets/ACM.Publication/resolve", ResolveRequest{
		Attrs: map[string]string{"title": "a formal perspective on the view selection problem"},
	}, &rr)
	for _, mt := range rr.Matches {
		if mt.ID == "g99" {
			t.Fatal("removed instance still resolves")
		}
	}
	// Double remove is a 404.
	if rec := doJSON(t, srv.Handler(), "DELETE", "/sets/ACM.Publication/instances/g99", nil, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("double remove = %d", rec.Code)
	}
}

// TestMetricsEndpoint pins the route metrics' vocabulary and counting. The
// handles live on the process registry, shared by every server of the test
// binary, so counts are asserted as deltas between two scrapes.
func TestMetricsEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	h := srv.Handler()
	before := scrape(t, h)
	doJSON(t, h, "POST", "/sets/ACM.Publication/resolve", ResolveRequest{
		Attrs: map[string]string{"title": "view selection problem"},
	}, nil)
	doJSON(t, h, "POST", "/sets/Nope/resolve", ResolveRequest{Attrs: map[string]string{"title": "x"}}, nil)
	doJSON(t, h, "GET", "/healthz", nil, nil)
	doJSON(t, h, "GET", "/debug/slow", nil, nil)
	body := scrape(t, h)

	for series, want := range map[string]float64{
		`moma_requests_total{route="resolve",code="200"}`:                 1,
		`moma_requests_total{route="resolve",code="404"}`:                 1,
		`moma_requests_total{route="healthz",code="200"}`:                 1,
		`moma_request_duration_seconds_bucket{route="resolve",le="+Inf"}`: 2,
		`moma_request_duration_seconds_count{route="resolve"}`:            2,
		`moma_request_duration_seconds_count{route="healthz"}`:            1,
	} {
		if got := sample(t, body, series) - sample(t, before, series); got != want {
			t.Errorf("%s advanced by %g, want %g", series, got, want)
		}
	}
	for _, ub := range latencyBuckets {
		if series := fmt.Sprintf(`moma_request_duration_seconds_bucket{route="resolve",le="%g"} `, ub); !strings.Contains(body, series) {
			t.Errorf("metrics missing bucket %s", series)
		}
	}
	if up := sample(t, body, "moma_uptime_seconds"); up <= 0 || up > 60 {
		t.Errorf("moma_uptime_seconds = %g, want this server's age", up)
	}
	// One registry, one exposition: each family is announced exactly once,
	// under the kind its consumers expect.
	types := map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			if _, dup := types[name]; dup {
				t.Errorf("family %s announced twice", name)
			}
			types[name] = kind
		}
	}
	for name, kind := range map[string]string{
		"moma_requests_total": "counter", "moma_request_duration_seconds": "histogram", "moma_uptime_seconds": "gauge",
	} {
		if types[name] != kind {
			t.Errorf("family %s has type %q, want %q", name, types[name], kind)
		}
	}
	// Scrapes and diagnostics reads bypass route recording.
	for _, route := range []string{"metrics", "debug", "slow"} {
		if strings.Contains(body, `route="`+route) {
			t.Errorf("route %q is recorded; diagnostics must not pollute the histograms they explain", route)
		}
	}
}

// TestRouteRecordZeroAllocs gates the per-request recording path: once a
// (route, code) has been seen, counting a request and observing its latency
// allocates nothing (and takes no lock: the handles are atomics).
func TestRouteRecordZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	m := newRouteMetrics("alloc_gate")
	m.record(http.StatusOK, time.Millisecond)
	if allocs := testing.AllocsPerRun(200, func() { m.record(http.StatusOK, time.Millisecond) }); allocs != 0 {
		t.Errorf("recording a seen (route, code) allocates %.0f times per run, want 0", allocs)
	}
}

// TestLateResolverNotServed pins the binding rule: the served sets are the
// ones with a resolver when the server is constructed.
func TestLateResolverNotServed(t *testing.T) {
	srv, sys := testServer(t)
	late := moma.NewObjectSet(moma.LDS{Source: "DBLP", Type: moma.Publication})
	late.AddNew("d0", map[string]string{"title": "mapping based object matching"})
	if err := sys.AddObjectSet("DBLP.Publication", late); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RegisterResolver("DBLP.Publication", moma.LiveConfig{
		Columns: []moma.LiveColumn{{QueryAttr: "title", SetAttr: "title", Sim: moma.Trigram}},
	}); err != nil {
		t.Fatal(err)
	}
	req := ResolveRequest{Attrs: map[string]string{"title": "mapping based object matching"}}
	if rec := doJSON(t, srv.Handler(), "POST", "/sets/DBLP.Publication/resolve", req, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("resolver registered after New = %d, want 404", rec.Code)
	}
	if rec := doJSON(t, New(sys).Handler(), "POST", "/sets/DBLP.Publication/resolve", req, nil); rec.Code != http.StatusOK {
		t.Fatalf("a server constructed afterwards = %d, want 200", rec.Code)
	}
}

// twoSetServer builds a system with two independently resolvable sets.
func twoSetServer(t *testing.T) (*Server, *moma.System, []string) {
	t.Helper()
	sys := moma.NewSystem()
	names := []string{"ACM.Publication", "DBLP.Publication"}
	for i, name := range names {
		src := moma.PDS(strings.SplitN(name, ".", 2)[0])
		set := moma.NewObjectSet(moma.LDS{Source: src, Type: moma.Publication})
		for j := 0; j < 8; j++ {
			set.AddNew(moma.ID(fmt.Sprintf("s%d-%d", i, j)), map[string]string{
				"title": fmt.Sprintf("shared benchmark topic number %d for source %d", j, i),
			})
		}
		if err := sys.AddObjectSet(name, set); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RegisterResolver(name, moma.LiveConfig{
			MinShared: 2,
			Threshold: 0.5,
			Columns:   []moma.LiveColumn{{QueryAttr: "title", SetAttr: "title", Sim: moma.Trigram}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return New(sys), sys, names
}

func TestGetMappingNotFound(t *testing.T) {
	srv, _ := testServer(t)
	if rec := doJSON(t, srv.Handler(), "GET", "/mappings/nope", nil, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown mapping = %d", rec.Code)
	}
}

// TestChurnRetainsBoundedHeap pins what an add+remove cycle through the
// handlers leaves behind. The set is larger than the cycle count, so the
// resolver never compacts and its tombstones are part of the measurement: a
// cycle may keep a tombstone's slot entries, but not the instance, its id or
// its profiles — the registered set and the resolver both let go on DELETE.
func TestChurnRetainsBoundedHeap(t *testing.T) {
	if race.Enabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	const live, cycles, maxPerCycle = 6000, 5000, 300
	sys := moma.NewSystem()
	set := moma.NewObjectSet(moma.LDS{Source: "ACM", Type: moma.Publication})
	title := func(i int) string {
		return fmt.Sprintf("w%03d x%03d y%03d z%03d v%03d u%03d", i%211, i%223, i%227, i%229, i%233, i%239)
	}
	for i := 0; i < live; i++ {
		set.AddNew(moma.ID(fmt.Sprintf("g%05d", i)), map[string]string{"title": title(i), "year": "2004"})
	}
	if err := sys.AddObjectSet("ACM.Publication", set); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RegisterResolver("ACM.Publication", moma.LiveConfig{
		MinShared: 2,
		Threshold: 0.7,
		Columns:   []moma.LiveColumn{{QueryAttr: "title", SetAttr: "title", Sim: moma.Trigram}},
	}); err != nil {
		t.Fatal(err)
	}
	h := New(sys).Handler()
	cycle := func(i int) {
		id := fmt.Sprintf("churn-%06d", i)
		body, _ := json.Marshal(AddInstanceRequest{ID: id, Attrs: map[string]string{"title": title(i*7 + 3), "year": "2005"}})
		for _, req := range []*http.Request{
			httptest.NewRequest("POST", "/sets/ACM.Publication/instances", bytes.NewReader(body)),
			httptest.NewRequest("DELETE", "/sets/ACM.Publication/instances/"+id, nil),
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s %s = %d: %s", req.Method, req.URL.Path, rec.Code, rec.Body.String())
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// Warm up pools, route tables and the delta mapping before measuring.
	for i := 0; i < 200; i++ {
		cycle(i)
	}
	before := heap()
	for i := 200; i < 200+cycles; i++ {
		cycle(i)
	}
	after := heap()
	runtime.KeepAlive(h) // the server and its system must outlive the second reading
	if set.Len() != live {
		t.Fatalf("registered set holds %d instances after the churn, want %d", set.Len(), live)
	}
	if per := (float64(after) - float64(before)) / cycles; per > maxPerCycle {
		t.Fatalf("an add+remove cycle retains %.0f B of heap, want <= %d", per, maxPerCycle)
	} else {
		t.Logf("an add+remove cycle retains %.0f B of heap", per)
	}
}
