package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// scrape fetches /metrics and returns the body.
func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	return rec.Body.String()
}

// sample returns one series' value in a scrape body, 0 when the series is
// absent (a counter is registered at its first increment).
func sample(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("series %s has value %q: %v", series, v, err)
			}
			return f
		}
	}
	return 0
}

// TestMetricsExposesEngineSeries drives one resolve and asserts the
// engine-side series from the instrumented packages appear in the scrape
// body next to the route metrics.
func TestMetricsExposesEngineSeries(t *testing.T) {
	srv, _ := testServer(t)
	doJSON(t, srv.Handler(), "POST", "/sets/ACM.Publication/resolve", ResolveRequest{
		Attrs: map[string]string{"title": "mapping based object matching"},
	}, nil)
	body := scrape(t, srv.Handler())
	for _, want := range []string{
		"moma_live_resolves_total",
		"moma_live_resolve_candidates_total",
		"moma_live_resolve_pruned_total",
		"moma_live_resolve_matches_total",
		"moma_live_instances",
		`moma_live_resolve_stage_seconds_bucket{stage="block",le="+Inf"}`,
		`moma_live_resolve_stage_seconds_bucket{stage="profile",le="+Inf"}`,
		`moma_live_resolve_stage_seconds_bucket{stage="score",le="+Inf"}`,
		"moma_live_resolve_seconds_count",
		"moma_match_pairs_total",
		"moma_match_pairs_pruned_total",
		"moma_blockcache_hits_total",
		"moma_profilecache_misses_total",
		"moma_store_wal_records_total",
		"moma_sim_dict_terms",
		"moma_model_dict_ids",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing engine series %q", want)
		}
	}
}

// TestPrometheusConformance checks the full /metrics body against the text
// exposition format: every sample belongs to a family announced by HELP and
// TYPE lines, histogram buckets are cumulative (monotonically non-decreasing
// toward +Inf, which equals the series count), and the series ordering is
// identical across consecutive scrapes.
func TestPrometheusConformance(t *testing.T) {
	srv, _ := testServer(t)
	doJSON(t, srv.Handler(), "POST", "/sets/ACM.Publication/resolve", ResolveRequest{
		Attrs: map[string]string{"title": "entity resolution over web data"},
	}, nil)
	doJSON(t, srv.Handler(), "GET", "/healthz", nil, nil)

	body := scrape(t, srv.Handler())

	helped := map[string]bool{}
	typed := map[string]string{}
	lastBucket := map[string]uint64{} // series (name+labels sans le) -> last cumulative value
	var order []string
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if name, ok := strings.CutPrefix(line, "# HELP "); ok {
			helped[strings.Fields(name)[0]] = true
			continue
		}
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(name)
			typed[f[0]] = f[1]
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		series, value := line[:sp], line[sp+1:]
		order = append(order, series)
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && typed[base] == "histogram" {
				family = base
				break
			}
		}
		if !helped[family] || typed[family] == "" {
			t.Errorf("sample %q has no HELP/TYPE for family %q", line, family)
			continue
		}
		if typed[family] == "histogram" && strings.HasSuffix(name, "_bucket") {
			le := ""
			key := series
			if i := strings.Index(series, `le="`); i >= 0 {
				j := strings.IndexByte(series[i+4:], '"')
				le = series[i+4 : i+4+j]
				key = series[:i] + series[i+4+j:]
			}
			v, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				t.Fatalf("bucket %q has non-integer value %q", series, value)
			}
			if prev, seen := lastBucket[key]; seen && v < prev {
				t.Errorf("bucket %q le=%q value %d below previous bucket %d: not cumulative", key, le, v, prev)
			}
			lastBucket[key] = v
		}
	}

	// Ordering must be a pure function of the registered series: scrape
	// again (values move — uptime, durations — but identities must not).
	var order2 []string
	for _, line := range strings.Split(scrape(t, srv.Handler()), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		order2 = append(order2, line[:sp])
	}
	if len(order) != len(order2) {
		t.Fatalf("scrapes disagree on series count: %d vs %d", len(order), len(order2))
	}
	for i := range order {
		if order[i] != order2[i] {
			t.Fatalf("series order unstable at %d: %q vs %q", i, order[i], order2[i])
		}
	}
}

// TestDebugSlowCapturesTraces arms the slow-query ring, drives a resolve
// and reads the trace back through GET /debug/slow.
func TestDebugSlowCapturesTraces(t *testing.T) {
	obs.SetSlowThreshold(time.Nanosecond)
	defer obs.SetSlowThreshold(0)

	srv, _ := testServer(t)
	doJSON(t, srv.Handler(), "POST", "/sets/ACM.Publication/resolve", ResolveRequest{
		ID: "slow-q",
		// Matches g2 and shares three tokens with g0, which cannot reach 0.7.
		Attrs: map[string]string{"title": "mapping based object matching generic schema"},
	}, nil)

	var resp SlowQueriesResponse
	rec := doJSON(t, srv.Handler(), "GET", "/debug/slow", nil, &resp)
	if !strings.Contains(rec.Body.String(), `"pruned":`) {
		t.Fatalf("/debug/slow does not report pruned candidates: %s", rec.Body.String())
	}
	if resp.ThresholdNS != 1 {
		t.Fatalf("threshold_ns = %d, want 1", resp.ThresholdNS)
	}
	if len(resp.Queries) == 0 {
		t.Fatal("no traces captured with a 1ns threshold")
	}
	var found bool
	for _, q := range resp.Queries {
		if q.Op == "moma_live_resolve" && q.ID == "slow-q" {
			found = true
			if q.TotalNS <= 0 || len(q.Stages) != 3 {
				t.Fatalf("trace malformed: %+v", q)
			}
			if q.Candidates != 2 || q.Pruned != 1 || q.Kept != 1 {
				t.Fatalf("trace counts %d candidates, %d pruned, %d kept; want 2, 1, 1", q.Candidates, q.Pruned, q.Kept)
			}
		}
	}
	if !found {
		t.Fatalf("no trace for query slow-q in %+v", resp.Queries)
	}
}

// TestDebugVarsAndPprofMounted smoke-checks the diagnostics routes answer
// on the server's own mux.
func TestDebugVarsAndPprofMounted(t *testing.T) {
	srv, _ := testServer(t)
	for _, path := range []string{"/debug/vars", "/debug/pprof/", "/debug/pprof/cmdline"} {
		req := httptest.NewRequest("GET", path, nil)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, rec.Code)
		}
		if b, _ := io.ReadAll(rec.Result().Body); len(b) == 0 {
			t.Errorf("GET %s returned an empty body", path)
		}
	}
}
