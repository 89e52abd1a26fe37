package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	moma "repro"
	"repro/internal/serve"
	"repro/internal/sources"
)

// scripted answers the i-th request with statuses[i] (the last one from then
// on), sending retryAfter on every 429, and counts the requests.
func scripted(t *testing.T, retryAfter string, statuses ...int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := int(hits.Add(1)) - 1
		status := statuses[min(i, len(statuses)-1)]
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", retryAfter)
		}
		w.WriteHeader(status)
		fmt.Fprintf(w, "answer %d", i)
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

func TestSendRetryRecoversFromShedsAndDrains(t *testing.T) {
	srv, hits := scripted(t, "1", http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusOK)
	pol := retryPolicy{max: 3, base: time.Millisecond, cap: 50 * time.Millisecond}
	t0 := time.Now()
	status, body, retries, sheds, err := sendRetry(srv.Client(), srv.URL, []byte("{}"), pol, rand.New(rand.NewSource(1)))
	took := time.Since(t0)
	if err != nil || status != http.StatusOK || string(body) != "answer 2" {
		t.Fatalf("status %d, body %q, err %v; want the third answer, 200", status, body, err)
	}
	if retries != 2 || sheds != 1 || hits.Load() != 3 {
		t.Fatalf("retries %d, sheds %d over %d requests; want 2, 1 over 3", retries, sheds, hits.Load())
	}
	// Retry-After asks for 1 s: the pause after the 429 is the cap, no less
	// (the backoff alone is about 1 ms) and no more.
	if took < pol.cap || took >= time.Second {
		t.Fatalf("took %v; Retry-After should have held the pause at the %v cap", took, pol.cap)
	}
}

func TestSendRetryGivesUpAfterMax(t *testing.T) {
	srv, hits := scripted(t, "0", http.StatusServiceUnavailable)
	pol := retryPolicy{max: 2, base: time.Millisecond, cap: 5 * time.Millisecond}
	status, body, retries, sheds, err := sendRetry(srv.Client(), srv.URL, nil, pol, rand.New(rand.NewSource(1)))
	if err != nil || status != http.StatusServiceUnavailable || string(body) != "answer 2" {
		t.Fatalf("status %d, body %q, err %v; want the last 503 back", status, body, err)
	}
	if retries != 2 || sheds != 0 || hits.Load() != 3 {
		t.Fatalf("retries %d, sheds %d over %d requests; want 2, 0 over 3", retries, sheds, hits.Load())
	}
}

const exposition = `# HELP moma_live_resolve_stage_seconds Resolve stage latency.
# TYPE moma_live_resolve_stage_seconds histogram
moma_live_resolve_stage_seconds_bucket{stage="block",le="+Inf"} 10
moma_live_resolve_stage_seconds_sum{stage="block"} 0.5
moma_live_resolve_stage_seconds_count{stage="block"} 10
moma_live_resolve_stage_seconds_sum{stage="score"} 1.25
moma_live_resolve_stage_seconds_count{stage="score"} 10
moma_other_seconds_sum 9
`

const totals = `moma_live_resolve_seconds_sum 2
moma_live_resolve_seconds_count 10
`

func TestScrapeStages(t *testing.T) {
	for _, tc := range []struct {
		label, body string
		want        map[string]stageAgg
	}{
		{"complete", exposition + totals, map[string]stageAgg{
			"":      {sum: 2, count: 10},
			"block": {sum: 0.5, count: 10},
			"score": {sum: 1.25, count: 10},
		}},
		{"no resolve totals", exposition, nil},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/metrics" {
				http.NotFound(w, r)
				return
			}
			fmt.Fprint(w, tc.body)
		}))
		got := scrapeStages(srv.Client(), srv.URL+"/")
		srv.Close()
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: scraped %v, want %v", tc.label, got, tc.want)
		}
	}
}

func TestBuildPayloadsRejectsUnknownSource(t *testing.T) {
	if _, _, err := buildPayloads(sources.SmallConfig(), "Nope", "title", 5); err == nil || !strings.Contains(err.Error(), "Nope") {
		t.Fatalf("err = %v, want one naming the source", err)
	}
}

// TestRunResolvesAndAdds drives run end to end against an in-process
// moma-serve over the small world: a request budget of resolves, then the
// add phase, whose arrivals land in the served set's live mapping.
func TestRunResolvesAndAdds(t *testing.T) {
	sys := moma.NewSystem()
	if err := sys.LoadSource(sources.Generate(sources.SmallConfig()).ACM); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RegisterResolver("ACM.Publication", moma.LiveConfig{
		MinShared: 2,
		Threshold: 0.75,
		Columns:   []moma.LiveColumn{{QueryAttr: "title", SetAttr: "name", Sim: moma.Trigram}},
	}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.New(sys).Handler())
	defer srv.Close()

	pol := retryPolicy{max: 3, base: time.Millisecond, cap: 10 * time.Millisecond}
	if err := run(srv.URL, "ACM.Publication", "DBLP", "small", 0, "title", 2, time.Minute, 40, 5, 5*time.Second, 8, pol); err != nil {
		t.Fatal(err)
	}
	live, ok := sys.MappingByName("live.ACM.Publication")
	if !ok {
		t.Fatal("the add phase left no live.ACM.Publication mapping")
	}
	added := 0
	for _, c := range live.Sorted() {
		if strings.HasPrefix(string(c.Domain), "load-add-") || strings.HasPrefix(string(c.Range), "load-add-") {
			added++
		}
	}
	if added == 0 {
		t.Fatalf("live.ACM.Publication holds no load-add- rows among its %d", live.Len())
	}
}
