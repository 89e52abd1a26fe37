package serve

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	moma "repro"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire/*.golden from the current responses")

// wireMask blanks the two fields of a response body that depend on the
// clock; every other byte is part of the wire format.
var wireMask = regexp.MustCompile(`"(took_us|uptime_s)":[0-9.e+-]+`)

// wireCall sends one request with a raw body (no wire type of this package
// is involved, so the test reads the same before and after a change to
// them) and renders what a client can see of the answer: status line,
// Content-Type, Retry-After and the exact body bytes, clock fields masked.
func wireCall(h http.Handler, method, path, body string) string {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return fmt.Sprintf("%d %s\nContent-Type: %s\nRetry-After: %s\n%s",
		rec.Code, http.StatusText(rec.Code), rec.Header().Get("Content-Type"), rec.Header().Get("Retry-After"),
		wireMask.ReplaceAllString(rec.Body.String(), `"$1":0`))
}

// wireServer serves two sets. ACM.Publication holds near-duplicates of one
// title in an insertion order that is neither similarity nor id order, two
// of them identical under ids that sort against their insertion order, so
// ranking, the id tie-break and the delta mapping's row order all show.
func wireServer(t *testing.T, opts Options) *Server {
	t.Helper()
	sys := moma.NewSystem()
	for _, set := range []struct {
		name   string
		lds    moma.LDS
		titles [][2]string
	}{
		{"ACM.Publication", moma.LDS{Source: "ACM", Type: moma.Publication}, [][2]string{
			{"a3", "mapping based object matching systems in practice"},
			{"a9", "mapping based object matching"},
			{"a1", "mapping based object matching"},
			{"a5", "a formal perspective on the view selection problem"},
			{"a2", "mapping based object matching system"},
		}},
		{"DBLP.Publication", moma.LDS{Source: "DBLP", Type: moma.Publication}, [][2]string{
			{"d1", "generic schema matching with cupid"},
			{"d2", "entity resolution over web data sources"},
		}},
	} {
		objs := moma.NewObjectSet(set.lds)
		for _, it := range set.titles {
			objs.AddNew(moma.ID(it[0]), map[string]string{"title": it[1]})
		}
		if err := sys.AddObjectSet(set.name, objs); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RegisterResolver(set.name, moma.LiveConfig{
			MinShared: 2,
			Threshold: 0.6,
			Columns:   []moma.LiveColumn{{QueryAttr: "title", SetAttr: "title", Sim: moma.Trigram}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return NewWithOptions(sys, opts)
}

// TestWireGolden pins the JSON wire format byte for byte: each scenario is
// a request sequence against a fresh server, and its golden file holds every
// request next to the answer it got.
func TestWireGolden(t *testing.T) {
	type step struct{ method, path, body string }
	const acm = "/sets/ACM.Publication"
	for _, sc := range []struct {
		name  string
		opts  Options
		prep  func(*Server)
		steps []step
	}{
		{name: "resolve", steps: []step{
			{"POST", acm + "/resolve", `{"id":"q1","attrs":{"title":"mapping based object matching"}}`},
			{"POST", acm + "/resolve", `{"attrs":{"title":"mapping based object matching"},"limit":2}`},
			{"POST", acm + "/resolve", `{"attrs":{"title":"mapping based object matching"},"limit":9}`},
			{"POST", acm + "/resolve", `{"attrs":{"title":"nothing in the set shares these words"}}`},
			{"POST", acm + "/resolve", `{"attrs":{"year":"2004"}}`},
		}},
		{name: "add", steps: []step{
			{"POST", acm + "/instances", `{"id":"n1","attrs":{"title":"mapping based object matching system"}}`},
			{"POST", acm + "/instances", `{"id":"n2","attrs":{"title":"an arrival unlike every member"}}`},
			{"POST", acm + "/instances", `{"id":"n3","attrs":{"title":"mapping based object matching"},"no_resolve":true}`},
			{"POST", acm + "/instances", `{"id":"n1","attrs":{"title":"the view selection problem a formal perspective"}}`},
			{"GET", "/mappings/live.ACM.Publication", ""},
		}},
		{name: "remove", steps: []step{
			{"POST", acm + "/instances", `{"id":"n1","attrs":{"title":"mapping based object matching system"}}`},
			{"DELETE", acm + "/instances/n1", ""},
			{"DELETE", acm + "/instances/n1", ""},
			{"DELETE", acm + "/instances/a9", ""},
			{"POST", acm + "/resolve", `{"attrs":{"title":"mapping based object matching"}}`},
			{"GET", "/mappings/live.ACM.Publication", ""},
		}},
		{name: "mapping", steps: []step{
			{"GET", "/mappings/live.ACM.Publication", ""},
			{"POST", acm + "/instances", `{"id":"n1","attrs":{"title":"mapping based object matching system"}}`},
			{"POST", acm + "/instances", `{"id":"n2","attrs":{"title":"mapping based object matching"}}`},
			{"POST", "/sets/DBLP.Publication/instances", `{"id":"n3","attrs":{"title":"generic schema matching with cupid"}}`},
			{"GET", "/mappings/live.ACM.Publication", ""},
			{"GET", "/mappings/live.ACM.Publication?limit=2", ""},
			{"GET", "/mappings/live.ACM.Publication?limit=0", ""},
			{"GET", "/mappings/live.DBLP.Publication", ""},
			{"GET", "/mappings/live.ACM.Publication?limit=-1", ""},
		}},
		{name: "healthz", steps: []step{
			{"GET", "/healthz", ""},
			{"POST", acm + "/instances", `{"id":"n1","attrs":{"title":"mapping based object matching system"}}`},
			{"DELETE", acm + "/instances/a5", ""},
			{"GET", "/healthz", ""},
			{"GET", "/readyz", ""},
		}},
		{name: "errors", opts: Options{MaxBodyBytes: 96}, steps: []step{
			{"POST", acm + "/resolve", `{`},
			{"POST", acm + "/resolve", `{"attrs":{}}`},
			{"POST", acm + "/instances", `{"attrs":{"title":"no id"}}`},
			{"POST", acm + "/instances", `{"id":7}`},
			{"POST", "/sets/Nope/resolve", `{"attrs":{"title":"x"}}`},
			{"POST", "/sets/Nope/instances", `{"id":"n1","attrs":{"title":"x"}}`},
			{"DELETE", "/sets/Nope/instances/n1", ""},
			{"GET", "/mappings/nope", ""},
			{"POST", acm + "/resolve", `{"attrs":{"title":"` + strings.Repeat("x", 128) + `"}}`},
			{"POST", acm + "/instances", `{"id":"big","attrs":{"title":"` + strings.Repeat("x", 128) + `"}}`},
		}},
		{name: "draining", prep: func(s *Server) { s.draining.Store(true) }, steps: []step{
			{"POST", acm + "/resolve", `{"attrs":{"title":"mapping based object matching"}}`},
			{"GET", "/readyz", ""},
		}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			srv := wireServer(t, sc.opts)
			if sc.prep != nil {
				sc.prep(srv)
			}
			var got strings.Builder
			for _, st := range sc.steps {
				fmt.Fprintf(&got, ">>> %s %s %s\n%s\n", st.method, st.path, st.body, wireCall(srv.Handler(), st.method, st.path, st.body))
			}
			path := filepath.Join("testdata", "wire", sc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != string(want) {
				t.Errorf("wire format moved (go test -run TestWireGolden -update rewrites %s)\n--- got\n%s--- want\n%s", path, got.String(), want)
			}
		})
	}
}
