package moma_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"

	moma "repro"
	"repro/internal/serve"
	"repro/internal/sources"
)

// Serve: the online resolution subsystem end to end, in process. It builds
// a small synthetic world, registers a live resolver over the ACM
// publication set, serves it over HTTP, and then plays a client: resolve a
// DBLP title against ACM, stream a new arrival in (observing its
// same-mapping delta), remove it again, and read the service's health.
// Timing fields (the resolve latency, the uptime) are left out of the
// output so that it is the same on every run.
func Example_serve() {
	// --- server side -----------------------------------------------------
	sys := moma.NewSystem()
	d := sources.Generate(sources.SmallConfig())
	if err := sys.LoadSource(d.ACM); err != nil {
		fmt.Println(err)
		return
	}
	resolver, err := sys.RegisterResolver("ACM.Publication", moma.LiveConfig{
		MinShared: 2,
		Threshold: 0.75,
		Columns: []moma.LiveColumn{
			// ACM titles live in the "name" attribute; queries send "title".
			{QueryAttr: "title", SetAttr: "name", Sim: moma.Trigram},
		},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("resolver ready: %s\n\n", resolver)

	srv := httptest.NewServer(serve.New(sys).Handler())
	defer srv.Close()

	// --- client side -----------------------------------------------------
	base := srv.URL

	// 1. Resolve DBLP titles against the ACM set until one hits — most DBLP
	// publications have an ACM counterpart, some fall into the generator's
	// dirty gaps.
	var rr serve.ResolveResponse
	var query string
	var stop error
	d.DBLP.Pubs.Each(func(in *moma.Instance) bool {
		query = in.Attr("title")
		rr = serve.ResolveResponse{}
		if stop = postJSON(base+"/sets/ACM.Publication/resolve",
			serve.ResolveRequest{ID: string(in.ID), Attrs: map[string]string{"title": query}, Limit: 3}, &rr); stop != nil {
			return false
		}
		return len(rr.Matches) == 0
	})
	if stop != nil {
		fmt.Println(stop)
		return
	}
	fmt.Printf("resolve %q\n  -> %d matches\n", query, len(rr.Matches))
	for _, m := range rr.Matches {
		fmt.Printf("     %-12s sim %.3f\n", m.ID, m.Sim)
	}

	// 2. A new instance arrives — a near-duplicate of a live ACM record: it
	// is resolved against the live members and its correspondences land in
	// the repository mapping live.ACM.Publication.
	var dupTitle string
	d.ACM.Pubs.Each(func(in *moma.Instance) bool {
		dupTitle = in.Attr("name")
		return dupTitle == ""
	})
	var ar serve.AddInstanceResponse
	if err := postJSON(base+"/sets/ACM.Publication/instances",
		serve.AddInstanceRequest{ID: "arrival-1", Attrs: map[string]string{"name": dupTitle}}, &ar); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("\narrival %q (%q) matched %d live instances (delta in %q)\n",
		ar.ID, dupTitle, len(ar.Matches), ar.Mapping)

	// 3. Remove it again; the delta mapping forgets it.
	req, _ := http.NewRequest(http.MethodDelete, base+"/sets/ACM.Publication/instances/arrival-1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fmt.Println(err)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	fmt.Printf("removed arrival-1: HTTP %d\n", resp.StatusCode)

	// 4. Health.
	var hr serve.HealthResponse
	if err := getJSON(base+"/healthz", &hr); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("\nhealthz: %s, %d live in ACM.Publication\n",
		hr.Status, hr.Resolvers["ACM.Publication"].Live)

	// Output:
	// resolver ready: live.Resolver{Publication@ACM, live: 225, slots: 225, index: 225 docs/274 terms}
	//
	// resolve "Buffer Allocation Parallel Clusters Revisited"
	//   -> 1 matches
	//      P-600001     sim 1.000
	//
	// arrival "arrival-1" ("Buffer Allocation Parallel Clusters Revisited") matched 1 live instances (delta in "live.ACM.Publication")
	// removed arrival-1: HTTP 200
	//
	// healthz: ok, 225 live in ACM.Publication
}

func postJSON(url string, body, out any) error {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, b)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}
