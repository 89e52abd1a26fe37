package serve

import (
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// histStep is one scripted state change.
type histStep struct{ method, path, body string }

// historyScript scripts n adds, replaces and removes of near-duplicates of
// one title against a set, so every step changes what a query for that
// title returns and what the set's delta mapping holds.
func historyScript(set, prefix, title string, n int) []histStep {
	var steps []histStep
	var live []string
	for k := 0; k < n; k++ {
		switch {
		case k%4 == 3: // remove the oldest arrival
			steps = append(steps, histStep{"DELETE", "/sets/" + set + "/instances/" + live[0], ""})
			live = live[1:]
		case k%7 == 5: // replace the newest arrival
			steps = append(steps, histStep{"POST", "/sets/" + set + "/instances",
				fmt.Sprintf(`{"id":%q,"attrs":{"title":"%s second edition %d"}}`, live[len(live)-1], title, k)})
		default:
			id := fmt.Sprintf("%s%02d", prefix, k)
			steps = append(steps, histStep{"POST", "/sets/" + set + "/instances",
				fmt.Sprintf(`{"id":%q,"attrs":{"title":"%s part %d"}}`, id, title, k)})
			live = append(live, id)
		}
	}
	return steps
}

// TestHistoryMatchesSequentialOracle checks the handlers' concurrent
// histories against a sequential oracle instead of merely running them
// under -race. One writer applies a scripted sequence of adds, replaces and
// removes to a set while readers resolve one fixed query and page the set's
// delta mapping; the oracle is the answer a fresh server gives after each
// step of the same script applied alone. Every concurrent answer must be
// one of the oracle's, a reader must never see the script run backwards,
// and the final state must be the sequential one. A second set is written
// and read at the same time: its own history must come out sequential too,
// and a query its arrivals do not touch must keep its answer throughout —
// the sets share no state.
func TestHistoryMatchesSequentialOracle(t *testing.T) {
	const (
		n       = 40
		readers = 6
		title   = "incremental object matching over mapping repositories"
		query   = `{"attrs":{"title":"` + title + `"}}`
		// Matches the second set's seed members; its arrivals share no two
		// tokens with it.
		bystander = `{"attrs":{"title":"shared benchmark topic number 3 for source 1"}}`
	)
	_, _, names := twoSetServer(t)
	script := historyScript(names[0], "h", title, n)
	side := historyScript(names[1], "b", "unrelated arrival stream beside the first", n)
	resolve := func(h http.Handler, set, body string) string {
		return wireCall(h, "POST", "/sets/"+set+"/resolve", body)
	}
	page := func(h http.Handler, set string) string {
		return wireCall(h, "GET", "/mappings/live."+set+"?limit=100000", "")
	}
	apply := func(h http.Handler, st histStep) {
		if out := wireCall(h, st.method, st.path, st.body); !strings.HasPrefix(out, "200 ") {
			t.Errorf("%s %s: %s", st.method, st.path, out)
		}
	}

	// The oracle: both scripts applied single-threaded to a fresh server.
	srv, _, _ := twoSetServer(t)
	seq := srv.Handler()
	answers, pages := []string{resolve(seq, names[0], query)}, []string{page(seq, names[0])}
	for k, st := range script {
		apply(seq, st)
		answers, pages = append(answers, resolve(seq, names[0], query)), append(pages, page(seq, names[0]))
		if answers[k+1] == answers[k] {
			t.Fatalf("step %d (%s %s) does not change the query's answer; the history check would not see it", k, st.method, st.path)
		}
	}
	still := resolve(seq, names[1], bystander)
	if !strings.Contains(still, `"id":"s1-3"`) {
		t.Fatalf("bystander query has no answer to keep: %s", still)
	}
	for _, st := range side {
		apply(seq, st)
	}
	if got := resolve(seq, names[1], bystander); got != still {
		t.Fatalf("second set's arrivals change the bystander answer:\n%s\n%s", still, got)
	}
	sidePage := page(seq, names[1])

	// The concurrent run, on another fresh server.
	srv, _, _ = twoSetServer(t)
	h := srv.Handler()
	var (
		wg    sync.WaitGroup
		done  = make(chan struct{})
		reads atomic.Int64
	)
	// read calls until the writer is done and once more after it, walking k
	// forward through states: an answer equal to no states[k] at or after
	// the previous answer's k is not a sequential state, or is an older one.
	read := func(what string, states []string, call func() string, count bool) {
		defer wg.Done()
		k, n, failed := 0, 0, false
		for running := true; running; n++ {
			select {
			case <-done:
				running = false
			default:
			}
			got := call()
			for k < len(states) && states[k] != got {
				k++
			}
			if k == len(states) && !failed {
				failed = true // keep reading: the writer waits for reads
				t.Errorf("%s: read %d is not a sequential state at or after the previous read's:\n%s", what, n, got)
			}
			if count {
				reads.Add(1)
			}
			runtime.Gosched() // the readers outnumber the cores; don't starve the writers
		}
		if !failed && k != len(states)-1 {
			t.Errorf("%s: final read is sequential state %d, want the last, %d", what, k, len(states)-1)
		}
	}
	wg.Add(readers + 3)
	for i := 0; i < readers; i++ {
		go read("resolve", answers, func() string { return resolve(h, names[0], query) }, true)
	}
	go read("mapping page", pages, func() string { return page(h, names[0]) }, false)
	go read("bystander resolve", []string{still}, func() string { return resolve(h, names[1], bystander) }, false)
	go func() {
		defer wg.Done()
		for _, st := range side {
			apply(h, st)
		}
	}()
	for _, st := range script {
		apply(h, st)
		// Let a reader in between two writes, or the history is the oracle's.
		for next := reads.Load() + 1; reads.Load() < next; {
			runtime.Gosched()
		}
	}
	close(done)
	wg.Wait()
	if got := page(h, names[1]); got != sidePage {
		t.Errorf("second set's delta mapping is not the sequential one:\n%s\nwant\n%s", got, sidePage)
	}
}
