package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("t_total", "help"); again != c {
		t.Fatal("get-or-create returned a different counter handle")
	}
	g := r.Gauge("t_gauge", "help")
	g.Set(10)
	g.Add(-3)
	if got := g.Load(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	labeled := r.Counter("t_total", "help", `k="v"`)
	if labeled == c {
		t.Fatal("labeled child must be a distinct series")
	}
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_x", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("registering t_x as a gauge should panic")
		}
	}()
	r.Gauge("t_x", "help")
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_seconds", "help", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	cum, sum, count := h.snapshot()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if want := 56.05; sum != want {
		t.Fatalf("sum = %g, want %g", sum, want)
	}
	want := []uint64{1, 3, 4} // cumulative: <=0.1, <=1, <=10
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cum[%d] = %d, want %d (all %v)", i, cum[i], w, want)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_conc_seconds", "help", []float64{0.5})
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
	if got, want := h.Sum(), 0.25*workers*per; got != want {
		t.Fatalf("sum = %g, want %g", got, want)
	}
}

func TestWritePrometheusDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_b_total", "b counter").Inc()
	r.Counter("t_a_total", "a counter").Add(2)
	r.Gauge("t_g", "a gauge").Set(3)
	r.GaugeFunc("t_f", "a func gauge", func() float64 { return 1.5 })
	r.Counter("t_l_total", "labeled", `stage="b"`).Inc()
	r.Counter("t_l_total", "labeled", `stage="a"`).Inc()
	h := r.Histogram("t_h_seconds", "a histogram", []float64{0.1, 1})
	h.Observe(0.5)

	var b1, b2 strings.Builder
	r.WritePrometheus(&b1)
	r.WritePrometheus(&b2)
	if b1.String() != b2.String() {
		t.Fatal("two scrapes of an unchanged registry differ")
	}
	out := b1.String()
	// Families sort by name; series within t_l_total sort by label.
	if strings.Index(out, "t_a_total") > strings.Index(out, "t_b_total") {
		t.Fatal("families not sorted by name")
	}
	if strings.Index(out, `t_l_total{stage="a"}`) > strings.Index(out, `t_l_total{stage="b"}`) {
		t.Fatal("series not sorted by label")
	}
	for _, want := range []string{
		"# HELP t_a_total a counter", "# TYPE t_a_total counter",
		"# TYPE t_g gauge", "# TYPE t_f gauge", "t_f 1.5",
		"# TYPE t_h_seconds histogram",
		`t_h_seconds_bucket{le="0.1"} 0`, `t_h_seconds_bucket{le="1"} 1`,
		`t_h_seconds_bucket{le="+Inf"} 1`, "t_h_seconds_sum 0.5", "t_h_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

func TestSpanMarks(t *testing.T) {
	var sp Span
	sp.Begin()
	time.Sleep(time.Millisecond)
	sp.Mark(0)
	time.Sleep(time.Millisecond)
	sp.Mark(1)
	sp.Mark(1) // same stage accumulates; near-zero elapsed
	if sp.StageNS(0) <= 0 || sp.StageNS(1) <= 0 {
		t.Fatalf("stage tallies = %d, %d; want > 0", sp.StageNS(0), sp.StageNS(1))
	}
	if got := sp.StageNS(2); got != 0 {
		t.Fatalf("untouched stage = %d, want 0", got)
	}
	sp.Mark(MaxStages + 3) // out of range: dropped, no panic
	if total := sp.Total(); total < 2*time.Millisecond {
		t.Fatalf("total = %v, want >= 2ms", total)
	}
	sp.Begin()
	if sp.StageNS(0) != 0 || sp.Candidates != 0 {
		t.Fatal("Begin must reset the span")
	}
}

func TestStagesFinishFeedsHistograms(t *testing.T) {
	r := NewRegistry()
	ring := &SlowRing{}
	st := NewStages(r, "t_op", "test op", ring, "first", "second")
	var sp Span
	sp.Begin()
	sp.Mark(0)
	sp.Mark(1)
	sp.Candidates, sp.Kept = 7, 2
	st.Finish(&sp, "q1")
	if got := st.total.Count(); got != 1 {
		t.Fatalf("total histogram count = %d, want 1", got)
	}
	if got := st.hists[0].Count(); got != 1 {
		t.Fatalf("stage histogram count = %d, want 1", got)
	}
	// Ring threshold is 0: nothing captured.
	if n := ring.Total(); n != 0 {
		t.Fatalf("captured %d traces with capture disabled", n)
	}
	ring.SetThreshold(time.Nanosecond)
	sp.Begin()
	sp.Mark(0)
	sp.Candidates, sp.Pruned, sp.Kept = 3, 2, 1
	st.Finish(&sp, "q2")
	snap := ring.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("captured %d traces, want 1", len(snap))
	}
	q := snap[0]
	if q.Op != "t_op" || q.ID != "q2" || q.Candidates != 3 || q.Pruned != 2 || q.Kept != 1 {
		t.Fatalf("trace = %+v", q)
	}
	if len(q.Stages) != 2 || q.Stages[0].Stage != "first" || q.Stages[0].NS <= 0 {
		t.Fatalf("stages = %+v", q.Stages)
	}
	if q.TotalNS <= 0 || q.UnixNano == 0 {
		t.Fatalf("trace missing timing: %+v", q)
	}
}

func TestSlowRingWrapNewestFirst(t *testing.T) {
	r := NewRegistry()
	ring := &SlowRing{}
	ring.SetThreshold(time.Nanosecond)
	st := NewStages(r, "t_wrap", "wrap test", ring, "only")
	ids := make([]string, slowRingSize+10)
	for i := range ids {
		ids[i] = "q" + strings.Repeat("x", i%3) // varied, deterministic
		var sp Span
		sp.Begin()
		sp.Mark(0)
		st.Finish(&sp, ids[i])
	}
	if got := ring.Total(); got != uint64(len(ids)) {
		t.Fatalf("total = %d, want %d", got, len(ids))
	}
	snap := ring.Snapshot()
	if len(snap) != slowRingSize {
		t.Fatalf("snapshot holds %d, want %d", len(snap), slowRingSize)
	}
	if snap[0].ID != ids[len(ids)-1] {
		t.Fatalf("snapshot[0].ID = %q, want newest %q", snap[0].ID, ids[len(ids)-1])
	}
}

// TestSlowRingConcurrent captures into one ring from several goroutines
// while others read it back; under -race this proves the ring's locking.
// Every capture is counted and every retained entry is a whole one.
func TestSlowRingConcurrent(t *testing.T) {
	r := NewRegistry()
	ring := &SlowRing{}
	ring.SetThreshold(time.Nanosecond)
	st := NewStages(r, "t_conc_slow", "help", ring, "only")
	const writers, per = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				var sp Span
				sp.Begin()
				sp.Mark(0)
				sp.Kept = 1
				st.Finish(&sp, "q")
			}
		}()
	}
	for rd := 0; rd < 2; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				for _, q := range ring.Snapshot() {
					if q.Op != "t_conc_slow" || q.ID != "q" || q.Kept != 1 {
						t.Errorf("torn entry: %+v", q)
						return
					}
				}
				ring.Total()
			}
		}()
	}
	wg.Wait()
	if got := ring.Total(); got != writers*per {
		t.Fatalf("total = %d, want %d", got, writers*per)
	}
	if got := len(ring.Snapshot()); got != slowRingSize {
		t.Fatalf("snapshot holds %d, want %d", got, slowRingSize)
	}
}

// TestRegistryConcurrent registers and scrapes one registry from several
// goroutines; under -race this proves the family table's locking, and
// get-or-create must hand every caller of a name the same handle.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 50
	shared := make([]*Counter, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shared[w] = r.Counter("t_conc_shared_total", "help")
			for i := 0; i < per; i++ {
				r.Counter("t_conc_total", "help", fmt.Sprintf(`w="%d",i="%d"`, w, i)).Inc()
				r.Histogram("t_conc_seconds", "help", nil, fmt.Sprintf(`w="%d"`, w)).Observe(0.001)
				if i%10 == 0 {
					r.WritePrometheus(io.Discard)
				}
			}
		}(w)
	}
	wg.Wait()
	for w, c := range shared {
		if c != shared[0] {
			t.Fatalf("worker %d got a different handle for one counter", w)
		}
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	if got := strings.Count(b.String(), "\nt_conc_total{"); got != workers*per {
		t.Fatalf("exposition lists %d t_conc_total series, want %d", got, workers*per)
	}
}

func TestStagesPanicsOnBadStageCount(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("NewStages with zero stages should panic")
		}
	}()
	NewStages(r, "t_bad", "help", nil)
}

// gatedWriter blocks its first Write until released — a scraper that
// stalled mid-response.
type gatedWriter struct {
	wrote   chan struct{} // closed on first Write
	release chan struct{} // Write returns once this closes
	once    sync.Once
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	g.once.Do(func() { close(g.wrote) })
	<-g.release
	return len(p), nil
}

// TestMetricsWriteDoesNotHoldLock pins the snapshot-then-emit contract of
// WritePrometheus: a scrape stalled on a slow client blocks neither
// recording into existing handles nor a first-time registration — the two
// things a request's route metrics do.
func TestMetricsWriteDoesNotHoldLock(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_requests_total", "help", `route="resolve",code="200"`)
	h := r.Histogram("t_request_seconds", "help", nil, `route="resolve"`)

	gw := &gatedWriter{wrote: make(chan struct{}), release: make(chan struct{})}
	writeDone := make(chan struct{})
	go func() {
		r.WritePrometheus(gw)
		close(writeDone)
	}()
	<-gw.wrote // the scrape is now mid-emission, stalled on the writer

	recorded := make(chan struct{})
	go func() {
		c.Inc()
		h.Observe(0.001)
		r.Counter("t_requests_total", "help", `route="resolve",code="404"`).Inc()
		close(recorded)
	}()
	select {
	case <-recorded:
	case <-time.After(2 * time.Second):
		t.Fatal("recording blocked while a scrape was stalled on a slow scraper")
	}
	close(gw.release)
	<-writeDone
}
