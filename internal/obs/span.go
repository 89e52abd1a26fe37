package obs

import (
	"fmt"
	"time"
)

// MaxStages bounds the stages of one traced pipeline; Span's scratch is a
// fixed array so tracing never allocates.
const MaxStages = 8

// Span is the caller-owned scratch of one traced operation: per-stage
// nanosecond tallies plus the candidate/kept counts the slow-query ring
// reports. Embed it in pooled or stack scratch (the live resolver keeps one
// in its pooled resolveScratch); Begin resets it, Mark attributes elapsed
// time to a stage, Stages.Finish feeds the histograms. A Span is not safe
// for concurrent use — it is scratch, one operation at a time.
type Span struct {
	t0, last time.Time
	ns       [MaxStages]int64

	// Candidates, Pruned and Kept are operation counts reported in
	// slow-query traces: how many candidates the stage pipeline examined,
	// how many of them a bound rejected before they were scored in full, and
	// how many survived. The instrumented code sets them before Finish.
	Candidates, Pruned, Kept int
}

// Begin resets the span and stamps its start.
func (sp *Span) Begin() {
	*sp = Span{}
	sp.t0 = time.Now()
	sp.last = sp.t0
}

// Mark attributes the time since the previous Mark (or Begin) to the given
// stage index. Marks of the same stage accumulate. Out-of-range stages are
// dropped, not panicked over — tracing must never take down a resolve.
func (sp *Span) Mark(stage int) {
	now := time.Now()
	if uint(stage) < MaxStages {
		sp.ns[stage] += now.Sub(sp.last).Nanoseconds()
	}
	sp.last = now
}

// StageNS returns the nanoseconds attributed to a stage so far.
func (sp *Span) StageNS(stage int) int64 {
	if uint(stage) < MaxStages {
		return sp.ns[stage]
	}
	return 0
}

// Total returns the time since Begin.
func (sp *Span) Total() time.Duration { return time.Since(sp.t0) }

// Stages is a registered pipeline trace: an ordered set of stage names with
// one latency histogram per stage plus a total histogram, optionally feeding
// a slow-query ring. Create once with NewStages (registration allocates);
// Finish on the hot path records with atomic adds only.
type Stages struct {
	op    string
	names []string
	hists []*Histogram
	total *Histogram
	ring  *SlowRing
}

// NewStages registers the stage histograms of the pipeline op on r:
// "<op>_stage_seconds" with one stage="<name>" series per stage, and
// "<op>_seconds" for the whole operation. ring, when non-nil, captures
// threshold-exceeding operations; nil disables capture for this pipeline.
func NewStages(r *Registry, op, help string, ring *SlowRing, stages ...string) *Stages {
	if len(stages) == 0 || len(stages) > MaxStages {
		panic(fmt.Sprintf("obs: NewStages(%q) needs 1..%d stages, got %d", op, MaxStages, len(stages)))
	}
	st := &Stages{op: op, names: stages, ring: ring}
	st.hists = make([]*Histogram, len(stages))
	for i, name := range stages {
		st.hists[i] = r.Histogram(op+"_stage_seconds", help+" (per stage)", nil, `stage="`+name+`"`)
	}
	st.total = r.Histogram(op+"_seconds", help, nil)
	return st
}

// Names returns the stage names in pipeline order.
func (st *Stages) Names() []string { return st.names }

// Finish records the span: each stage's tally into its histogram, the total
// into the operation histogram, and — when the total exceeds the ring's
// threshold — a slow-query trace under the given id. It returns the total.
func (st *Stages) Finish(sp *Span, id string) time.Duration {
	total := time.Since(sp.t0)
	for i := range st.hists {
		st.hists[i].Observe(float64(sp.ns[i]) / 1e9)
	}
	st.total.Observe(total.Seconds())
	if st.ring != nil {
		st.ring.record(st, sp, id, total)
	}
	return total
}
