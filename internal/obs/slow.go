package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// slowRingSize is the number of retained slow-query traces. A ring this
// small is a flight recorder, not a log: it answers "what did the last slow
// queries spend their time on", and an external scraper that wants history
// polls /debug/slow.
const slowRingSize = 64

// SlowRing captures recent traced operations whose total latency exceeded a
// threshold. The warm-path cost when an operation is fast (the common case)
// is one atomic load and a compare; only threshold-exceeding operations take
// the mutex, and the record itself is allocation-free — entries hold string
// headers and fixed arrays, so capture never disturbs the allocation budget
// of the path it observes. DefaultSlow is the process-global ring the
// resolver's Stages feed and /debug/slow drains.
type SlowRing struct {
	threshold atomic.Int64 // ns; <= 0 disables capture

	mu      sync.Mutex
	entries [slowRingSize]slowEntry // guarded by mu
	total   uint64                  // lifetime captures; guarded by mu
}

// slowEntry is one captured trace. Strings are retained by header (the id
// string of a resolved instance, the Stages' registered names) — immutable
// and at most slowRingSize of them, so retention is bounded.
type slowEntry struct {
	st         *Stages
	id         string
	at         int64 // unix nanoseconds at capture
	totalNS    int64
	ns         [MaxStages]int64
	candidates int
	pruned     int
	kept       int
}

// DefaultSlow is the process-global slow-query ring.
var DefaultSlow = &SlowRing{}

// SetSlowThreshold sets the capture threshold of the process-global ring;
// d <= 0 disables capture. See SlowRing.SetThreshold.
func SetSlowThreshold(d time.Duration) { DefaultSlow.SetThreshold(d) }

// SlowSnapshot returns the process-global ring's captured traces, newest
// first.
func SlowSnapshot() []SlowQuery { return DefaultSlow.Snapshot() }

// SetThreshold sets the capture threshold: operations totalling d or more
// are captured. d <= 0 disables capture (the default).
func (r *SlowRing) SetThreshold(d time.Duration) { r.threshold.Store(int64(d)) }

// Threshold returns the current capture threshold.
func (r *SlowRing) Threshold() time.Duration { return time.Duration(r.threshold.Load()) }

// record captures one finished span when it exceeds the threshold.
func (r *SlowRing) record(st *Stages, sp *Span, id string, total time.Duration) {
	thr := r.threshold.Load()
	if thr <= 0 || total.Nanoseconds() < thr {
		return
	}
	now := time.Now().UnixNano()
	r.mu.Lock()
	e := &r.entries[r.total%slowRingSize]
	e.st = st
	e.id = id
	e.at = now
	e.totalNS = total.Nanoseconds()
	e.ns = sp.ns
	e.candidates = sp.Candidates
	e.pruned = sp.Pruned
	e.kept = sp.Kept
	r.total++
	r.mu.Unlock()
}

// Total returns the lifetime number of captured traces (not bounded by the
// ring size).
func (r *SlowRing) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// SlowStage is one stage's share of a captured trace.
type SlowStage struct {
	Stage string `json:"stage"`
	NS    int64  `json:"ns"`
}

// SlowQuery is one captured trace, JSON-shaped for /debug/slow.
type SlowQuery struct {
	Op         string      `json:"op"`
	ID         string      `json:"id,omitempty"`
	UnixNano   int64       `json:"unix_nano"`
	TotalNS    int64       `json:"total_ns"`
	Stages     []SlowStage `json:"stages"`
	Candidates int         `json:"candidates"`
	Pruned     int         `json:"pruned"`
	Kept       int         `json:"kept"`
}

// Snapshot returns the captured traces, newest first. Snapshots allocate
// freely — they serve debug reads, not hot paths.
func (r *SlowRing) Snapshot() []SlowQuery {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.total
	if n > slowRingSize {
		n = slowRingSize
	}
	out := make([]SlowQuery, 0, n)
	for i := uint64(0); i < n; i++ {
		e := &r.entries[(r.total-1-i)%slowRingSize]
		q := SlowQuery{
			Op:         e.st.op,
			ID:         e.id,
			UnixNano:   e.at,
			TotalNS:    e.totalNS,
			Candidates: e.candidates,
			Pruned:     e.pruned,
			Kept:       e.kept,
			Stages:     make([]SlowStage, len(e.st.names)),
		}
		for s, name := range e.st.names {
			q.Stages[s] = SlowStage{Stage: name, NS: e.ns[s]}
		}
		out = append(out, q)
	}
	return out
}
