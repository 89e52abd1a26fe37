// Package match implements MOMA's extensible matcher library (§2.2):
// generic attribute matchers parameterized by attribute pair, similarity
// function and threshold; a multi-attribute matcher; a TF-IDF matcher that
// builds its corpus from the match inputs; and the neighborhood matcher of
// §4.2 that derives same-mappings from association mappings plus an
// existing same-mapping.
//
// Matchers conform to a single interface — they produce a same-mapping —
// so that workflows can combine any of them uniformly, and they are
// registered by name in a Registry for use from the script language.
package match

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/mapping"
	"repro/internal/model"
)

// Matcher computes a same-mapping between two object sets of the same
// object type. Implementations must be safe for reuse across calls.
type Matcher interface {
	// Match returns a same-mapping between a and b.
	Match(a, b *model.ObjectSet) (*mapping.Mapping, error)
	// Name identifies the matcher in reports and registries.
	Name() string
}

// Func adapts a function to the Matcher interface.
type Func struct {
	MatcherName string
	Fn          func(a, b *model.ObjectSet) (*mapping.Mapping, error)
}

// Match implements Matcher.
func (f Func) Match(a, b *model.ObjectSet) (*mapping.Mapping, error) { return f.Fn(a, b) }

// Name implements Matcher.
func (f Func) Name() string { return f.MatcherName }

// Registry holds named matchers. The paper's matcher library also admits
// whole workflows as matchers; anything satisfying Matcher can register.
type Registry struct {
	mu       sync.RWMutex
	matchers map[string]Matcher
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{matchers: make(map[string]Matcher)}
}

// Register adds a matcher under its name; duplicate names are rejected.
func (r *Registry) Register(m Matcher) error {
	if m == nil || m.Name() == "" {
		return fmt.Errorf("match: Register needs a named matcher")
	}
	key := strings.ToLower(m.Name())
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.matchers[key]; dup {
		return fmt.Errorf("match: duplicate matcher %q", m.Name())
	}
	r.matchers[key] = m
	r.order = append(r.order, m.Name())
	return nil
}

// MustRegister panics on Register error (static wiring).
func (r *Registry) MustRegister(m Matcher) {
	if err := r.Register(m); err != nil {
		panic(err)
	}
}

// Lookup finds a matcher by case-insensitive name.
func (r *Registry) Lookup(name string) (Matcher, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.matchers[strings.ToLower(name)]
	return m, ok
}

// Names returns registered names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// ConfigurableWorkers is implemented by matchers whose scoring parallelism
// can be configured externally. WithWorkers returns a copy with the given
// worker count — matchers must stay safe for reuse, so the receiver is never
// mutated. The workflow engine uses this to push one Workers setting through
// every matcher of a workflow.
type ConfigurableWorkers interface {
	Matcher
	// WithWorkers returns a copy of the matcher scoring with n workers.
	WithWorkers(n int) Matcher
}

// scoreBatchSize is the number of candidate pairs handed to a scoring
// worker at a time. Batches amortize channel operations; the pipeline holds
// at most ~2·workers batches in flight, so memory stays bounded regardless
// of how many candidates the blocker streams.
const scoreBatchSize = 512

// keptPair is one above-threshold correspondence tagged with the global
// stream position of its candidate pair, so the parallel pipeline can
// restore the blocker's emission order before inserting into the mapping.
type keptPair struct {
	seq  uint64
	pair block.Pair
	sim  float64
}

// streamScore drains a candidate-pair stream through a bounded worker
// pipeline and calls emit, in stream order, for every pair score keeps.
// Unlike a materialized scoring pass, memory is O(workers·batch + kept):
// the full candidate set — potentially O(n·m) — never exists as a slice,
// and only kept correspondences are retained. score returns the pair's
// similarity and whether it is kept; a negative similarity says a floor
// ended the scoring early (sim.ProfiledSim.Compare) and counts as pruned.
// score must be safe for concurrent use when workers > 1; emit runs on the
// calling goroutine.
func streamScore(stream func(yield func(block.Pair) bool), workers int, score func(block.Pair) (float64, bool), emit func(block.Pair, float64)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Pipeline metrics accumulate in locals and flush once on return — the
	// per-pair loop must not pay atomic traffic.
	var pairs, kept, pruned uint64
	defer func() {
		matchPairsTotal.Add(pairs)
		matchKeptTotal.Add(kept)
		matchPrunedTotal.Add(pruned)
	}()
	inline := func(p block.Pair) {
		if s, keep := score(p); keep {
			kept++
			emit(p, s)
		} else if s < 0 {
			pruned++
		}
	}
	if workers <= 1 {
		stream(func(p block.Pair) bool {
			pairs++
			inline(p)
			return true
		})
		return
	}
	type batch struct {
		seq   uint64 // stream position of pairs[0]
		pairs []block.Pair
	}
	// shard is what one worker hands back.
	type shard struct {
		kept   []keptPair
		pruned uint64
	}
	// Workers start lazily, on the first full batch: a stream that fits in
	// one batch is scored inline below, where goroutine spin-up and the
	// shard merge would cost more than the scoring itself.
	var (
		batches chan batch
		shards  []shard
		wg      sync.WaitGroup
	)
	startWorkers := func() {
		batches = make(chan batch, workers)
		shards = make([]shard, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var mine shard
				for bt := range batches {
					for i, p := range bt.pairs {
						if s, keep := score(p); keep {
							mine.kept = append(mine.kept, keptPair{seq: bt.seq + uint64(i), pair: p, sim: s})
						} else if s < 0 {
							mine.pruned++
						}
					}
				}
				shards[w] = mine
			}(w)
		}
	}
	// sendBatch times the channel send: a non-zero wait means every worker
	// is busy and the producer is back-pressured.
	sendBatch := func(bt batch) {
		t0 := time.Now()
		batches <- bt
		matchQueueWait.Observe(time.Since(t0).Seconds())
		matchBatchesTotal.Inc()
	}
	var seq uint64
	buf := make([]block.Pair, 0, scoreBatchSize)
	stream(func(p block.Pair) bool {
		pairs++
		buf = append(buf, p)
		if len(buf) == scoreBatchSize {
			if batches == nil {
				startWorkers()
			}
			sendBatch(batch{seq: seq, pairs: buf})
			seq += uint64(len(buf))
			buf = make([]block.Pair, 0, scoreBatchSize)
		}
		return true
	})
	if batches == nil {
		for _, p := range buf {
			inline(p)
		}
		return
	}
	if len(buf) > 0 {
		sendBatch(batch{seq: seq, pairs: buf})
	}
	close(batches)
	wg.Wait()
	// Merge the per-worker shards back into stream order: results must be
	// bit-identical to the sequential path, including mapping insertion
	// order. Kept correspondences are few relative to candidates, so the
	// sort is cheap.
	total := 0
	for _, s := range shards {
		total += len(s.kept)
		pruned += s.pruned
	}
	all := make([]keptPair, 0, total)
	for _, s := range shards {
		all = append(all, s.kept...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	kept += uint64(len(all))
	for _, k := range all {
		emit(k.pair, k.sim)
	}
}

// requireSameType validates that both inputs hold the same object type.
func requireSameType(a, b *model.ObjectSet) error {
	if !a.LDS().SameType(b.LDS()) {
		return fmt.Errorf("match: inputs must share an object type, got %s and %s", a.LDS(), b.LDS())
	}
	return nil
}

// sortedAttrValues collects the non-empty values of attr across a set,
// sorted, for corpus construction.
func sortedAttrValues(set *model.ObjectSet, attr string) []string {
	var vals []string
	set.Each(func(in *model.Instance) bool {
		if v := in.Attr(attr); v != "" {
			vals = append(vals, v)
		}
		return true
	})
	sort.Strings(vals)
	return vals
}
