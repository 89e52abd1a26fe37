package moma

// Benchmarks for the online resolution subsystem. BenchmarkResolve pins the
// acceptance property of the live resolver: resolving one record against a
// warm indexed set does no full index rebuild — per-op time and allocations
// track the candidate count, not the set size. The vocabulary scales with
// the set so the expected candidates per query stay constant; compare the
// n=1000 and n=10000 allocation counts to see the independence.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/live"
	"repro/internal/model"
	"repro/internal/sim"
)

// benchLiveSet builds a synthetic publication set of n instances whose
// titles draw from a vocabulary proportional to n (constant token
// selectivity across scales).
func benchLiveSet(n int) *ObjectSet {
	return benchLiveSetVocab(n, max(n/25, 20), 0)
}

// benchLiveSetVocab is benchLiveSet over a vocabulary of the given size: the
// smaller it is against n, the more members share tokens with a query. Three
// titles in four open with one of the first stopWords words of the
// vocabulary, which puts a few very long posting lists beside the short ones.
func benchLiveSetVocab(n, vocabSize, stopWords int) *ObjectSet {
	rng := rand.New(rand.NewSource(20070107))
	vocab := make([]string, vocabSize)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("word%04d", i)
	}
	set := NewObjectSet(LDS{Source: "ACM", Type: Publication})
	for i := 0; i < n; i++ {
		title := ""
		for w := 0; w < 8; w++ {
			if w > 0 {
				title += " "
			}
			if w == 0 && stopWords > 0 && i%4 > 0 {
				title += vocab[rng.Intn(stopWords)]
				continue
			}
			title += vocab[rng.Intn(len(vocab))]
		}
		set.AddNew(ID(fmt.Sprintf("p%06d", i)), map[string]string{
			"title": title,
			"year":  fmt.Sprintf("%d", 1994+i%10),
		})
	}
	return set
}

// benchLiveQueries derives query records from set members with light edits,
// so most queries block to a non-empty candidate set.
func benchLiveQueries(set *ObjectSet, n int) []*Instance {
	ids := set.IDs()
	out := make([]*Instance, 0, n)
	for i := 0; i < n; i++ {
		src := set.Get(ids[(i*37)%len(ids)])
		out = append(out, model.NewInstance(ID(fmt.Sprintf("q%04d", i)), map[string]string{
			"title": src.Attr("title") + " extra",
			"year":  src.Attr("year"),
		}))
	}
	return out
}

func benchResolverFor(b *testing.B, set *ObjectSet) *LiveResolver {
	b.Helper()
	r, err := live.NewResolver(set, LiveConfig{
		MinShared: 3,
		Threshold: 0.7,
		Columns: []LiveColumn{
			{QueryAttr: "title", SetAttr: "title", Sim: Trigram, Weight: 3},
			{QueryAttr: "year", SetAttr: "year", Sim: sim.YearSim, Weight: 1},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkResolve: single-record resolution against a warm resolver, at
// three set sizes with constant token selectivity. Allocations per op must
// stay flat from n=1000 through n=100000 (no set-sized work per query).
// The n=100000 case is the large-scale setting and is skipped in -short
// runs (CI runs it in a dedicated step).
//
// The dense case is the setting the threshold bounds exist for, beside
// n=100000, the one they must not tax: 20 000 titles over 300 words, most of
// them starting with one of four stop words (the shape of the paper's Google
// Scholar set), under the paper's DBLP-GS matcher — two shared tokens,
// trigram >= 0.75 — admit hundreds of candidates per query and keep a few.
func BenchmarkResolve(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		if n >= 100000 && testing.Short() {
			continue
		}
		set := benchLiveSet(n)
		r := benchResolverFor(b, set)
		queries := benchLiveQueries(set, 256)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchResolveLoop(b, r, queries) })
	}
	set := benchLiveSetVocab(20000, 300, 4)
	r, err := live.NewResolver(set, LiveConfig{
		MinShared: 2,
		Threshold: 0.75,
		Columns:   []LiveColumn{{QueryAttr: "title", SetAttr: "title", Sim: Trigram}},
	})
	if err != nil {
		b.Fatal(err)
	}
	queries := benchLiveQueries(set, 256)
	b.Run("dense", func(b *testing.B) { benchResolveLoop(b, r, queries) })
}

func benchResolveLoop(b *testing.B, r *LiveResolver, queries []*Instance) {
	// Warm-up: touch every query once outside the timer.
	for _, q := range queries {
		r.Resolve(q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	matches := 0
	for i := 0; i < b.N; i++ {
		matches += len(r.Resolve(queries[i%len(queries)]))
	}
	if b.N > len(queries) && matches == 0 {
		b.Fatal("benchmark queries never match; fixture broken")
	}
}
