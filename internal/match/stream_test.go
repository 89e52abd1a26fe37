package match

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/block"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/sim"
)

// materializedReference reproduces the seed scoring path the streaming
// pipeline replaced: materialize the blocker's full pair slice, score it
// sequentially over raw strings, and insert kept pairs in order. The
// streaming matchers must be bit-identical to this, including mapping
// insertion order.
func materializedReference(a, b *model.ObjectSet, blocker block.Blocker, attrA, attrB string, fn sim.Func, threshold float64) *mapping.Mapping {
	out := mapping.NewSame(a.LDS(), b.LDS())
	for _, p := range block.Pairs(blocker, a, b) {
		s := fn(a.Get(p.A).Attr(attrA), b.Get(p.B).Attr(attrB))
		if s >= threshold {
			out.AddMax(p.A, p.B, s)
		}
	}
	return out
}

// mappingsIdentical asserts got and want hold the same correspondence
// sequence — identical pairs, similarities and insertion order.
func mappingsIdentical(t *testing.T, got, want *mapping.Mapping, label string) {
	t.Helper()
	gc, wc := got.Correspondences(), want.Correspondences()
	if !reflect.DeepEqual(gc, wc) {
		t.Fatalf("%s: correspondence sequences differ\n got %d corrs: %.8v\nwant %d corrs: %.8v",
			label, len(gc), gc, len(wc), wc)
	}
}

// TestStreamedAttributeMatchesMaterialized is the differential test pinning
// the streaming pipeline to the seed path: for every blocker and for
// sequential and parallel scoring, the streamed Attribute matcher must
// return the exact mapping of the materialize-then-score reference.
func TestStreamedAttributeMatchesMaterialized(t *testing.T) {
	a, b := syntheticPubs(120)
	blockers := []block.Blocker{
		block.CrossProduct{},
		block.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 1},
		block.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 2},
		block.SortedNeighborhood{AttrA: "title", AttrB: "name", Window: 5},
	}
	for _, bl := range blockers {
		want := materializedReference(a, b, bl, "title", "name", sim.Trigram, 0.3)
		for _, workers := range []int{1, 5} {
			m := &Attribute{
				MatcherName: "stream", AttrA: "title", AttrB: "name",
				Sim: sim.Trigram, Threshold: 0.3, Blocker: bl, Workers: workers,
			}
			got, err := m.Match(a, b)
			if err != nil {
				t.Fatal(err)
			}
			mappingsIdentical(t, got, want, bl.String())
		}
	}
}

// TestStreamedMultiAttributeMatchesMaterialized pins the multi-attribute
// streaming path the same way, against a weighted-average reference.
func TestStreamedMultiAttributeMatchesMaterialized(t *testing.T) {
	a, b := syntheticPubs(100)
	bl := block.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 1}
	pairs := []AttrPair{
		{AttrA: "title", AttrB: "name", Sim: sim.Trigram, Weight: 3},
		{AttrA: "authors", AttrB: "authors", Sim: sim.PersonName, Weight: 1},
		{AttrA: "year", AttrB: "year", Sim: sim.YearSim, Weight: 2},
	}
	want := mapping.NewSame(a.LDS(), b.LDS())
	for _, p := range block.Pairs(bl, a, b) {
		ia, ib := a.Get(p.A), b.Get(p.B)
		var sum float64
		for _, ap := range pairs {
			sum += ap.Weight * ap.Sim(ia.Attr(ap.AttrA), ib.Attr(ap.AttrB))
		}
		if s := sum / 6; s >= 0.4 {
			want.AddMax(p.A, p.B, s)
		}
	}
	for _, workers := range []int{1, 6} {
		m := &MultiAttribute{
			MatcherName: "stream-multi", Pairs: pairs, Threshold: 0.4,
			Blocker: bl, Workers: workers,
		}
		got, err := m.Match(a, b)
		if err != nil {
			t.Fatal(err)
		}
		mappingsIdentical(t, got, want, "multi")
	}
}

// TestPrunedMatchesExhaustive holds the floor-bounded matchers to the
// exhaustive oracles above — every blocked pair scored in full through the
// string measures — at the benchmark's configurations (trigram at 0.75 and
// 0.82 behind two shared tokens, at 0.7 behind three) and at a weighted
// three-column configuration, at 1, 3 and 8 workers: identical
// correspondences, similarities (eps 0) and insertion order, while the
// pruned counter shows that pairs were in fact cut short and the pairs
// counter still counts every pair the blocker streamed.
func TestPrunedMatchesExhaustive(t *testing.T) {
	a, b := syntheticPubs(300)
	run := func(label string, m ConfigurableWorkers, want *mapping.Mapping, streamed int) {
		t.Helper()
		if want.Len() == 0 {
			t.Fatalf("%s: the oracle keeps nothing; fixture broken", label)
		}
		for _, workers := range []int{1, 3, 8} {
			pairs, pruned := matchPairsTotal.Load(), matchPrunedTotal.Load()
			got, err := m.WithWorkers(workers).Match(a, b)
			if err != nil {
				t.Fatal(err)
			}
			pairs, pruned = matchPairsTotal.Load()-pairs, matchPrunedTotal.Load()-pruned
			mappingsIdentical(t, got, want, fmt.Sprintf("%s at %d workers", label, workers))
			if int(pairs) != streamed {
				t.Errorf("%s at %d workers: %d pairs counted, the blocker streams %d", label, workers, pairs, streamed)
			}
			if pruned == 0 || pruned >= pairs {
				t.Errorf("%s at %d workers: %d of %d pairs pruned; the bound is not exercised", label, workers, pruned, pairs)
			}
		}
	}
	for _, cfg := range []struct {
		minShared int
		threshold float64
	}{{2, 0.75}, {2, 0.82}, {3, 0.7}} {
		bl := block.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: cfg.minShared}
		run(fmt.Sprintf("trigram %.2f behind %d shared tokens", cfg.threshold, cfg.minShared),
			&Attribute{AttrA: "title", AttrB: "name", Sim: sim.Trigram, Threshold: cfg.threshold, Blocker: bl},
			materializedReference(a, b, bl, "title", "name", sim.Trigram, cfg.threshold),
			len(block.Pairs(bl, a, b)))
	}

	bl := block.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 2}
	pairs := []AttrPair{
		{AttrA: "title", AttrB: "name", Sim: sim.Trigram, Weight: 3},
		{AttrA: "authors", AttrB: "authors", Sim: sim.TokenJaccard, Weight: 1},
		{AttrA: "year", AttrB: "year", Sim: sim.YearSim, Weight: 2},
	}
	want := mapping.NewSame(a.LDS(), b.LDS())
	for _, p := range block.Pairs(bl, a, b) {
		ia, ib := a.Get(p.A), b.Get(p.B)
		var sum float64
		for _, ap := range pairs {
			sum += ap.Weight * ap.Sim(ia.Attr(ap.AttrA), ib.Attr(ap.AttrB))
		}
		if s := sum / 6; s >= 0.75 {
			want.AddMax(p.A, p.B, s)
		}
	}
	run("weighted title 3, authors 1, year 2 at 0.75",
		&MultiAttribute{Pairs: pairs, Threshold: 0.75, Blocker: bl}, want, len(block.Pairs(bl, a, b)))
}

// TestTokenReuseMatchesFreshTokenization pins the blocking-layer token
// reuse: when the match attribute coincides with the blocking attribute,
// the profile build consumes the blocker's cached sim.Tokens output, and
// the result must equal both a non-coinciding configuration and the string
// fallback — for every token-consuming profiled measure.
func TestTokenReuseMatchesFreshTokenization(t *testing.T) {
	a, b := syntheticPubs(80)
	for _, fn := range []struct {
		name string
		sim  sim.Func
	}{
		{"TokenJaccard", sim.TokenJaccard},
		{"TokenDice", sim.TokenDice},
		{"MongeElkan", sim.MongeElkanJaroWinkler},
		{"PersonName", sim.PersonName},
	} {
		// Blocking attribute == match attribute: token reuse active.
		reusing := &Attribute{
			MatcherName: fn.name, AttrA: "title", AttrB: "name",
			Sim: fn.sim, Threshold: 0.25,
			Blocker: block.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 1},
		}
		// Blocking attribute != match attribute: profiles tokenize fresh.
		fresh := &Attribute{
			MatcherName: fn.name, AttrA: "title", AttrB: "name",
			Sim: fn.sim, Threshold: 0.25,
			Blocker: block.TokenBlocking{AttrA: "authors", AttrB: "authors", MinShared: 1},
		}
		mr, err := reusing.Match(a, b)
		if err != nil {
			t.Fatal(err)
		}
		mf, err := fresh.Match(a, b)
		if err != nil {
			t.Fatal(err)
		}
		// Different blockers generate different candidate sets; compare on
		// the intersection the stricter blocker kept.
		for _, c := range mr.Correspondences() {
			if s, ok := mf.Sim(c.Domain, c.Range); ok && s != c.Sim {
				t.Errorf("%s: reused-token score (%s,%s)=%v, fresh=%v", fn.name, c.Domain, c.Range, c.Sim, s)
			}
		}
		// And against the materialized string reference on the same blocker.
		want := materializedReference(a, b, reusing.Blocker, "title", "name", fn.sim, 0.25)
		mappingsIdentical(t, mr, want, fn.name+" vs reference")
	}
}

// TestInternedMatchesStringFallback pins the interned pipeline against the
// string-keyed path at the mapping level: for every token-consuming
// measure, a matcher on the profiled path (interned blocking columns,
// ID-keyed token sets) must produce the exact correspondence sequence —
// scores and insertion order — of the same matcher forced onto the
// per-pair string fallback by hiding the measure behind a closure.
func TestInternedMatchesStringFallback(t *testing.T) {
	a, b := syntheticPubs(90)
	for _, fn := range []struct {
		name string
		sim  sim.Func
	}{
		{"TokenJaccard", sim.TokenJaccard},
		{"TokenDice", sim.TokenDice},
		{"Trigram", sim.Trigram},
		{"MongeElkan", sim.MongeElkanJaroWinkler},
		{"PersonName", sim.PersonName},
	} {
		bl := block.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 1}
		interned := &Attribute{
			MatcherName: fn.name, AttrA: "title", AttrB: "name",
			Sim: fn.sim, Threshold: 0.25, Blocker: bl,
		}
		// Wrapping in a closure defeats ProfiledOf: scoring falls back to
		// raw string pairs, bypassing profiles and interning entirely.
		wrapped := func(x, y string) float64 { return fn.sim(x, y) }
		stringPath := &Attribute{
			MatcherName: fn.name + "-strings", AttrA: "title", AttrB: "name",
			Sim: wrapped, Threshold: 0.25, Blocker: bl,
		}
		mi, err := interned.Match(a, b)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := stringPath.Match(a, b)
		if err != nil {
			t.Fatal(err)
		}
		mappingsIdentical(t, mi, ms, fn.name+" interned vs string fallback")
	}
}

// TestTFIDFTokenReuse covers the corpus-backed measure's ProfileTokens path
// (blocking attribute == match attribute).
func TestTFIDFTokenReuse(t *testing.T) {
	a, b := syntheticPubs(80)
	build := func(blockAttrA, blockAttrB string) *TFIDFAttribute {
		return &TFIDFAttribute{
			MatcherName: "tfidf", AttrA: "title", AttrB: "name", Threshold: 0.2,
			Blocker: block.TokenBlocking{AttrA: blockAttrA, AttrB: blockAttrB, MinShared: 1},
		}
	}
	mr, err := build("title", "name").Match(a, b)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := build("authors", "authors").Match(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range mr.Correspondences() {
		if s, ok := mf.Sim(c.Domain, c.Range); ok && s != c.Sim {
			t.Errorf("tfidf: reused-token score (%s,%s)=%v, fresh=%v", c.Domain, c.Range, c.Sim, s)
		}
	}
}

// TestWithWorkersReturnsConfiguredCopy asserts the engine-facing
// ConfigurableWorkers implementations never mutate the receiver.
func TestWithWorkersReturnsConfiguredCopy(t *testing.T) {
	attr := &Attribute{MatcherName: "w", AttrA: "x", AttrB: "x", Sim: sim.Trigram, Workers: 1}
	multi := &MultiAttribute{MatcherName: "wm", Workers: 1}
	tfidf := &TFIDFAttribute{MatcherName: "wt", Workers: 1}
	for _, tc := range []struct {
		m       ConfigurableWorkers
		workers func() int
	}{
		{attr, func() int { return attr.Workers }},
		{multi, func() int { return multi.Workers }},
		{tfidf, func() int { return tfidf.Workers }},
	} {
		cp := tc.m.WithWorkers(7)
		if tc.workers() != 1 {
			t.Errorf("%s: WithWorkers mutated the receiver", tc.m.Name())
		}
		if cp.Name() != tc.m.Name() {
			t.Errorf("%s: copy changed name to %s", tc.m.Name(), cp.Name())
		}
	}
	if cp := attr.WithWorkers(7).(*Attribute); cp.Workers != 7 {
		t.Errorf("copy Workers = %d, want 7", cp.Workers)
	}
}
