package match

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/block"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/sim"
)

// materializedReference is the scoring path the kernel must equal:
// materialize the blocker's full pair slice, score it sequentially and in
// full over raw strings, and insert kept pairs in order through the id-level
// AddMax. The matchers must be bit-identical to this, including mapping
// insertion order. An id absent from its input reads as the empty value.
func materializedReference(a, b *model.ObjectSet, blocker block.Blocker, attrA, attrB string, fn sim.Func, threshold float64, skipMissing bool) *mapping.Mapping {
	out := mapping.NewSame(a.LDS(), b.LDS())
	for _, p := range block.Pairs(orCross(blocker), a, b) {
		va, vb := a.Get(p.A).Attr(attrA), b.Get(p.B).Attr(attrB)
		if skipMissing && (va == "" || vb == "") {
			continue
		}
		if s := fn(va, vb); s >= threshold {
			out.AddMax(p.A, p.B, s)
		}
	}
	return out
}

// orCross resolves the nil blocker the way the matchers do.
func orCross(bl block.Blocker) block.Blocker {
	if bl == nil {
		return block.CrossProduct{}
	}
	return bl
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

// kernelProcs are the GOMAXPROCS settings every differential suite runs
// at: the kernel's worker count.
var kernelProcs = []int{1, 2, 3, 8}

// matchAt runs m over (a, b) at GOMAXPROCS procs, the kernel's worker
// count, and restores the previous setting.
func matchAt(t *testing.T, procs int, m Matcher, a, b *model.ObjectSet) *mapping.Mapping {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	got, err := m.Match(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// repeatBlocker streams another blocker's pairs with repeats: every fifth
// pair twice in a row and the first ten once more at the end. Its kept
// pairs must each appear once, where they first occurred.
type repeatBlocker struct{ inner block.Blocker }

func (r repeatBlocker) PairsEach(a, b *model.ObjectSet, yield func(block.Pair) bool) {
	pairs := block.Pairs(r.inner, a, b)
	for i, p := range pairs {
		if !yield(p) || i%5 == 0 && !yield(p) {
			return
		}
	}
	for _, p := range pairs[:min(10, len(pairs))] {
		if !yield(p) {
			return
		}
	}
}

func (r repeatBlocker) String() string { return "repeat(" + r.inner.String() + ")" }

// kernelBlockers is every way candidates reach the kernel: the nil default,
// the two A-major built-ins on their range probes, and the single-stream
// path behind SortedNeighborhood (not A-major), a blocker naming ids absent
// from the inputs and one that repeats pairs.
func kernelBlockers(attrA, attrB string) []block.Blocker {
	token := block.TokenBlocking{AttrA: attrA, AttrB: attrB, MinShared: 1}
	return []block.Blocker{
		nil,
		block.CrossProduct{},
		token,
		block.TokenBlocking{AttrA: attrA, AttrB: attrB, MinShared: 2},
		block.SortedNeighborhood{AttrA: attrA, AttrB: attrB, Window: 5},
		alienBlocker{},
		repeatBlocker{token},
	}
}

// firstN returns the set of the first n instances of set.
func firstN(set *model.ObjectSet, n int) *model.ObjectSet {
	return set.Subset(set.IDs()[:n])
}

// kernelInputs are the input shapes the suites cover: a dense fixture with
// attribute-less instances on both sides, fewer domain instances than
// workers in front of a range input large enough to be split, and an empty
// input on either side.
func kernelInputs() []kernelInput {
	a, b := syntheticPubs(120)
	withMissing(a, b)
	wideA, wideB := syntheticPubs(2500)
	return []kernelInput{
		{"120 with attribute-less instances", a, b, true},
		{"|A| = 2 < workers", firstN(wideA, 2), wideB, false},
		{"empty A", firstN(a, 0), b, false},
		{"empty B", a, firstN(b, 0), false},
	}
}

type kernelInput struct {
	label   string
	a, b    *model.ObjectSet
	missing bool // some instances lack the matched attributes
}

// matchCounts snapshots the kernel's counters so a test can assert what one
// match added.
type matchCounts struct{ pairs, kept, pruned uint64 }

func matchCountsNow() matchCounts {
	return matchCounts{matchPairsTotal.Load(), matchKeptTotal.Load(), matchPrunedTotal.Load()}
}

func (c matchCounts) since() matchCounts {
	now := matchCountsNow()
	return matchCounts{now.pairs - c.pairs, now.kept - c.kept, now.pruned - c.pruned}
}

// checkKernel runs m over (a, b) at every GOMAXPROCS of kernelProcs and holds
// each run to the oracle's mapping — correspondences, similarities (eps 0)
// and insertion order — and to the counters' meaning: every candidate the
// blocker streams is counted once, whatever the width, and a stream without repeats
// keeps exactly the result's rows. It returns each run's counts.
func checkKernel(t *testing.T, label string, m Matcher, bl block.Blocker, a, b *model.ObjectSet, want *mapping.Mapping) []matchCounts {
	t.Helper()
	var runs []matchCounts
	streamed := len(block.Pairs(orCross(bl), a, b))
	_, repeats := bl.(repeatBlocker)
	for _, procs := range kernelProcs {
		at := fmt.Sprintf("%s at GOMAXPROCS %d", label, procs)
		c0 := matchCountsNow()
		got := matchAt(t, procs, m, a, b)
		counts := c0.since()
		mappingsIdentical(t, got, want, at)
		if int(counts.pairs) != streamed {
			t.Errorf("%s: %d pairs counted, the blocker streams %d", at, counts.pairs, streamed)
		}
		if !repeats && int(counts.kept) != got.Len() {
			t.Errorf("%s: %d pairs counted as kept, the mapping holds %d", at, counts.kept, got.Len())
		}
		if counts.kept+counts.pruned > counts.pairs {
			t.Errorf("%s: %d kept + %d pruned exceed %d pairs", at, counts.kept, counts.pruned, counts.pairs)
		}
		runs = append(runs, counts)
	}
	return runs
}

// TestKernelSplitsTheFixtures guards the suites below against passing on
// one range only: at GOMAXPROCS above one (the kernel's worker count) the
// dense fixture and the two-instance domain must really be cut, the latter
// into single rows.
func TestKernelSplitsTheFixtures(t *testing.T) {
	inputs := kernelInputs()
	for _, bl := range []block.RangeBlocker{
		block.CrossProduct{},
		block.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 1},
		block.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 2},
	} {
		for _, in := range inputs[:2] {
			for _, procs := range kernelProcs[1:] {
				chunks := par.SplitBy(in.a.Len(), procs, bl.Probe(in.a, in.b).Cost).Chunks()
				if want := min(procs, in.a.Len()); chunks != want {
					t.Errorf("%s, %s, GOMAXPROCS %d: %d ranges, want %d", in.label, bl, procs, chunks, want)
				}
			}
		}
	}
}

// TestStreamedAttributeMatchesMaterialized is the differential test pinning
// the kernel to the materialize-then-score reference: for every blocker,
// input shape and worker count, with and without SkipMissing, the Attribute
// matcher must return the reference's exact mapping.
func TestStreamedAttributeMatchesMaterialized(t *testing.T) {
	for _, in := range kernelInputs() {
		for _, bl := range kernelBlockers("title", "name") {
			for _, skip := range []bool{false, true} {
				if skip && !in.missing {
					continue // nothing for SkipMissing to skip
				}
				want := materializedReference(in.a, in.b, bl, "title", "name", sim.Trigram, 0.3, skip)
				m := &Attribute{
					MatcherName: "stream", AttrA: "title", AttrB: "name",
					Sim: sim.Trigram, Threshold: 0.3, Blocker: bl, SkipMissing: skip,
				}
				checkKernel(t, fmt.Sprintf("%s, %v, SkipMissing=%v", in.label, bl, skip), m, bl, in.a, in.b, want)
			}
		}
	}
}

// weightedReference is materializedReference for the multi-attribute
// matcher: every column scored in full, the weighted average taken in
// configured order.
func weightedReference(a, b *model.ObjectSet, blocker block.Blocker, pairs []AttrPair, threshold float64) *mapping.Mapping {
	var total float64
	for _, ap := range pairs {
		total += ap.Weight
	}
	out := mapping.NewSame(a.LDS(), b.LDS())
	for _, p := range block.Pairs(orCross(blocker), a, b) {
		ia, ib := a.Get(p.A), b.Get(p.B)
		var sum float64
		for _, ap := range pairs {
			sum += ap.Weight * ap.Sim(ia.Attr(ap.AttrA), ib.Attr(ap.AttrB))
		}
		if s := sum / total; s >= threshold {
			out.AddMax(p.A, p.B, s)
		}
	}
	return out
}

// TestStreamedMultiAttributeMatchesMaterialized pins the multi-attribute
// matcher the same way, against the weighted-average reference.
func TestStreamedMultiAttributeMatchesMaterialized(t *testing.T) {
	pairs := []AttrPair{
		{AttrA: "title", AttrB: "name", Sim: sim.Trigram, Weight: 3},
		{AttrA: "authors", AttrB: "authors", Sim: sim.PersonName, Weight: 1},
		{AttrA: "year", AttrB: "year", Sim: sim.YearSim, Weight: 2},
	}
	for _, in := range kernelInputs() {
		for _, bl := range kernelBlockers("title", "name") {
			want := weightedReference(in.a, in.b, bl, pairs, 0.4)
			m := &MultiAttribute{MatcherName: "stream-multi", Pairs: pairs, Threshold: 0.4, Blocker: bl}
			checkKernel(t, fmt.Sprintf("multi: %s, %v", in.label, bl), m, bl, in.a, in.b, want)
		}
	}
}

// TestTFIDFMatchesExhaustive pins the TF-IDF matcher: its corpus is built
// from the inputs' sorted attribute values, so the oracle builds the same
// corpus and scores every streamed pair in full (floor 0) over fresh
// profiles.
func TestTFIDFMatchesExhaustive(t *testing.T) {
	for _, in := range kernelInputs() {
		corpus := sim.NewTFIDF()
		corpus.AddAll(sortedAttrValues(in.a, "title"))
		corpus.AddAll(sortedAttrValues(in.b, "name"))
		cosine := func(x, y string) float64 {
			ps := corpus.Profiled()
			return ps.Compare(sim.NewProfile(ps, x), sim.NewProfile(ps, y), 0)
		}
		for _, bl := range kernelBlockers("title", "name") {
			want := materializedReference(in.a, in.b, bl, "title", "name", cosine, 0.2, false)
			m := &TFIDFAttribute{MatcherName: "tfidf", AttrA: "title", AttrB: "name", Threshold: 0.2, Blocker: bl}
			checkKernel(t, fmt.Sprintf("tfidf: %s, %v", in.label, bl), m, bl, in.a, in.b, want)
		}
	}
}

// TestPrunedMatchesExhaustive holds the floor-bounded matchers to the
// exhaustive oracles above — every blocked pair scored in full through the
// string measures — at the benchmark's configurations (trigram at 0.75 and
// 0.82 behind two shared tokens, at 0.7 behind three) and at a weighted
// three-column configuration, at every worker count: identical
// correspondences, similarities (eps 0) and insertion order, while the
// pruned counter shows that pairs were in fact cut short and the pairs
// counter still counts every pair the blocker streamed.
func TestPrunedMatchesExhaustive(t *testing.T) {
	a, b := syntheticPubs(300)
	run := func(label string, m Matcher, bl block.Blocker, want *mapping.Mapping) {
		t.Helper()
		if want.Len() == 0 {
			t.Fatalf("%s: the oracle keeps nothing; fixture broken", label)
		}
		c0 := matchCountsNow()
		checkKernel(t, label, m, bl, a, b, want)
		if c := c0.since(); c.pruned == 0 || c.pruned >= c.pairs {
			t.Errorf("%s: %d of %d pairs pruned; the bound is not exercised", label, c.pruned, c.pairs)
		}
	}
	for _, cfg := range []struct {
		minShared int
		threshold float64
	}{{2, 0.75}, {2, 0.82}, {3, 0.7}} {
		bl := block.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: cfg.minShared}
		run(fmt.Sprintf("trigram %.2f behind %d shared tokens", cfg.threshold, cfg.minShared),
			&Attribute{AttrA: "title", AttrB: "name", Sim: sim.Trigram, Threshold: cfg.threshold, Blocker: bl}, bl,
			materializedReference(a, b, bl, "title", "name", sim.Trigram, cfg.threshold, false))
	}

	bl := block.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 2}
	pairs := []AttrPair{
		{AttrA: "title", AttrB: "name", Sim: sim.Trigram, Weight: 3},
		{AttrA: "authors", AttrB: "authors", Sim: sim.TokenJaccard, Weight: 1},
		{AttrA: "year", AttrB: "year", Sim: sim.YearSim, Weight: 2},
	}
	run("weighted title 3, authors 1, year 2 at 0.75",
		&MultiAttribute{Pairs: pairs, Threshold: 0.75, Blocker: bl}, bl, weightedReference(a, b, bl, pairs, 0.75))
}

// comparedPruned counts the streamed candidates that a kernel scoring each
// one through Compare at the threshold — the key test, then the merge, per
// pair — sees stop early, skipping what SkipMissing skips: the pruned count
// the row filter must reproduce.
func comparedPruned(a, b *model.ObjectSet, bl block.Blocker, attrA, attrB string, fn sim.Func, threshold float64, skipMissing bool) uint64 {
	ps := sim.ProfiledOf(fn)
	var pruned uint64
	for _, p := range block.Pairs(orCross(bl), a, b) {
		va, vb := a.Get(p.A).Attr(attrA), b.Get(p.B).Attr(attrB)
		if skipMissing && (va == "" || vb == "") {
			continue
		}
		if ps.Compare(sim.NewProfile(ps, va), sim.NewProfile(ps, vb), threshold) < 0 {
			pruned++
		}
	}
	return pruned
}

// weightedPruned is comparedPruned for the multi-attribute matcher. A
// weightless leading column changes no floor and no sum, and moves the
// configured first column to second place, where sim.Weighted tests a keyed
// column's keys per pair instead of leaving them to the row filter.
func weightedPruned(a, b *model.ObjectSet, bl block.Blocker, pairs []AttrPair, threshold float64) uint64 {
	measures := []sim.ProfiledSim{sim.ProfiledOf(sim.Equal)}
	weights := []float64{0}
	for _, ap := range pairs {
		measures, weights = append(measures, sim.ProfiledOf(ap.Sim)), append(weights, ap.Weight)
	}
	perPair := sim.NewWeighted(measures, weights, threshold)
	var pruned uint64
	for _, p := range block.Pairs(orCross(bl), a, b) {
		ia, ib := a.Get(p.A), b.Get(p.B)
		s := perPair.Score(func(i int) (pa, pb *sim.Profile, ka, kb *sim.Key) {
			va, vb := "", ""
			if i > 0 {
				va, vb = ia.Attr(pairs[i-1].AttrA), ib.Attr(pairs[i-1].AttrB)
			}
			pa, pb = sim.NewProfile(measures[i], va), sim.NewProfile(measures[i], vb)
			if k, ok := measures[i].(sim.Keyed); ok {
				kpa, kpb := k.Key(pa), k.Key(pb)
				ka, kb = &kpa, &kpb
			}
			return pa, pb, ka, kb
		})
		if s < 0 {
			pruned++
		}
	}
	return pruned
}

// checkPruned asserts that every run counted the oracle's pruned candidates.
func checkPruned(t *testing.T, label string, runs []matchCounts, want uint64) {
	t.Helper()
	for i, c := range runs {
		if c.pruned != want {
			t.Errorf("%s at GOMAXPROCS %d: %d pairs pruned, scoring each through Compare prunes %d", label, kernelProcs[i], c.pruned, want)
		}
	}
}

// TestKernelEdgeShapes holds the row filter's edge shapes to the oracles —
// rows, similarities, order and the scored, kept and pruned counts, for
// every blocker at every worker count: a SkipMissing set measure over empty
// values (the empty set's key rejects nothing, as row or as candidate), a
// multi-attribute matcher whose first column is keyed and whose second is
// not, threshold 0 (the filter is off), and weighted thresholds that leave a
// column a floor above 1 — the first column's at 1.2, later columns' at
// 0.95 whenever the first scores low.
func TestKernelEdgeShapes(t *testing.T) {
	a, b := syntheticPubs(60)
	withMissing(a, b)
	b.AddNew("a-blank", map[string]string{"name": "", "year": "2001"})
	b.AddNew("a-spaces", map[string]string{"name": "  ", "year": "1999"})
	for _, bl := range kernelBlockers("title", "name") {
		for _, cfg := range []struct {
			threshold float64
			skip      bool
		}{{0.5, true}, {0.5, false}, {0, false}, {0, true}} {
			label := fmt.Sprintf("trigram %v, SkipMissing=%v, %v", cfg.threshold, cfg.skip, bl)
			m := &Attribute{AttrA: "title", AttrB: "name", Sim: sim.Trigram, Threshold: cfg.threshold, Blocker: bl, SkipMissing: cfg.skip}
			runs := checkKernel(t, label, m, bl, a, b, materializedReference(a, b, bl, "title", "name", sim.Trigram, cfg.threshold, cfg.skip))
			checkPruned(t, label, runs, comparedPruned(a, b, bl, "title", "name", sim.Trigram, cfg.threshold, cfg.skip))
		}
		pairs := []AttrPair{
			{AttrA: "title", AttrB: "name", Sim: sim.Trigram, Weight: 2},
			{AttrA: "year", AttrB: "year", Sim: sim.YearSim, Weight: 1},
		}
		for _, threshold := range []float64{0.6, 0, 0.95, 1.2} {
			label := fmt.Sprintf("weighted trigram 2, year 1 at %v, %v", threshold, bl)
			m := &MultiAttribute{Pairs: pairs, Threshold: threshold, Blocker: bl}
			runs := checkKernel(t, label, m, bl, a, b, weightedReference(a, b, bl, pairs, threshold))
			checkPruned(t, label, runs, weightedPruned(a, b, bl, pairs, threshold))
		}
	}
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
		want := materializedReference(a, b, reusing.Blocker, "title", "name", fn.sim, 0.25, false)
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
