package match

import (
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/sim"
)

// syntheticPubs builds n publications per side with overlapping noisy
// titles so that token blocking produces a dense candidate set.
func syntheticPubs(n int) (*model.ObjectSet, *model.ObjectSet) {
	topics := []string{
		"generic schema matching with cupid",
		"a formal perspective on the view selection problem",
		"mapping based object matching",
		"entity resolution over web data sources",
		"adaptive blocking for scalable record linkage",
	}
	a := model.NewObjectSet(dblpPub)
	b := model.NewObjectSet(acmPub)
	for i := 0; i < n; i++ {
		topic := topics[i%len(topics)]
		a.AddNew(model.ID(fmt.Sprintf("d%d", i)), map[string]string{
			"title":   fmt.Sprintf("%s part %d", topic, i/len(topics)),
			"authors": fmt.Sprintf("A. Thor %d, E. Rahm", i%7),
			"year":    fmt.Sprintf("%d", 1995+i%12),
		})
		b.AddNew(model.ID(fmt.Sprintf("a%d", i)), map[string]string{
			"name":    fmt.Sprintf("%s part %d revised", topic, i/len(topics)),
			"authors": fmt.Sprintf("Andreas Thor %d and Erhard Rahm", i%7),
			"year":    fmt.Sprintf("%d", 1995+(i+i%3)%12),
		})
	}
	return a, b
}

// mappingsEqual asserts two mappings hold identical correspondences with
// identical similarities.
func mappingsEqual(t *testing.T, got, want *mapping.Mapping, label string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d correspondences, want %d", label, got.Len(), want.Len())
	}
	for _, c := range want.Correspondences() {
		s, ok := got.Sim(c.Domain, c.Range)
		if !ok || s != c.Sim {
			t.Fatalf("%s: (%s, %s) = %v, %v; want %v", label, c.Domain, c.Range, s, ok, c.Sim)
		}
	}
}

// unprofiledSim wraps a built-in so sim.ProfiledOf cannot recognize it,
// forcing the string-based fallback path.
func unprofiledSim(fn sim.Func) sim.Func {
	return func(a, b string) float64 { return fn(a, b) }
}

// TestAttributeProfiledMatchesFallback asserts the automatically-profiled
// matcher returns the exact mapping of the string-based path.
func TestAttributeProfiledMatchesFallback(t *testing.T) {
	a, b := syntheticPubs(120)
	blocker := block.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 2}
	for _, fn := range []struct {
		name string
		sim  sim.Func
	}{
		{"Trigram", sim.Trigram},
		{"TokenJaccard", sim.TokenJaccard},
		{"Levenshtein", sim.Levenshtein},
		{"PersonName", sim.PersonName},
	} {
		profiled := &Attribute{
			MatcherName: fn.name, AttrA: "title", AttrB: "name",
			Sim: fn.sim, Threshold: 0.3, Blocker: blocker,
		}
		fallback := &Attribute{
			MatcherName: fn.name, AttrA: "title", AttrB: "name",
			Sim: unprofiledSim(fn.sim), Threshold: 0.3, Blocker: blocker,
		}
		mp, err := profiled.Match(a, b)
		if err != nil {
			t.Fatal(err)
		}
		mf, err := fallback.Match(a, b)
		if err != nil {
			t.Fatal(err)
		}
		mappingsEqual(t, mp, mf, fn.name)
	}
}

// TestMultiAttributeProfiledMatchesFallback covers the weighted combination
// with a mix of profiled and fallback pair measures.
func TestMultiAttributeProfiledMatchesFallback(t *testing.T) {
	a, b := syntheticPubs(120)
	blocker := block.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 2}
	pairs := func(wrap bool) []AttrPair {
		w := func(fn sim.Func) sim.Func {
			if wrap {
				return unprofiledSim(fn)
			}
			return fn
		}
		return []AttrPair{
			{AttrA: "title", AttrB: "name", Sim: w(sim.Trigram), Weight: 3},
			{AttrA: "authors", AttrB: "authors", Sim: w(sim.TokenDice), Weight: 1},
			{AttrA: "year", AttrB: "year", Sim: w(sim.YearSim), Weight: 2},
		}
	}
	profiled := &MultiAttribute{MatcherName: "multi", Pairs: pairs(false), Threshold: 0.4, Blocker: blocker}
	fallback := &MultiAttribute{MatcherName: "multi", Pairs: pairs(true), Threshold: 0.4, Blocker: blocker}
	mp, err := profiled.Match(a, b)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := fallback.Match(a, b)
	if err != nil {
		t.Fatal(err)
	}
	mappingsEqual(t, mp, mf, "multi")
}

// alienBlocker emits pairs whose IDs are absent from the inputs, the way a
// stale pair cache would; the string path scored those as "" via the
// nil-safe Instance.Attr, and the profiled path must mirror that instead
// of dereferencing a missing profile.
type alienBlocker struct{}

func (alienBlocker) PairsEach(a, b *model.ObjectSet, yield func(block.Pair) bool) {
	pairs := append(block.Pairs(block.CrossProduct{}, a, b),
		block.Pair{A: "ghost-a", B: b.IDs()[0]},
		block.Pair{A: a.IDs()[0], B: "ghost-b"},
		block.Pair{A: "ghost-a", B: "ghost-b"})
	for _, p := range pairs {
		if !yield(p) {
			return
		}
	}
}

func (alienBlocker) String() string { return "alien" }

// TestAttributeProfiledAlienBlockerIDs asserts blocker-emitted unknown IDs
// score like empty values on both the profiled and fallback paths.
func TestAttributeProfiledAlienBlockerIDs(t *testing.T) {
	a, b := syntheticPubs(10)
	build := func(fn sim.Func) *Attribute {
		return &Attribute{
			MatcherName: "alien", AttrA: "title", AttrB: "name",
			Sim: fn, Threshold: 0.3, Blocker: alienBlocker{},
		}
	}
	mp, err := build(sim.Trigram).Match(a, b)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := build(unprofiledSim(sim.Trigram)).Match(a, b)
	if err != nil {
		t.Fatal(err)
	}
	mappingsEqual(t, mp, mf, "alien ids")

	multi := &MultiAttribute{
		MatcherName: "alien-multi",
		Pairs:       []AttrPair{{AttrA: "title", AttrB: "name", Sim: sim.Trigram, Weight: 1}},
		Threshold:   0.3,
		Blocker:     alienBlocker{},
	}
	if _, err := multi.Match(a, b); err != nil {
		t.Fatal(err)
	}
}

// TestAttributeProfiledParallelRace runs the profiled matchers with many
// workers over a blocked candidate set; under -race this proves the shared
// profile caches are read-only during scoring, and the result must be
// identical to the single-worker run.
func TestAttributeProfiledParallelRace(t *testing.T) {
	a, b := syntheticPubs(200)
	blocker := block.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 1}
	single := &Attribute{
		MatcherName: "race", AttrA: "title", AttrB: "name",
		Sim: sim.Trigram, Threshold: 0.3, Blocker: blocker, Workers: 1,
	}
	parallel := &Attribute{
		MatcherName: "race", AttrA: "title", AttrB: "name",
		Sim: sim.Trigram, Threshold: 0.3, Blocker: blocker, Workers: 8,
	}
	ms, err := single.Match(a, b)
	if err != nil {
		t.Fatal(err)
	}
	mpar, err := parallel.Match(a, b)
	if err != nil {
		t.Fatal(err)
	}
	mappingsEqual(t, mpar, ms, "attribute workers=8")
}

// TestMultiAttributeProfiledParallelRace is the multi-attribute version,
// including the shared TF-IDF corpus via the explicit Profiled field.
func TestMultiAttributeProfiledParallelRace(t *testing.T) {
	a, b := syntheticPubs(200)
	corpus := sim.NewTFIDF()
	a.Each(func(in *model.Instance) bool { corpus.Add(in.Attr("title")); return true })
	b.Each(func(in *model.Instance) bool { corpus.Add(in.Attr("name")); return true })
	build := func(workers int) *MultiAttribute {
		return &MultiAttribute{
			MatcherName: "race-multi",
			Pairs: []AttrPair{
				{AttrA: "title", AttrB: "name", Profiled: corpus.Profiled(), Weight: 2},
				{AttrA: "authors", AttrB: "authors", Sim: sim.PersonName, Weight: 1},
				{AttrA: "year", AttrB: "year", Sim: sim.YearSim, Weight: 1},
			},
			Threshold: 0.3,
			Blocker:   block.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 1},
			Workers:   workers,
		}
	}
	ms, err := build(1).Match(a, b)
	if err != nil {
		t.Fatal(err)
	}
	mpar, err := build(8).Match(a, b)
	if err != nil {
		t.Fatal(err)
	}
	mappingsEqual(t, mpar, ms, "multiattribute workers=8")
}

// TestTFIDFAttributeParallelRace exercises the TF-IDF matcher whose string
// path shares a vector cache between workers (mutex-guarded) and whose
// profiled path shares read-only profiles.
func TestTFIDFAttributeParallelRace(t *testing.T) {
	a, b := syntheticPubs(150)
	build := func(workers int) *TFIDFAttribute {
		return &TFIDFAttribute{
			MatcherName: "tfidf-race", AttrA: "title", AttrB: "name",
			Threshold: 0.2,
			Blocker:   block.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 1},
			Workers:   workers,
		}
	}
	ms, err := build(1).Match(a, b)
	if err != nil {
		t.Fatal(err)
	}
	mpar, err := build(8).Match(a, b)
	if err != nil {
		t.Fatal(err)
	}
	mappingsEqual(t, mpar, ms, "tfidf workers=8")
}
