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

// unprofiledSim hides a built-in behind a closure, so sim.ProfiledOf hands
// back the opaque-Func adapter instead of the built-in measure.
func unprofiledSim(fn sim.Func) sim.Func {
	return func(a, b string) float64 { return fn(a, b) }
}

// withMissing adds instances without the matched attributes to both sides,
// so SkipMissing has something to skip.
func withMissing(a, b *model.ObjectSet) {
	a.AddNew("d-untitled", map[string]string{"authors": "A. Thor"})
	a.AddNew("d-blank", map[string]string{"title": "", "year": "2001"})
	b.AddNew("a-untitled", map[string]string{"authors": "Andreas Thor"})
}

// TestAttributeAdapterParity pins the one scoring path: a matcher configured
// with a closure around a built-in scores through the adapter and must emit
// the exact mapping — similarities and insertion order — the built-in
// measure emits, with and without SkipMissing, behind a token blocker and
// behind the cross product, which pairs the instances that lack the
// attribute too.
func TestAttributeAdapterParity(t *testing.T) {
	a, b := syntheticPubs(40)
	withMissing(a, b)
	for _, bl := range []block.Blocker{
		block.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 2},
		block.CrossProduct{},
	} {
		for _, skip := range []bool{false, true} {
			for _, fn := range []struct {
				name string
				sim  sim.Func
			}{
				{"Trigram", sim.Trigram},
				{"TokenJaccard", sim.TokenJaccard},
				{"Levenshtein", sim.Levenshtein},
				{"PersonName", sim.PersonName},
			} {
				build := func(f sim.Func) *Attribute {
					return &Attribute{
						AttrA: "title", AttrB: "name",
						Sim: f, Threshold: 0.3, Blocker: bl, SkipMissing: skip,
					}
				}
				builtin, err := build(fn.sim).Match(a, b)
				if err != nil {
					t.Fatal(err)
				}
				adapter, err := build(unprofiledSim(fn.sim)).Match(a, b)
				if err != nil {
					t.Fatal(err)
				}
				mappingsIdentical(t, adapter, builtin, fmt.Sprintf("%s behind %s, SkipMissing=%v", fn.name, bl, skip))
			}
		}
	}
}

// TestMultiAttributeAdapterParity covers the weighted combination with
// adapter and built-in pairs mixed.
func TestMultiAttributeAdapterParity(t *testing.T) {
	a, b := syntheticPubs(40)
	withMissing(a, b)
	pairs := func(wrap func(sim.Func) sim.Func) []AttrPair {
		return []AttrPair{
			{AttrA: "title", AttrB: "name", Sim: wrap(sim.Trigram), Weight: 3},
			{AttrA: "authors", AttrB: "authors", Sim: sim.TokenDice, Weight: 1},
			{AttrA: "year", AttrB: "year", Sim: wrap(sim.YearSim), Weight: 2},
		}
	}
	for _, bl := range []block.Blocker{
		block.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 2},
		block.CrossProduct{},
	} {
		build := func(wrap func(sim.Func) sim.Func) *MultiAttribute {
			return &MultiAttribute{Pairs: pairs(wrap), Threshold: 0.4, Blocker: bl}
		}
		builtin, err := build(func(f sim.Func) sim.Func { return f }).Match(a, b)
		if err != nil {
			t.Fatal(err)
		}
		adapter, err := build(unprofiledSim).Match(a, b)
		if err != nil {
			t.Fatal(err)
		}
		mappingsIdentical(t, adapter, builtin, fmt.Sprintf("multi behind %s", bl))
	}
}

// TestAttributeProfiledParallelRace runs the profiled matchers at
// GOMAXPROCS 8 over a blocked candidate set; under -race this proves the
// shared profile caches are read-only during scoring, and the result must be
// identical to the run at GOMAXPROCS 1.
func TestAttributeProfiledParallelRace(t *testing.T) {
	a, b := syntheticPubs(200)
	m := &Attribute{
		AttrA: "title", AttrB: "name", Sim: sim.Trigram, Threshold: 0.3,
		Blocker: block.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 1},
	}
	mappingsEqual(t, matchAt(t, 8, m, a, b), matchAt(t, 1, m, a, b), "attribute at GOMAXPROCS 8")
}

// TestMultiAttributeProfiledParallelRace is the multi-attribute version,
// including a TF-IDF corpus shared through its Cosine method value, which
// scores as an opaque Func.
func TestMultiAttributeProfiledParallelRace(t *testing.T) {
	a, b := syntheticPubs(200)
	corpus := sim.NewTFIDF()
	a.Each(func(in *model.Instance) bool { corpus.Add(in.Attr("title")); return true })
	b.Each(func(in *model.Instance) bool { corpus.Add(in.Attr("name")); return true })
	m := &MultiAttribute{
		Pairs: []AttrPair{
			{AttrA: "title", AttrB: "name", Sim: corpus.Cosine, Weight: 2},
			{AttrA: "authors", AttrB: "authors", Sim: sim.PersonName, Weight: 1},
			{AttrA: "year", AttrB: "year", Sim: sim.YearSim, Weight: 1},
		},
		Threshold: 0.3,
		Blocker:   block.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 1},
	}
	mappingsEqual(t, matchAt(t, 8, m, a, b), matchAt(t, 1, m, a, b), "multiattribute at GOMAXPROCS 8")
}

// TestTFIDFAttributeParallelRace exercises the TF-IDF matcher, whose workers
// share read-only profiles over one corpus.
func TestTFIDFAttributeParallelRace(t *testing.T) {
	a, b := syntheticPubs(150)
	m := &TFIDFAttribute{
		AttrA: "title", AttrB: "name", Threshold: 0.2,
		Blocker: block.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 1},
	}
	mappingsEqual(t, matchAt(t, 8, m, a, b), matchAt(t, 1, m, a, b), "tfidf at GOMAXPROCS 8")
}
