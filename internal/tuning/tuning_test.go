package tuning

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/mapping"
	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/sim"
)

var (
	dblpPub = model.LDS{Source: "DBLP", Type: model.Publication}
	acmPub  = model.LDS{Source: "ACM", Type: model.Publication}
)

// tuningFixture builds sets where the title-trigram matcher at a moderate
// threshold is clearly the best configuration.
// smallTree is a small-tree configuration for the learner tests.
var smallTree = TreeConfig{MaxDepth: 4, MinExamples: 4}

func tuningFixture() (*model.ObjectSet, *model.ObjectSet, *mapping.Mapping) {
	a := model.NewObjectSet(dblpPub)
	b := model.NewObjectSet(acmPub)
	perfect := mapping.NewSame(dblpPub, acmPub)
	titles := []string{
		"generic schema matching with cupid",
		"a formal perspective on views",
		"data integration on the web",
		"robust query processing",
		"adaptive join algorithms",
		"similarity search in metric spaces",
	}
	for i, title := range titles {
		da := model.ID(rune('a' + i))
		db := model.ID(rune('A' + i))
		a.AddNew(da, map[string]string{"title": title, "year": "2001"})
		// ACM side: slightly perturbed title, same year (year alone is
		// useless: everything matches).
		b.AddNew(db, map[string]string{"title": strings.Replace(title, "a", "e", 1), "year": "2001"})
		perfect.Add(da, db, 1)
	}
	return a, b, perfect
}

func TestGridSearchFindsTitleMatcher(t *testing.T) {
	a, b, perfect := tuningFixture()
	space := Space{
		AttrPairs:  [][2]string{{"title", "title"}, {"year", "year"}},
		SimNames:   []string{"Trigram", "YearExact"},
		Thresholds: []float64{0.5, 0.8, 0.95},
	}
	outcomes, err := GridSearch(space, a, b, perfect)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 12 {
		t.Fatalf("outcomes = %d, want 12", len(outcomes))
	}
	best, err := Best(outcomes)
	if err != nil {
		t.Fatal(err)
	}
	if best.Candidate.AttrA != "title" || sim.Name(best.Candidate.Sim) != "Trigram" {
		t.Errorf("best = %s, want title trigram", best.Candidate)
	}
	if best.Result.F1 < 0.9 {
		t.Errorf("best F1 = %v, want >= 0.9", best.Result.F1)
	}
	// Outcomes must be sorted by F descending.
	for i := 1; i < len(outcomes); i++ {
		if outcomes[i].Result.F1 > outcomes[i-1].Result.F1 {
			t.Error("outcomes not sorted")
			break
		}
	}
}

func TestGridSearchPartialTraining(t *testing.T) {
	a, b, perfect := tuningFixture()
	// Label only half the domain objects.
	training := mapping.NewSame(dblpPub, acmPub)
	for i, c := range perfect.Correspondences() {
		if i%2 == 0 {
			training.Add(c.Domain, c.Range, 1)
		}
	}
	space := Space{
		AttrPairs:  [][2]string{{"title", "title"}},
		SimNames:   []string{"Trigram"},
		Thresholds: []float64{0.5},
	}
	outcomes, err := GridSearch(space, a, b, training)
	if err != nil {
		t.Fatal(err)
	}
	// Uncovered domain objects must not count as false positives.
	if outcomes[0].Result.FalsePos > 1 {
		t.Errorf("partial training should limit counted pairs, got %+v", outcomes[0].Result)
	}
}

// gridSearchPerCandidate is the search GridSearch must equal: one match of
// the cross product per candidate, at the candidate's own threshold.
func gridSearchPerCandidate(t *testing.T, space Space, a, b *model.ObjectSet, training *mapping.Mapping) []Outcome {
	t.Helper()
	cands, err := space.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	covered := make(map[model.ID]bool)
	for _, id := range training.DomainIDs() {
		covered[id] = true
	}
	var outcomes []Outcome
	for _, c := range cands {
		got, err := (&match.Attribute{AttrA: c.AttrA, AttrB: c.AttrB, Sim: c.Sim, Threshold: c.Threshold}).Match(a, b)
		if err != nil {
			t.Fatal(err)
		}
		restricted := got.Filter(func(corr mapping.Correspondence) bool { return covered[corr.Domain] })
		outcomes = append(outcomes, Outcome{Candidate: c, Result: eval.Compare(restricted, training)})
	}
	sort.SliceStable(outcomes, func(i, j int) bool {
		if outcomes[i].Result.F1 != outcomes[j].Result.F1 {
			return outcomes[i].Result.F1 > outcomes[j].Result.F1
		}
		return outcomes[i].Result.Precision > outcomes[j].Result.Precision
	})
	return outcomes
}

// outcomeRow is an Outcome with its measure by name: Funcs are never
// DeepEqual.
type outcomeRow struct {
	attrA, attrB, sim string
	threshold         float64
	result            eval.Result
}

func byName(outcomes []Outcome) []outcomeRow {
	rows := make([]outcomeRow, len(outcomes))
	for i, o := range outcomes {
		c := o.Candidate
		rows[i] = outcomeRow{c.AttrA, c.AttrB, sim.Name(c.Sim), c.Threshold, o.Result}
	}
	return rows
}

// TestGridSearchMatchesPerCandidateSearch pins the shared scoring: deriving
// a configuration's thresholds from one match at its lowest gives the
// outcomes, in the order, of matching once per candidate — for measures that
// prune below the threshold (Trigram, Levenshtein, TokenJaccard) and one
// that does not, with partial training, and whether or not the grid lists
// its thresholds in ascending order.
func TestGridSearchMatchesPerCandidateSearch(t *testing.T) {
	a, b, perfect := tuningFixture()
	partial := mapping.NewSame(dblpPub, acmPub)
	for i, c := range perfect.Correspondences() {
		if i%2 == 0 {
			partial.Add(c.Domain, c.Range, 1)
		}
	}
	for _, thresholds := range [][]float64{{0.3, 0.5, 0.8, 0.95}, {0.8, 0.3, 0.95, 0.5}, {0.9, 0.9, 0}} {
		for _, training := range []*mapping.Mapping{perfect, partial} {
			space := Space{
				AttrPairs:  [][2]string{{"title", "title"}, {"year", "year"}, {"title", "year"}},
				SimNames:   []string{"Trigram", "Levenshtein", "TokenJaccard", "JaroWinkler"},
				Thresholds: thresholds,
			}
			got, err := GridSearch(space, a, b, training)
			if err != nil {
				t.Fatal(err)
			}
			want := gridSearchPerCandidate(t, space, a, b, training)
			if !reflect.DeepEqual(byName(got), byName(want)) {
				t.Fatalf("thresholds %v, %d training pairs: outcomes differ from one match per candidate\n got %+v\nwant %+v",
					thresholds, training.Len(), got, want)
			}
		}
	}
}

func TestGridSearchErrors(t *testing.T) {
	a, b, perfect := tuningFixture()
	if _, err := GridSearch(Space{}, a, b, perfect); err == nil {
		t.Error("empty space should fail")
	}
	bad := Space{AttrPairs: [][2]string{{"t", "t"}}, SimNames: []string{"Nope"}, Thresholds: []float64{0.5}}
	if _, err := GridSearch(bad, a, b, perfect); err == nil {
		t.Error("unknown similarity should fail")
	}
	if _, err := Best(nil); err == nil {
		t.Error("Best of nothing should fail")
	}
}

func TestCandidateString(t *testing.T) {
	c := Candidate{AttrA: "title", AttrB: "name", Sim: sim.Trigram, Threshold: 0.8}
	if got := c.String(); got != "attr(title~name, Trigram, t=0.80)" {
		t.Errorf("String = %q", got)
	}
}

func TestFeatureExtractor(t *testing.T) {
	fe, err := NewFeatureExtractor([][3]string{
		{"title", "title", "Trigram"},
		{"year", "year", "YearExact"},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := model.NewInstance("x", map[string]string{"title": "abc", "year": "2001"})
	b := model.NewInstance("y", map[string]string{"title": "abc", "year": "2002"})
	got := fe.Extract(a, b)
	if len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Errorf("features = %v", got)
	}
	if len(fe.Names) != 2 {
		t.Errorf("names = %v", fe.Names)
	}
	if _, err := NewFeatureExtractor([][3]string{{"a", "b", "Nope"}}); err == nil {
		t.Error("unknown sim should fail")
	}
}

// TestFeatureExtractionMatchesStringFuncs holds the profiled extraction —
// each instance profiled once per call, pairs scored by Compare at floor 0 —
// to the string Funcs called per pair, bit for bit, in BuildExamples,
// Extract and the confidences of TreeMatcher.Match. The comparisons cover
// built-in measures of every profile kind; the candidates are the cross
// product that a nil Blocker streams.
func TestFeatureExtractionMatchesStringFuncs(t *testing.T) {
	comparisons := [][3]string{
		{"title", "name", "Trigram"},
		{"title", "name", "Levenshtein"},
		{"title", "name", "JaroWinkler"},
		{"title", "name", "TokenJaccard"},
		{"authors", "authors", "PersonName"},
		{"authors", "authors", "MongeElkan"},
		{"year", "year", "YearExact"},
	}
	fe, err := NewFeatureExtractor(comparisons)
	if err != nil {
		t.Fatal(err)
	}
	a := model.NewObjectSet(dblpPub)
	b := model.NewObjectSet(acmPub)
	values := []struct{ title, authors, year string }{
		{"Generic Schema Matching with Cupid", "Jayant Madhavan, Philip A. Bernstein, Erhard Rahm", "2001"},
		{"A formal perspective on the view selection problem", "Rada Chirkova; A. Y. Halevy", "2002"},
		{"", "", ""},
		{"Ångström ünïcode Σ", "Ç. Ünal", "1999.5"},
		{strings.Repeat("mapping based object matching ", 5), strings.Repeat("E. Rahm A. Thor ", 6), " 2007 "},
	}
	for i, v := range values {
		a.AddNew(model.ID(rune('a'+i)), map[string]string{"title": v.title, "authors": v.authors, "year": v.year})
		b.AddNew(model.ID(rune('A'+i)), map[string]string{"name": strings.ToUpper(v.title), "authors": v.authors, "year": "2001"})
		b.AddNew(model.ID(rune('M'+i)), map[string]string{"name": v.title + " revisited", "authors": "A. Thor", "year": v.year})
	}
	want := func(x, y *model.Instance) []float64 {
		out := make([]float64, len(comparisons))
		for i, c := range comparisons {
			fn, _ := sim.Lookup(c[2])
			out[i] = fn(x.Attr(c[0]), y.Attr(c[1]))
		}
		return out
	}
	same := func(got, want []float64) bool {
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return false
			}
		}
		return len(got) == len(want)
	}
	var pairs [][2]model.ID
	training := mapping.NewSame(dblpPub, acmPub)
	for _, ida := range a.IDs() {
		training.Add(ida, "A", 1)
		for _, idb := range b.IDs() {
			pairs = append(pairs, [2]model.ID{ida, idb})
		}
	}
	examples := BuildExamples(fe, a, b, nil, training)
	if len(examples) != len(pairs) {
		t.Fatalf("examples = %d, want %d", len(examples), len(pairs))
	}
	for k, p := range pairs {
		x, y := a.Get(p[0]), b.Get(p[1])
		w := want(x, y)
		if !same(examples[k].Features, w) {
			t.Errorf("BuildExamples %v = %v, string Funcs %v", p, examples[k].Features, w)
		}
		if got := fe.Extract(x, y); !same(got, w) {
			t.Errorf("Extract %v = %v, string Funcs %v", p, got, w)
		}
	}
	tm := &TreeMatcher{Extractor: fe, Tree: &Tree{IsLeaf: true, Match: true}}
	got, err := tm.Match(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(pairs) {
		t.Fatalf("tree matcher kept %d pairs, want all %d", got.Len(), len(pairs))
	}
	for _, p := range pairs {
		var sum float64
		for _, f := range want(a.Get(p[0]), b.Get(p[1])) {
			sum += f
		}
		if c, _ := got.Sim(p[0], p[1]); math.Float64bits(c) != math.Float64bits(sum/float64(len(comparisons))) {
			t.Errorf("tree matcher %v confidence %v, string Funcs mean %v", p, c, sum/float64(len(comparisons)))
		}
	}
}

func TestLearnTreeSeparable(t *testing.T) {
	// Single feature, perfectly separable at 0.5.
	var examples []Example
	for i := 0; i < 20; i++ {
		v := float64(i) / 20
		examples = append(examples, Example{Features: []float64{v}, Match: v >= 0.5})
	}
	tree := LearnTree(examples, smallTree)
	if tree.IsLeaf {
		t.Fatal("separable data should split")
	}
	for _, e := range examples {
		if tree.Predict(e.Features) != e.Match {
			t.Errorf("misclassified %v", e.Features)
		}
	}
	if tree.Depth() < 1 {
		t.Error("depth should be >= 1")
	}
}

func TestLearnTreeTwoFeatures(t *testing.T) {
	// Match = title high AND year matches; one feature alone is not enough.
	var examples []Example
	grid := []float64{0.1, 0.3, 0.6, 0.9}
	for _, ts := range grid {
		for _, ys := range []float64{0, 1} {
			examples = append(examples,
				Example{Features: []float64{ts, ys}, Match: ts >= 0.6 && ys == 1},
				Example{Features: []float64{ts, ys}, Match: ts >= 0.6 && ys == 1})
		}
	}
	tree := LearnTree(examples, TreeConfig{MaxDepth: 4, MinExamples: 2})
	correct := 0
	for _, e := range examples {
		if tree.Predict(e.Features) == e.Match {
			correct++
		}
	}
	if correct != len(examples) {
		t.Errorf("tree classifies %d/%d", correct, len(examples))
	}
}

func TestLearnTreeEdgeCases(t *testing.T) {
	if !LearnTree(nil, smallTree).IsLeaf {
		t.Error("empty data should give a leaf")
	}
	pure := []Example{{Features: []float64{1}, Match: true}, {Features: []float64{0.4}, Match: true}}
	tree := LearnTree(pure, smallTree)
	if !tree.IsLeaf || !tree.Match {
		t.Error("pure positive data should give a positive leaf")
	}
	constant := []Example{
		{Features: []float64{0.5}, Match: true},
		{Features: []float64{0.5}, Match: false},
		{Features: []float64{0.5}, Match: true},
		{Features: []float64{0.5}, Match: true},
	}
	ctree := LearnTree(constant, TreeConfig{MaxDepth: 3, MinExamples: 2})
	if !ctree.IsLeaf {
		t.Error("unsplittable data should give a leaf")
	}
	if !ctree.Match {
		t.Error("majority should win")
	}
}

func TestTreeMatcherEndToEnd(t *testing.T) {
	a, b, perfect := tuningFixture()
	fe, err := NewFeatureExtractor([][3]string{
		{"title", "title", "Trigram"},
		{"year", "year", "YearExact"},
	})
	if err != nil {
		t.Fatal(err)
	}
	examples := BuildExamples(fe, a, b, nil, perfect)
	if len(examples) != a.Len()*b.Len() {
		t.Fatalf("examples = %d, want %d", len(examples), a.Len()*b.Len())
	}
	tree := LearnTree(examples, smallTree)
	tm := &TreeMatcher{Extractor: fe, Tree: tree}
	got, err := tm.Match(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// The learned matcher should reproduce the training mapping closely.
	correct := 0
	perfect.Each(func(c mapping.Correspondence) {
		if got.Has(c.Domain, c.Range) {
			correct++
		}
	})
	if correct < perfect.Len()-1 {
		t.Errorf("tree matcher recalls %d/%d", correct, perfect.Len())
	}
	if want := fmt.Sprintf("tree(%p, %p, <nil>)", fe, tree); tm.String() != want {
		t.Errorf("String = %q, want %q", tm, want)
	}
	if _, err := (&TreeMatcher{}).Match(a, b); err == nil {
		t.Error("untrained matcher should fail")
	}
}
