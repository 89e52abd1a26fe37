package workflow

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/mapping"
	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/store"
)

var (
	dblpPub = model.LDS{Source: "DBLP", Type: model.Publication}
	acmPub  = model.LDS{Source: "ACM", Type: model.Publication}
)

// fixtureSets returns the Figure 1 publication sets.
func fixtureSets() (*model.ObjectSet, *model.ObjectSet) {
	dblp := model.NewObjectSet(dblpPub)
	dblp.AddNew("d1", map[string]string{"title": "Generic Schema Matching with Cupid", "year": "2001"})
	dblp.AddNew("d2", map[string]string{"title": "A formal perspective on the view selection problem", "year": "2001"})
	dblp.AddNew("d3", map[string]string{"title": "A formal perspective on the view selection problem", "year": "2002"})
	acm := model.NewObjectSet(acmPub)
	acm.AddNew("a1", map[string]string{"name": "Generic Schema Matching with Cupid", "year": "2001"})
	acm.AddNew("a2", map[string]string{"name": "A formal perspective on the view selection problem", "year": "2001"})
	acm.AddNew("a3", map[string]string{"name": "A formal perspective on the view selection problem", "year": "2002"})
	return dblp, acm
}

func titleMatcher() match.Matcher {
	return &match.Attribute{AttrA: "title", AttrB: "name", Sim: sim.Trigram, Threshold: 0.8}
}

func yearMatcher() match.Matcher {
	return &match.Attribute{AttrA: "year", AttrB: "year", Sim: sim.YearExact, Threshold: 1}
}

// mergeStep is the merge step over matchers, then sel unless it is nil.
func mergeStep(name string, f mapping.Combiner, sel mapping.Selection, matchers ...match.Matcher) Step {
	s := Step{Name: name, Matchers: matchers, Op: OpMerge, F: f}
	if sel != nil {
		s.Select = []mapping.Selection{sel}
	}
	return s
}

func TestRunMergeWorkflow(t *testing.T) {
	// §4.1.1: independent matchers merged — title matching alone confuses
	// the conference/journal twins; merging with the year matcher under
	// Avg-0 and a high threshold resolves them.
	dblp, acm := fixtureSets()
	wf := New("pubs").AddStep(mergeStep("combine", mapping.Avg0Combiner,
		mapping.Threshold{T: 0.8}, titleMatcher(), yearMatcher()))

	e := NewEngine(store.NewRepository())
	got, err := e.Run(wf, dblp, acm)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range [][2]model.ID{{"d1", "a1"}, {"d2", "a2"}, {"d3", "a3"}} {
		if !got.Has(want[0], want[1]) {
			t.Errorf("missing %v", want)
		}
	}
	if got.Has("d2", "a3") || got.Has("d3", "a2") {
		t.Error("twin confusion should be resolved by the year matcher + threshold")
	}
}

func TestStepResultsCached(t *testing.T) {
	dblp, acm := fixtureSets()
	wf := New("pubs").AddStep(mergeStep("titles", mapping.AvgCombiner, nil, titleMatcher()))
	e := NewEngine(store.NewRepository())
	if _, err := e.Run(wf, dblp, acm); err != nil {
		t.Fatal(err)
	}
	if m, ok := e.Mapping("titles"); !ok || !reflect.DeepEqual(e.Steps(), []string{"titles"}) {
		t.Errorf("engine holds %v, %v; want the step result under the step name", m, e.Steps())
	}
}

func TestUseCachedMappingInLaterStep(t *testing.T) {
	// Step 2 refines step 1's result by merging it with the year matcher
	// under Avg-0 (missing-as-zero, §3.1): pairs the year matcher does not
	// confirm are halved and fall below the threshold.
	dblp, acm := fixtureSets()
	wf := New("refine").
		AddStep(mergeStep("titles", mapping.AvgCombiner, nil, titleMatcher())).
		AddStep(Step{
			Name:     "with-year",
			Matchers: []match.Matcher{yearMatcher()},
			Use:      []string{"titles"},
			Op:       OpMerge,
			F:        mapping.Avg0Combiner,
			Select:   []mapping.Selection{mapping.Threshold{T: 0.8}},
		})
	e := NewEngine(store.NewRepository())
	got, err := e.Run(wf, dblp, acm)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Has("d3", "a3") || got.Has("d2", "a3") {
		t.Errorf("refinement failed: %v", got.Correspondences())
	}
}

func TestComposeStepViaRepository(t *testing.T) {
	// Compose two stored same-mappings via a hub (§4.1.2 / Figure 8).
	repo := store.NewRepository()
	gsPub := model.LDS{Source: "GS", Type: model.Publication}
	dblpGS := mapping.NewSame(dblpPub, gsPub)
	dblpGS.Add("d1", "g1", 1)
	gsACM := mapping.NewSame(gsPub, acmPub)
	gsACM.Add("g1", "a1", 0.8)
	repo.Put("DBLP-GS", dblpGS)
	repo.Put("GS-ACM", gsACM)

	wf := New("via-gs").AddStep(Step{Name: "composed", Use: []string{"DBLP-GS", "GS-ACM"},
		Op: OpCompose, F: mapping.MinCombiner, G: mapping.AggMax}).Store("DBLP-ACM.composed")
	e := NewEngine(repo)
	got, err := e.Run(wf, model.NewObjectSet(dblpPub), model.NewObjectSet(acmPub))
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := got.Sim("d1", "a1"); !ok || s != 0.8 {
		t.Errorf("composed sim = %v, %v", s, ok)
	}
	if _, ok := repo.Get("DBLP-ACM.composed"); !ok {
		t.Error("workflow result should be stored in the repository")
	}
}

// atGOMAXPROCS runs f at GOMAXPROCS n, the worker count of every matcher
// and operator a workflow runs, and restores the previous setting.
func atGOMAXPROCS(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestEngineRunSameAtEveryGOMAXPROCS runs one workflow — matchers, a
// merge and a per-group selection — at GOMAXPROCS 1 and 8: the results are
// identical, similarities bit for bit and insertion order included. The
// 150 × 150 cross product is large enough for the match kernel to split.
func TestEngineRunSameAtEveryGOMAXPROCS(t *testing.T) {
	rnd := rand.New(rand.NewSource(34))
	words := strings.Fields("schema matching view selection cupid formal generic mapping query data object")
	a, b := model.NewObjectSet(dblpPub), model.NewObjectSet(acmPub)
	for i := 0; i < 150; i++ {
		var title []string
		for range 4 {
			title = append(title, words[rnd.Intn(len(words))])
		}
		year := fmt.Sprint(1995 + rnd.Intn(8))
		a.AddNew(model.ID(fmt.Sprintf("d%d", i)), map[string]string{"title": strings.Join(title, " "), "year": year})
		b.AddNew(model.ID(fmt.Sprintf("a%d", i)), map[string]string{"name": strings.Join(title[1:], " "), "year": year})
	}
	wf := New("widths").AddStep(mergeStep("s1", mapping.AvgCombiner,
		mapping.Best1Delta{D: 0.1, Side: mapping.BothSides}, titleMatcher(), yearMatcher()))
	runs := make([][]mapping.Correspondence, 2)
	for i, procs := range []int{1, 8} {
		atGOMAXPROCS(procs, func() {
			m, err := NewEngine(nil).Run(wf, a, b)
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = m.Correspondences()
		})
	}
	if len(runs[0]) == 0 {
		t.Fatal("the workflow keeps nothing; fixture broken")
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Errorf("GOMAXPROCS 8 run %v diverged from GOMAXPROCS 1 run %v", runs[1], runs[0])
	}
}

func TestRunErrors(t *testing.T) {
	dblp, acm := fixtureSets()
	e := NewEngine(store.NewRepository())

	if _, err := e.Run(New("empty"), dblp, acm); err == nil {
		t.Error("empty workflow should fail")
	}
	noInputs := New("x").AddStep(Step{Name: "s", Op: OpMerge, F: mapping.AvgCombiner})
	if _, err := e.Run(noInputs, dblp, acm); err == nil {
		t.Error("step without inputs should fail")
	}
	missingRef := New("x").AddStep(Step{Name: "s", Use: []string{"ghost"}, Op: OpMerge, F: mapping.AvgCombiner})
	if _, err := e.Run(missingRef, dblp, acm); err == nil {
		t.Error("unknown reference should fail")
	}
	composeOne := New("x").AddStep(Step{Name: "s", Matchers: []match.Matcher{titleMatcher()}, Op: OpCompose, F: mapping.MinCombiner, G: mapping.AggMax})
	if _, err := e.Run(composeOne, dblp, acm); err == nil {
		t.Error("compose with one input should fail")
	}
	badOp := New("x").AddStep(Step{Name: "s", Matchers: []match.Matcher{titleMatcher()}, Op: OpKind(9)})
	if _, err := e.Run(badOp, dblp, acm); err == nil {
		t.Error("unknown operator should fail")
	}
	withFailing := New("x").AddStep(mergeStep("s", mapping.AvgCombiner, nil, failingMatcher{}))
	if _, err := e.Run(withFailing, dblp, acm); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("matcher error should propagate, got %v", err)
	}
	inverseTwo := New("x").AddStep(Step{Name: "s", Matchers: []match.Matcher{titleMatcher(), yearMatcher()}, Op: OpInverse})
	if _, err := e.Run(inverseTwo, dblp, acm); err == nil {
		t.Error("inverse with two inputs should fail")
	}
	unnamed := New("x").AddStep(Step{Matchers: []match.Matcher{titleMatcher()}, Op: OpMerge})
	if _, err := e.Run(unnamed, dblp, acm); err == nil {
		t.Error("unnamed step should fail")
	}
	if len(e.Steps()) != 0 {
		t.Errorf("failed steps held %v", e.Steps())
	}
}

// countingMatcher counts the runs of the matcher it wraps.
type countingMatcher struct {
	match.Matcher
	runs int
}

func (c *countingMatcher) Match(a, b *model.ObjectSet) (*mapping.Mapping, error) {
	c.runs++
	return c.Matcher.Match(a, b)
}

// TestStepRunsOnce: a second Run of a workflow reads every step result the
// engine holds without running its matchers, and returns the held
// *Mapping; Forget makes the step run again.
func TestStepRunsOnce(t *testing.T) {
	dblp, acm := fixtureSets()
	title := &countingMatcher{Matcher: titleMatcher()}
	wf := New("once").
		AddStep(mergeStep("titles", mapping.AvgCombiner, nil, title)).
		AddStep(Step{Name: "refined", Use: []string{"titles"}, Select: []mapping.Selection{mapping.Threshold{T: 0.9}}})
	e := NewEngine(nil)
	first, err := e.Run(wf, dblp, acm)
	if err != nil {
		t.Fatal(err)
	}
	again, err := e.Run(wf, dblp, acm)
	if err != nil {
		t.Fatal(err)
	}
	if title.runs != 1 || again != first {
		t.Errorf("second run: matcher ran %d times, same result %v; want 1, true", title.runs, again == first)
	}
	if !e.Forget("titles") || e.Forget("titles") {
		t.Fatal("Forget should report the result it dropped, and only once")
	}
	if _, err := e.Run(wf, dblp, acm); err != nil {
		t.Fatal(err)
	}
	if title.runs != 2 {
		t.Errorf("after Forget the matcher ran %d times in all, want 2", title.runs)
	}
}

// TestOneInputMergePassesThrough: a merge step with one input returns that
// input itself, not a merged copy.
func TestOneInputMergePassesThrough(t *testing.T) {
	dblp, acm := fixtureSets()
	var matched *mapping.Mapping
	m := &observingMatcher{Matcher: titleMatcher(), got: &matched}
	got, err := NewEngine(nil).Run(New("one").AddStep(mergeStep("titles", mapping.AvgCombiner, nil, m)), dblp, acm)
	if err != nil {
		t.Fatal(err)
	}
	if got != matched {
		t.Error("a one-input merge step should return the matcher's own mapping")
	}
}

// TestOneInputMergeChecksCombiner: a one-input merge step fails, running
// nothing, with the error mapping.Merge gives its combiner for one mapping.
func TestOneInputMergeChecksCombiner(t *testing.T) {
	e := NewEngine(nil)
	m := mapping.NewSame(dblpPub, acmPub)
	m.Add("d1", "a1", 1)
	if err := e.Repo.Put("m", m); err != nil {
		t.Fatal(err)
	}
	for _, f := range []mapping.Combiner{mapping.PreferCombiner(1), {Kind: mapping.Weighted, Weights: []float64{1, 2}}} {
		_, want := mapping.Merge(f, m)
		got, err := e.Run(New("one").AddStep(Step{Name: "s", Use: []string{"m"}, F: f}), nil, nil)
		if want == nil || err == nil || !strings.Contains(err.Error(), want.Error()) || got != nil {
			t.Errorf("%+v: Run = %v, %v; want Merge's error %v", f, got, err, want)
		}
	}
	if len(e.Steps()) != 0 {
		t.Errorf("failed steps held %v", e.Steps())
	}
}

// observingMatcher records the mapping the matcher it wraps returned.
type observingMatcher struct {
	match.Matcher
	got **mapping.Mapping
}

func (o *observingMatcher) Match(a, b *model.ObjectSet) (*mapping.Mapping, error) {
	m, err := o.Matcher.Match(a, b)
	*o.got = m
	return m, err
}

// TestInverseAndSelectOrder: an inverse step swaps domain and range, and a
// step's selections apply in the order listed.
func TestInverseAndSelectOrder(t *testing.T) {
	dblp, acm := fixtureSets()
	e := NewEngine(nil)
	m := mapping.NewSame(dblpPub, acmPub)
	m.Add("d1", "a1", 0.9)
	m.Add("d1", "a2", 0.7)
	m.Add("d2", "a2", 0.6)
	if err := e.Repo.Put("M", m); err != nil {
		t.Fatal(err)
	}
	best := mapping.BestN{N: 1, Side: mapping.RangeSide}
	notD1 := mapping.Where(func(c mapping.Correspondence) bool { return c.Domain != "d1" })
	wf := New("inv").
		AddStep(Step{Name: "inv", Use: []string{"M"}, Op: OpInverse}).
		AddStep(Step{Name: "best-then-where", Use: []string{"M"}, Select: []mapping.Selection{best, notD1}}).
		AddStep(Step{Name: "where-then-best", Use: []string{"M"}, Select: []mapping.Selection{notD1, best}})
	if _, err := e.Run(wf, dblp, acm); err != nil {
		t.Fatal(err)
	}
	inv, _ := e.Mapping("inv")
	if inv.Domain() != acmPub || inv.Range() != dblpPub || !reflect.DeepEqual(inv.Correspondences(), m.Inverse().Correspondences()) {
		t.Errorf("inverse = %v", inv.Correspondences())
	}
	// d1 is the best domain object of both a1 and a2: removing d1 after the
	// best-1 cut leaves nothing, removing it first leaves a2's second best.
	bw, _ := e.Mapping("best-then-where")
	wb, _ := e.Mapping("where-then-best")
	if bw.Len() != 0 || wb.Len() != 1 || !wb.Has("d2", "a2") {
		t.Errorf("best then where = %v, where then best = %v", bw.Correspondences(), wb.Correspondences())
	}
}

// failingMatcher is a matcher whose every run fails.
type failingMatcher struct{}

func (failingMatcher) Match(a, b *model.ObjectSet) (*mapping.Mapping, error) {
	return nil, errors.New("boom")
}

func (failingMatcher) String() string { return "boom" }

func TestOpKindString(t *testing.T) {
	if OpMerge.String() != "merge" || OpCompose.String() != "compose" || OpInverse.String() != "inverse" || OpKind(5).String() == "" {
		t.Error("OpKind names wrong")
	}
}

// titleAt is the step name that matches titles at threshold t.
func titleAt(name string, t float64) Step {
	return mergeStep(name, mapping.AvgCombiner, nil, &match.Attribute{AttrA: "title", AttrB: "name", Sim: sim.Trigram, Threshold: t})
}

// TestCacheHitChecksDefinition: a step whose name the engine holds is read
// only if the result is that step's over the same inputs. Each case
// prepares an engine so that the last step of its second run finds a result
// of another definition; that run fails, names what the result is of and
// what the step is, and returns no mapping.
func TestCacheHitChecksDefinition(t *testing.T) {
	m := mapping.NewSame(dblpPub, acmPub)
	m.Add("d1", "a1", 0.9)
	m.Add("d2", "a1", 0.7)
	best, above := mapping.BestN{N: 1, Side: mapping.RangeSide}, mapping.Threshold{T: 0.8}
	wf := func(steps ...Step) *Workflow { return &Workflow{Name: "w", Steps: steps} }
	for _, c := range []struct {
		name string
		// prepare runs steps on the engine and returns the run that fails.
		prepare func(t *testing.T, e *Engine, a, b *model.ObjectSet) (*Workflow, *model.ObjectSet, *model.ObjectSet)
	}{
		{"matcher configuration", func(t *testing.T, e *Engine, a, b *model.ObjectSet) (*Workflow, *model.ObjectSet, *model.ObjectSet) {
			mustRun(t, e, wf(titleAt("s", 0.8)), a, b)
			return wf(titleAt("s", 0.9)), a, b
		}},
		{"set pair", func(t *testing.T, e *Engine, a, b *model.ObjectSet) (*Workflow, *model.ObjectSet, *model.ObjectSet) {
			mustRun(t, e, wf(titleAt("s", 0.8)), a, b)
			_, other := fixtureSets()
			return wf(titleAt("s", 0.8)), a, other
		}},
		{"mutated set", func(t *testing.T, e *Engine, a, b *model.ObjectSet) (*Workflow, *model.ObjectSet, *model.ObjectSet) {
			mustRun(t, e, wf(titleAt("s", 0.8)), a, b)
			b.AddNew("a4", map[string]string{"name": "Generic Schema Matching with Cupid"})
			return wf(titleAt("s", 0.8)), a, b
		}},
		{"selection order", func(t *testing.T, e *Engine, a, b *model.ObjectSet) (*Workflow, *model.ObjectSet, *model.ObjectSet) {
			mustRun(t, e, wf(Step{Name: "s", Use: []string{"M"}, Select: []mapping.Selection{best, above}}), a, b)
			return wf(Step{Name: "s", Use: []string{"M"}, Select: []mapping.Selection{above, best}}), a, b
		}},
		{"use input", func(t *testing.T, e *Engine, a, b *model.ObjectSet) (*Workflow, *model.ObjectSet, *model.ObjectSet) {
			mustRun(t, e, wf(Step{Name: "s", Use: []string{"M"}}), a, b)
			return wf(titleAt("M", 0.8), Step{Name: "s", Use: []string{"M"}}), a, b
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine(nil)
			if err := e.Repo.Put("M", m); err != nil {
				t.Fatal(err)
			}
			a, b := fixtureSets()
			w, a, b := c.prepare(t, e, a, b)
			got, err := e.Run(w, a, b)
			if err == nil || got != nil {
				t.Fatalf("Run = %v, %v; want no mapping and an error", got, err)
			}
			step := &w.Steps[len(w.Steps)-1]
			now := e.record(step, a, b).def
			held := e.steps[step.Name].def
			if held == now || !strings.Contains(err.Error(), held) || !strings.Contains(err.Error(), now) {
				t.Errorf("error %q should name the entry's definition %q and the step's %q", err, held, now)
			}
		})
	}
}

// mustRun runs w on e and fails the test on an error.
func mustRun(t *testing.T, e *Engine, w *Workflow, a, b *model.ObjectSet) *mapping.Mapping {
	t.Helper()
	m, err := e.Run(w, a, b)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDefinitionPinsSets: a definition names object sets by address, so
// the engine keeps them alive. A set freed after its step ran could
// otherwise hand its address, at the same version, to a new set, whose run
// would then read the freed set's result.
func TestDefinitionPinsSets(t *testing.T) {
	_, acm := fixtureSets()
	links := mapping.NewSame(dblpPub, acmPub)
	links.Add("d1", "a1", 1)
	wf := New("links").AddStep(Step{Name: "s", Matchers: []match.Matcher{&match.ExistingMapping{M: links}}})
	set := func() *model.ObjectSet {
		s := model.NewObjectSet(dblpPub)
		s.AddNew("d1", map[string]string{"title": "Generic Schema Matching with Cupid"})
		return s
	}
	e := NewEngine(nil)
	mustRun(t, e, wf, set(), acm)
	for i := range 1000 {
		if i%10 == 0 {
			runtime.GC()
		}
		if _, err := e.Run(wf, set(), acm); err == nil {
			t.Fatalf("run %d over a new set read the first set's result", i)
		}
	}
}

// TestDeletedUpstreamStillHitsDownstream: a step reads its Use inputs by
// their definitions, not their results, so re-running a forgotten upstream
// step under the same definition leaves the downstream result a hit.
func TestDeletedUpstreamStillHitsDownstream(t *testing.T) {
	dblp, acm := fixtureSets()
	wf := New("chain").AddStep(titleAt("titles", 0.8)).AddStep(Step{Name: "refined", Use: []string{"titles"}, Select: []mapping.Selection{mapping.Threshold{T: 0.9}}})
	e := NewEngine(nil)
	mustRun(t, e, wf, dblp, acm)
	titles, _ := e.Mapping("titles")
	refined, _ := e.Mapping("refined")
	e.Forget("titles")
	if got := mustRun(t, e, wf, dblp, acm); got != refined {
		t.Error("the downstream step ran again")
	}
	if again, _ := e.Mapping("titles"); again == titles {
		t.Error("the forgotten upstream step did not run again")
	}
}

// TestConcurrentRunsKeepOneDefinition: of two concurrent runs that cache
// different definitions under one step name, exactly one succeeds.
func TestConcurrentRunsKeepOneDefinition(t *testing.T) {
	dblp, acm := fixtureSets()
	for range 20 {
		e := NewEngine(nil)
		errs := make(chan error, 2)
		for _, threshold := range []float64{0.8, 0.9} {
			go func() {
				_, err := e.Run(New("race").AddStep(titleAt("s", threshold)), dblp, acm)
				errs <- err
			}()
		}
		failed := 0
		for range 2 {
			if <-errs != nil {
				failed++
			}
		}
		if failed != 1 {
			t.Fatalf("%d of two conflicting runs failed, want 1", failed)
		}
	}
}

// TestEngineNamespace: names resolve step results first, then repository;
// set names are unique, and the first set registered for an LDS is the one
// ObjectSetFor returns.
func TestEngineNamespace(t *testing.T) {
	dblp, acm := fixtureSets()
	e := NewEngine(nil)
	inRepo, stepped := mapping.Identity(dblp), mapping.Identity(acm)
	for name, m := range map[string]*mapping.Mapping{"M": inRepo, "N": stepped} {
		if err := e.Repo.Put(name, m); err != nil {
			t.Fatal(err)
		}
	}
	if m, ok := e.Mapping("M"); !ok || m != inRepo {
		t.Error("Mapping should read the repository")
	}
	mustRun(t, e, New("shadow").AddStep(Step{Name: "M", Use: []string{"N"}}), dblp, acm)
	if m, ok := e.Mapping("M"); !ok || m != stepped {
		t.Error("Mapping should read a step result before the repository")
	}
	if _, ok := e.Mapping("ghost"); ok {
		t.Error("unknown name resolved")
	}

	second := model.NewObjectSet(dblpPub)
	for _, reg := range []struct {
		name string
		set  *model.ObjectSet
	}{{"DBLP.Publication", dblp}, {"ACM.Publication", acm}, {"DBLP.PublicationV2", second}} {
		if err := e.AddObjectSet(reg.name, reg.set); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AddObjectSet("DBLP.Publication", second); err == nil {
		t.Error("duplicate set name accepted")
	}
	if err := e.AddObjectSet("", dblp); err == nil {
		t.Error("empty set name accepted")
	}
	if set, ok := e.ObjectSet("DBLP.PublicationV2"); !ok || set != second {
		t.Error("ObjectSet should return the set registered under the name")
	}
	if set, ok := e.ObjectSetFor(dblpPub); !ok || set != dblp {
		t.Error("ObjectSetFor should return the first set registered for the LDS")
	}
}

// TestMergeStepSelectionsInOrder: a merge step returns what the merge
// followed by its selections in order returns, when a leading Threshold
// runs inside the merge too, and its recorded definition is the one the
// step rendered before the threshold moved into the merge.
func TestMergeStepSelectionsInOrder(t *testing.T) {
	rnd := rand.New(rand.NewSource(43))
	e := NewEngine(nil)
	var inputs []*mapping.Mapping
	for i, name := range []string{"title", "author", "year"} {
		m := mapping.NewSame(dblpPub, acmPub)
		for range 300 * (i + 1) {
			m.Add(model.ID(fmt.Sprintf("d%d", rnd.Intn(30))), model.ID(fmt.Sprintf("a%d", rnd.Intn(30))), float64(rnd.Intn(11))/10)
		}
		if err := e.Repo.Put(name, m); err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, m)
	}
	table2 := mapping.Combiner{Kind: mapping.Weighted, Weights: []float64{3, 1, 2}, MissingAsZero: true}
	above, higher, best := mapping.Threshold{T: 0.8}, mapping.Threshold{T: 0.9}, mapping.BestN{N: 1, Side: mapping.DomainSide}
	const use = "use(repo:title) use(repo:author) use(repo:year) merge(f={Kind:Weighted MissingAsZero:true Weights:[3 1 2] PreferIndex:0}, g=Average)"
	for _, c := range []struct {
		name string
		sels []mapping.Selection
		def  string
	}{
		{"threshold-best", []mapping.Selection{above, best},
			use + " select(mapping.Threshold{T:0.8}) select(mapping.BestN{N:1, Side:0, Workers:0})"},
		{"best-threshold", []mapping.Selection{best, above},
			use + " select(mapping.BestN{N:1, Side:0, Workers:0}) select(mapping.Threshold{T:0.8})"},
		{"threshold-threshold", []mapping.Selection{above, higher},
			use + " select(mapping.Threshold{T:0.8}) select(mapping.Threshold{T:0.9})"},
	} {
		got := mustRun(t, e, New(c.name).AddStep(Step{Name: c.name, Use: []string{"title", "author", "year"}, F: table2, Select: c.sels}), nil, nil)
		want, err := mapping.Merge(table2, inputs...)
		if err != nil {
			t.Fatal(err)
		}
		for _, sel := range c.sels {
			want = sel.Apply(want)
		}
		if want.Len() == 0 || !reflect.DeepEqual(got.Correspondences(), want.Correspondences()) {
			t.Errorf("%s: step = %v, merge then selections = %v", c.name, got.Correspondences(), want.Correspondences())
		}
		if def := e.steps[c.name].def; def != c.def {
			t.Errorf("%s: definition %q, want %q", c.name, def, c.def)
		}
	}
}

// TestForgetForgetsDependents: forgetting a step forgets every step that
// used it, through other steps too, so after its set changed one Forget
// re-runs the chain instead of failing at the first step above it.
func TestForgetForgetsDependents(t *testing.T) {
	dblp, acm := fixtureSets()
	wf := New("chain").AddStep(titleAt("titles", 0.8)).
		AddStep(Step{Name: "refined", Use: []string{"titles"}, Select: []mapping.Selection{mapping.Threshold{T: 0.9}}}).
		AddStep(Step{Name: "best", Use: []string{"refined"}, Select: []mapping.Selection{mapping.BestN{N: 1, Side: mapping.DomainSide}}})
	e := NewEngine(nil)
	first := mustRun(t, e, wf, dblp, acm)
	acm.AddNew("a4", map[string]string{"name": "Generic Schema Matching with Cupid"})
	if _, err := e.Run(wf, dblp, acm); err == nil {
		t.Fatal("a run over the changed set read the results of the old one")
	}
	if !e.Forget("titles") {
		t.Fatal("Forget found no titles")
	}
	got := mustRun(t, e, wf, dblp, acm)
	if refined, _ := e.Mapping("refined"); got == first || !refined.Has("d1", "a4") {
		t.Errorf("after one Forget the chain read its old results: refined = %v", refined.Correspondences())
	}
}
