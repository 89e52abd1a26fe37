package workflow

import (
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
	return &match.Attribute{MatcherName: "title", AttrA: "title", AttrB: "name", Sim: sim.Trigram, Threshold: 0.8}
}

func yearMatcher() match.Matcher {
	return &match.Attribute{MatcherName: "year", AttrA: "year", AttrB: "year", Sim: sim.YearExact, Threshold: 1}
}

func TestRunMergeWorkflow(t *testing.T) {
	// §4.1.1: independent matchers merged — title matching alone confuses
	// the conference/journal twins; merging with the year matcher under
	// Avg-0 and a high threshold resolves them.
	dblp, acm := fixtureSets()
	wf := New("pubs").AddStep(MergeStep("combine", mapping.Avg0Combiner,
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
	wf := New("pubs").AddStep(MergeStep("titles", mapping.AvgCombiner, nil, titleMatcher()))
	e := NewEngine(store.NewRepository())
	if _, err := e.Run(wf, dblp, acm); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Cache.Get("titles"); !ok {
		t.Error("step result should be cached under the step name")
	}
}

func TestUseCachedMappingInLaterStep(t *testing.T) {
	// Step 2 refines step 1's result by merging it with the year matcher
	// under Avg-0 (missing-as-zero, §3.1): pairs the year matcher does not
	// confirm are halved and fall below the threshold.
	dblp, acm := fixtureSets()
	wf := New("refine").
		AddStep(MergeStep("titles", mapping.AvgCombiner, nil, titleMatcher())).
		AddStep(Step{
			Name:      "with-year",
			Matchers:  []match.Matcher{yearMatcher()},
			Use:       []string{"titles"},
			Op:        OpMerge,
			F:         mapping.Avg0Combiner,
			Selection: mapping.Threshold{T: 0.8},
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

	wf := New("via-gs").AddStep(ComposeStep("composed", mapping.MinCombiner, mapping.AggMax, nil, "DBLP-GS", "GS-ACM")).Store("DBLP-ACM.composed")
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

func TestWorkflowAsMatcher(t *testing.T) {
	dblp, acm := fixtureSets()
	wf := New("inner").AddStep(MergeStep("m", mapping.AvgCombiner, nil, titleMatcher()))
	e := NewEngine(store.NewRepository())
	m := wf.AsMatcher(e)
	if m.Name() != "inner" {
		t.Errorf("Name = %q", m.Name())
	}
	got, err := m.Match(dblp, acm)
	if err != nil || got.Len() == 0 {
		t.Errorf("workflow-as-matcher failed: %v, %v", got, err)
	}
	reg := match.NewRegistry()
	if err := reg.Register(m); err != nil {
		t.Errorf("workflow should register in the matcher library: %v", err)
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
	wf := New("widths").AddStep(MergeStep("s1", mapping.AvgCombiner,
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
	failing := match.Func{MatcherName: "boom", Fn: func(a, b *model.ObjectSet) (*mapping.Mapping, error) {
		return nil, errBoom
	}}
	withFailing := New("x").AddStep(MergeStep("s", mapping.AvgCombiner, nil, failing))
	if _, err := e.Run(withFailing, dblp, acm); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("matcher error should propagate, got %v", err)
	}
}

var errBoom = errFor("boom")

type errFor string

func (e errFor) Error() string { return string(e) }

func TestTraceAndString(t *testing.T) {
	dblp, acm := fixtureSets()
	wf := New("traced").AddStep(MergeStep("m", mapping.AvgCombiner, mapping.Threshold{T: 0.5}, titleMatcher()))
	e := NewEngine(store.NewRepository())
	var lines []string
	e.Trace = func(s string) { lines = append(lines, s) }
	if _, err := e.Run(wf, dblp, acm); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2 {
		t.Errorf("trace lines = %v", lines)
	}
	out := wf.String()
	if !strings.Contains(out, "traced") || !strings.Contains(out, "merge") {
		t.Errorf("String = %q", out)
	}
	if OpMerge.String() != "merge" || OpCompose.String() != "compose" || OpKind(5).String() == "" {
		t.Error("OpKind names wrong")
	}
}

func TestDefaultStepNames(t *testing.T) {
	dblp, acm := fixtureSets()
	wf := New("x").AddStep(Step{Matchers: []match.Matcher{titleMatcher()}, Op: OpMerge, F: mapping.AvgCombiner})
	e := NewEngine(store.NewRepository())
	if _, err := e.Run(wf, dblp, acm); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Cache.Get("step1"); !ok {
		t.Error("unnamed step should cache as step1")
	}
}
