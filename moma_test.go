package moma

import (
	"math"
	"strings"
	"testing"
)

// figure1System builds a System loaded with the Figure 1 publication sets.
func figure1System(t *testing.T) *System {
	t.Helper()
	sys := NewSystem()
	dblp := NewObjectSet(LDS{Source: "DBLP", Type: Publication})
	dblp.AddNew("d1", map[string]string{"title": "Generic Schema Matching with Cupid", "year": "2001"})
	dblp.AddNew("d2", map[string]string{"title": "A formal perspective on the view selection problem", "year": "2001"})
	dblp.AddNew("d3", map[string]string{"title": "A formal perspective on the view selection problem", "year": "2002"})
	acm := NewObjectSet(LDS{Source: "ACM", Type: Publication})
	acm.AddNew("a1", map[string]string{"title": "Generic Schema Matching with Cupid", "year": "2001"})
	acm.AddNew("a2", map[string]string{"title": "A formal perspective on the view selection problem", "year": "2001"})
	acm.AddNew("a3", map[string]string{"title": "A formal perspective on the view selection problem", "year": "2002"})
	if err := sys.AddObjectSet("DBLP.Publication", dblp); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddObjectSet("ACM.Publication", acm); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestSystemRunWorkflowStoreAs: a one-step workflow with StoreAs matches
// two registered sets and stores the result in the repository.
func TestSystemRunWorkflowStoreAs(t *testing.T) {
	sys := figure1System(t)
	wf := NewWorkflow("titles").AddStep(Step{Name: "titles", Matchers: []Matcher{&AttributeMatcher{
		AttrA: "title", AttrB: "title",
		Sim: Trigram, Threshold: 0.8,
	}}}).Store("DBLP-ACM.PubSame")
	res, err := sys.RunWorkflow(wf, "DBLP.Publication", "ACM.Publication")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 5 {
		t.Errorf("Len = %d, want 5 (twin confusion included)", res.Len())
	}
	if stored, ok := sys.Repo.Get("DBLP-ACM.PubSame"); !ok || stored != res {
		t.Error("result should be stored in the repository")
	}
}

// TestRunWorkflowOnAnotherSetPair: a workflow's matcher step cached over
// one set pair is not read for another. The second run fails, naming both
// definitions, and returns no mapping.
func TestRunWorkflowOnAnotherSetPair(t *testing.T) {
	sys := figure1System(t)
	gs := NewObjectSet(LDS{Source: "GS", Type: Publication})
	gs.AddNew("g1", map[string]string{"title": "Generic Schema Matching with Cupid"})
	if err := sys.AddObjectSet("GS.Publication", gs); err != nil {
		t.Fatal(err)
	}
	wf := NewWorkflow("titles").AddStep(Step{Name: "titles", Matchers: []Matcher{
		&AttributeMatcher{AttrA: "title", AttrB: "title", Sim: Trigram, Threshold: 0.8},
	}})
	if _, err := sys.RunWorkflow(wf, "DBLP.Publication", "ACM.Publication"); err != nil {
		t.Fatal(err)
	}
	got, err := sys.RunWorkflow(wf, "DBLP.Publication", "GS.Publication")
	if err == nil || got != nil {
		t.Fatalf("second run = %v, %v; want no mapping and an error", got, err)
	}
	for _, set := range []string{"Publication@ACM", "Publication@GS"} {
		if !strings.Contains(err.Error(), set) {
			t.Errorf("error %q should name both definitions, %s among them", err, set)
		}
	}
}

func TestSystemRunScript(t *testing.T) {
	sys := figure1System(t)
	v, err := sys.RunScript(`
$Titles = attrMatch (DBLP.Publication, ACM.Publication, Trigram, 0.8, "[title]", "[title]")
$Years = attrMatch (DBLP.Publication, ACM.Publication, YearExact, 1, "[year]", "[year]")
$Merged = merge ($Titles, $Years, Avg-0)
$Result = select ($Merged, Threshold, 0.8)
RETURN $Result
`)
	if err != nil {
		t.Fatal(err)
	}
	m := v.Mapping
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3 resolved pairs: %v", m.Len(), m.Correspondences())
	}
	for _, want := range [][2]ID{{"d1", "a1"}, {"d2", "a2"}, {"d3", "a3"}} {
		if !m.Has(want[0], want[1]) {
			t.Errorf("missing %v", want)
		}
	}
	// Script assignments land in the cache for re-use.
	if _, ok := sys.MappingByName("Cache.Titles"); !ok {
		t.Error("script mapping should be cached")
	}
	// A follow-up script can reference it by qualified name.
	v2, err := sys.RunScript("RETURN select(Cache.Titles, Threshold, 0.9)\n")
	if err != nil {
		t.Fatal(err)
	}
	if v2.Mapping.Len() == 0 {
		t.Error("cached mapping should be usable by later scripts")
	}
}

func TestSystemRunWorkflow(t *testing.T) {
	sys := figure1System(t)
	wf := NewWorkflow("pubs").AddStep(Step{Name: "m",
		Matchers: []Matcher{
			&AttributeMatcher{AttrA: "title", AttrB: "title", Sim: Trigram, Threshold: 0.8},
			&AttributeMatcher{AttrA: "year", AttrB: "year", Sim: YearExact, Threshold: 1},
		},
		F:      Avg0Combiner,
		Select: []Selection{Threshold{T: 0.8}},
	}).Store("wf-result")
	got, err := sys.RunWorkflow(wf, "DBLP.Publication", "ACM.Publication")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Errorf("workflow result = %d pairs", got.Len())
	}
	if _, ok := sys.Repo.Get("wf-result"); !ok {
		t.Error("workflow should store its result")
	}
	if _, err := sys.RunWorkflow(wf, "Nope", "ACM.Publication"); err == nil {
		t.Error("unknown set should fail")
	}
	if _, err := sys.RunWorkflow(wf, "DBLP.Publication", "Nope"); err == nil {
		t.Error("unknown set should fail")
	}
}

func TestSystemLoadSource(t *testing.T) {
	sys := NewSystem()
	d := GenerateDataset(SmallConfig())
	if err := sys.LoadSource(d.DBLP); err != nil {
		t.Fatal(err)
	}
	if _, ok := sys.ObjectSetByName("DBLP.Publication"); !ok {
		t.Error("publications not registered")
	}
	if _, ok := sys.MappingByName("DBLP.CoAuthor"); !ok {
		t.Error("co-author mapping not registered")
	}
	// The §4.3 dedup script runs straight off the loaded source.
	if err := sys.AddMapping("DBLP.AuthorAuthor", IdentityOf(d.DBLP.Authors)); err != nil {
		t.Fatal(err)
	}
	v, err := sys.RunScript(`
$CoAuthSim = nhMatch (DBLP.CoAuthor, DBLP.AuthorAuthor, DBLP.CoAuthor)
$NameSim = attrMatch (DBLP.Author, DBLP.Author, Trigram, 0.5, "[name]", "[name]")
$Merged = merge ($CoAuthSim, $NameSim, Average)
$Result = select ($Merged, "[domain.id]<>[range.id]")
RETURN $Result
`)
	if err != nil {
		t.Fatal(err)
	}
	if v.Mapping.Len() == 0 {
		t.Error("dedup script found no candidates")
	}
	// Ground truth pairs should be present among candidates.
	found := 0
	d.Perfect.AuthorDupsDBLP.Each(func(c Correspondence) {
		if v.Mapping.Has(c.Domain, c.Range) {
			found++
		}
	})
	if found == 0 {
		t.Error("no true duplicate pair among candidates")
	}
}

func TestSystemAddObjectSetValidation(t *testing.T) {
	sys := NewSystem()
	if err := sys.AddObjectSet("", nil); err == nil {
		t.Error("empty registration should fail")
	}
	set := NewObjectSet(LDS{Source: "X", Type: Publication})
	if err := sys.AddObjectSet("X.Pub", set); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddObjectSet("X.Pub", set); err == nil {
		t.Error("duplicate registration should fail")
	}
}

func TestOpenSystemPersistence(t *testing.T) {
	dir := t.TempDir()
	sys, err := OpenSystem(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := NewSameMapping(LDS{Source: "A", Type: Publication}, LDS{Source: "B", Type: Publication})
	m.Add("x", "y", 0.9)
	if err := sys.AddMapping("ab", m); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenSystem(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, ok := re.MappingByName("ab")
	if !ok || got.Len() != 1 {
		t.Error("mapping not recovered")
	}
}

func TestNeighborhoodThroughFacade(t *testing.T) {
	// Figure 9 through the public API only.
	asso1 := NewMapping(LDS{Source: "DBLP", Type: Venue}, LDS{Source: "DBLP", Type: Publication}, "VenuePub")
	asso1.Add("conf/VLDB/2001", "conf/VLDB/MadhavanBR01", 1)
	asso1.Add("conf/VLDB/2001", "conf/VLDB/ChirkovaHS01", 1)
	asso1.Add("journals/VLDB/2002", "journals/VLDB/ChirkovaHS02", 1)
	same := NewSameMapping(LDS{Source: "DBLP", Type: Publication}, LDS{Source: "ACM", Type: Publication})
	same.Add("conf/VLDB/MadhavanBR01", "P-672191", 1)
	same.Add("conf/VLDB/ChirkovaHS01", "P-672216", 1)
	same.Add("conf/VLDB/ChirkovaHS01", "P-641272", 0.6)
	same.Add("journals/VLDB/ChirkovaHS02", "P-641272", 1)
	same.Add("journals/VLDB/ChirkovaHS02", "P-672216", 0.6)
	asso2 := NewMapping(LDS{Source: "ACM", Type: Publication}, LDS{Source: "ACM", Type: Venue}, "PubVenue")
	asso2.Add("P-672191", "V-645927", 1)
	asso2.Add("P-672216", "V-645927", 1)
	asso2.Add("P-641272", "V-641268", 1)

	got, err := NhMatch(asso1, same, asso2)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := got.Sim("conf/VLDB/2001", "V-645927"); math.Abs(s-0.8) > 1e-9 {
		t.Errorf("sim = %v, want 0.8", s)
	}
}

func TestFusionThroughFacade(t *testing.T) {
	dblp := NewObjectSet(LDS{Source: "DBLP", Type: Publication})
	dblp.AddNew("d1", map[string]string{"title": "x"})
	gs := NewObjectSet(LDS{Source: "GS", Type: Publication})
	gs.AddNew("g1", map[string]string{"citations": "42"})
	m := NewSameMapping(dblp.LDS(), gs.LDS())
	m.Add("d1", "g1", 1)

	f := NewFuser(dblp)
	if err := f.Add(m, gs, FuseRule{FromAttr: "citations", ToAttr: "gs_cites", Agg: MaxNumeric}); err != nil {
		t.Fatal(err)
	}
	fused := f.Run()
	if fused.Get("d1").Attr("gs_cites") != "42" {
		t.Error("fusion through facade failed")
	}
}

func TestEvalThroughFacade(t *testing.T) {
	perfect := NewSameMapping(LDS{Source: "A", Type: Publication}, LDS{Source: "B", Type: Publication})
	perfect.Add("a", "b", 1)
	got := perfect.Clone()
	r := Compare(got, perfect)
	if r.F1 != 1 {
		t.Errorf("F = %v", r.F1)
	}
	if !strings.Contains(r.String(), "100.0%") {
		t.Errorf("String = %q", r.String())
	}
}
