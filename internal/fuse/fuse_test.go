package fuse

import (
	"testing"

	"repro/internal/mapping"
	"repro/internal/model"
)

var (
	dblpPub = model.LDS{Source: "DBLP", Type: model.Publication}
	acmPub  = model.LDS{Source: "ACM", Type: model.Publication}
	gsPub   = model.LDS{Source: "GS", Type: model.Publication}
)

func fuseFixture() (*model.ObjectSet, *model.ObjectSet, *model.ObjectSet, *mapping.Mapping, *mapping.Mapping) {
	dblp := model.NewObjectSet(dblpPub)
	dblp.AddNew("d1", map[string]string{"title": "Cupid"})
	dblp.AddNew("d2", map[string]string{"title": "Formal Perspective"})
	dblp.AddNew("d3", map[string]string{"title": "Unmatched"})

	acm := model.NewObjectSet(acmPub)
	acm.AddNew("a1", map[string]string{"citations": "69", "pages": "49-58"})
	acm.AddNew("a2", map[string]string{"citations": "10"})

	gs := model.NewObjectSet(gsPub)
	gs.AddNew("g1", map[string]string{"citations": "102"})
	gs.AddNew("g2", map[string]string{"citations": "15"})
	gs.AddNew("g3", map[string]string{"citations": "4"})

	toACM := mapping.NewSame(dblpPub, acmPub)
	toACM.Add("d1", "a1", 1)
	toACM.Add("d2", "a2", 0.9)

	toGS := mapping.NewSame(dblpPub, gsPub)
	toGS.Add("d1", "g1", 1)
	toGS.Add("d2", "g2", 0.95)
	toGS.Add("d2", "g3", 0.85) // duplicate GS entry
	return dblp, acm, gs, toACM, toGS
}

func TestFuseCitationsMax(t *testing.T) {
	dblp, acm, gs, toACM, toGS := fuseFixture()
	f := NewFuser(dblp)
	if err := f.Add(toACM, acm, Rule{FromAttr: "citations", ToAttr: "acm_citations", Agg: First}); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(toGS, gs, Rule{FromAttr: "citations", ToAttr: "gs_citations", Agg: MaxNumeric}); err != nil {
		t.Fatal(err)
	}
	fused := f.Run()
	if got := fused.Get("d1").Attr("acm_citations"); got != "69" {
		t.Errorf("d1 acm_citations = %q", got)
	}
	if got := fused.Get("d2").Attr("gs_citations"); got != "15" {
		t.Errorf("d2 gs_citations = %q, want max(15,4)", got)
	}
	if fused.Get("d3").HasAttr("acm_citations") {
		t.Error("unmatched instance should not gain attributes")
	}
	// Base set untouched.
	if dblp.Get("d1").HasAttr("acm_citations") {
		t.Error("Run must not modify the base set")
	}
}

func TestFuseSumOverDuplicates(t *testing.T) {
	dblp, _, gs, _, toGS := fuseFixture()
	f := NewFuser(dblp)
	f.Add(toGS, gs, Rule{FromAttr: "citations", ToAttr: "gs_total", Agg: SumNumeric})
	fused := f.Run()
	if got := fused.Get("d2").Attr("gs_total"); got != "19" {
		t.Errorf("d2 gs_total = %q, want 19 (15+4)", got)
	}
}

func TestFuseMinSim(t *testing.T) {
	dblp, _, gs, _, toGS := fuseFixture()
	f := NewFuser(dblp)
	f.Add(toGS, gs, Rule{FromAttr: "citations", ToAttr: "gs_strict", Agg: SumNumeric, MinSim: 0.9})
	fused := f.Run()
	if got := fused.Get("d2").Attr("gs_strict"); got != "15" {
		t.Errorf("d2 gs_strict = %q, want 15 (g3 below MinSim)", got)
	}
}

func TestFuseEndpointValidation(t *testing.T) {
	dblp, acm, _, toACM, _ := fuseFixture()
	f := NewFuser(acm)
	if err := f.Add(toACM, acm); err == nil {
		t.Error("mapping domain mismatch should fail")
	}
	f2 := NewFuser(dblp)
	if err := f2.Add(toACM, dblp); err == nil {
		t.Error("mapping range mismatch should fail")
	}
}

func TestAggFuncs(t *testing.T) {
	if v, ok := First([]string{"", "x", "y"}); !ok || v != "x" {
		t.Errorf("First = %q, %v", v, ok)
	}
	if _, ok := First([]string{"", ""}); ok {
		t.Error("First of empties should report false")
	}
	if v, ok := MaxNumeric([]string{"3", "x", "7", "5"}); !ok || v != "7" {
		t.Errorf("MaxNumeric = %q, %v", v, ok)
	}
	if _, ok := MaxNumeric([]string{"x"}); ok {
		t.Error("MaxNumeric of non-numbers should report false")
	}
	if v, ok := SumNumeric([]string{"1", "2", "oops", "3"}); !ok || v != "6" {
		t.Errorf("SumNumeric = %q, %v", v, ok)
	}
}

func TestFusePreferenceOrderBySim(t *testing.T) {
	// First-aggregation must prefer the higher-similarity correspondence.
	dblp := model.NewObjectSet(dblpPub)
	dblp.AddNew("d", nil)
	acm := model.NewObjectSet(acmPub)
	acm.AddNew("low", map[string]string{"v": "worse"})
	acm.AddNew("high", map[string]string{"v": "better"})
	m := mapping.NewSame(dblpPub, acmPub)
	m.Add("d", "low", 0.5)
	m.Add("d", "high", 0.9)
	f := NewFuser(dblp)
	f.Add(m, acm, Rule{FromAttr: "v", ToAttr: "v", Agg: First})
	if got := f.Run().Get("d").Attr("v"); got != "better" {
		t.Errorf("v = %q, want the higher-similarity source", got)
	}
}
