package fuse

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
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

// runPerInstance is the Run loop that fetched each base instance's rows with
// ForDomain and sorted them by similarity descending, then range id, and
// set the fused values on a copy of the instance; Run is held to it.
func runPerInstance(f *Fuser) *model.ObjectSet {
	out := model.NewObjectSet(f.base.LDS())
	f.base.Each(func(in *model.Instance) bool {
		defer out.Add(in)
		for _, src := range f.sources {
			corrs := src.m.ForDomain(in.ID)
			sort.Slice(corrs, func(i, j int) bool {
				if corrs[i].Sim != corrs[j].Sim {
					return corrs[i].Sim > corrs[j].Sim
				}
				return corrs[i].Range < corrs[j].Range
			})
			for _, rule := range src.rules {
				var values []string
				for _, c := range corrs {
					if c.Sim < rule.MinSim {
						continue
					}
					if other := src.set.Get(c.Range); other != nil {
						values = append(values, other.Attr(rule.FromAttr))
					}
				}
				if v, ok := rule.Agg(values); ok {
					in.SetAttr(rule.ToAttr, v)
				}
			}
		}
		return true
	})
	return out
}

// TestFuserRunMatchesPerInstance compares Run with runPerInstance over
// random sources with tied similarities, mapped ids missing from the base
// and from the source sets, and two sources writing one attribute. The
// aggregation logs every call, answers empty input and declines one-value
// input, so the fused attributes and the call logs must both match.
func TestFuserRunMatchesPerInstance(t *testing.T) {
	rnd := rand.New(rand.NewSource(45))
	var calls *[]string
	logged := func(name string) AggFunc {
		return func(vs []string) (string, bool) {
			v := name + "(" + strings.Join(vs, ",") + ")"
			*calls = append(*calls, v)
			return v, len(vs) != 1
		}
	}
	sims := []float64{0.5, 0.8, 0.8, 1}
	for round := range 40 {
		base := model.NewObjectSet(dblpPub)
		for i := range 12 {
			base.AddNew(model.ID(fmt.Sprintf("d%d", i)), nil)
		}
		f := NewFuser(base)
		for k, lds := range []model.LDS{acmPub, gsPub} {
			set := model.NewObjectSet(lds)
			for i := range 8 {
				set.AddNew(model.ID(fmt.Sprintf("r%d", i)), map[string]string{"v": fmt.Sprintf("%s%d", lds.Source, i)})
			}
			m := mapping.NewSame(dblpPub, lds)
			for range rnd.Intn(60) {
				m.Add(model.ID(fmt.Sprintf("d%d", rnd.Intn(16))), model.ID(fmt.Sprintf("r%d", rnd.Intn(11))), sims[rnd.Intn(len(sims))])
			}
			rules := []Rule{{FromAttr: "v", ToAttr: "shared", Agg: logged(fmt.Sprintf("s%d", k)), MinSim: 0.6}}
			if k == 0 {
				rules = append(rules, Rule{FromAttr: "v", ToAttr: "own", Agg: logged("own")})
			}
			if err := f.Add(m, set, rules...); err != nil {
				t.Fatal(err)
			}
		}
		var gotCalls, wantCalls []string
		calls = &gotCalls
		got := f.Run()
		calls = &wantCalls
		want := runPerInstance(f)
		if !reflect.DeepEqual(gotCalls, wantCalls) {
			t.Fatalf("round %d: Run's aggregation calls\n%v\nper-instance calls\n%v", round, gotCalls, wantCalls)
		}
		want.Each(func(w *model.Instance) bool {
			if g := got.Get(w.ID); !reflect.DeepEqual(g.Attrs, w.Attrs) {
				t.Fatalf("round %d: %s fused to %v, per-instance %v", round, w.ID, g.Attrs, w.Attrs)
			}
			return true
		})
	}
}
