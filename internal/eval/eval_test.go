package eval

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mapping"
	"repro/internal/model"
)

var (
	dblpPub = model.LDS{Source: "DBLP", Type: model.Publication}
	acmPub  = model.LDS{Source: "ACM", Type: model.Publication}
)

func TestCompareExactCounts(t *testing.T) {
	perfect := mapping.NewSame(dblpPub, acmPub)
	perfect.Add("a", "x", 1)
	perfect.Add("b", "y", 1)
	perfect.Add("c", "z", 1)

	got := mapping.NewSame(dblpPub, acmPub)
	got.Add("a", "x", 0.9) // TP
	got.Add("b", "z", 0.8) // FP
	// b-y and c-z are FN.

	r := Compare(got, perfect)
	if r.TruePos != 1 || r.FalsePos != 1 || r.FalseNeg != 2 {
		t.Fatalf("counts = %+v", r)
	}
	if r.Precision != 0.5 {
		t.Errorf("P = %v", r.Precision)
	}
	if math.Abs(r.Recall-1.0/3.0) > 1e-12 {
		t.Errorf("R = %v", r.Recall)
	}
	wantF := 2 * 0.5 * (1.0 / 3.0) / (0.5 + 1.0/3.0)
	if math.Abs(r.F1-wantF) > 1e-12 {
		t.Errorf("F = %v, want %v", r.F1, wantF)
	}
}

func TestComparePerfectMatch(t *testing.T) {
	m := mapping.NewSame(dblpPub, acmPub)
	m.Add("a", "x", 1)
	r := Compare(m, m.Clone())
	if r.Precision != 1 || r.Recall != 1 || r.F1 != 1 {
		t.Errorf("perfect = %+v", r)
	}
}

func TestCompareEmptyEdgeCases(t *testing.T) {
	empty := mapping.NewSame(dblpPub, acmPub)
	full := mapping.NewSame(dblpPub, acmPub)
	full.Add("a", "x", 1)

	r := Compare(empty, full)
	if r.Precision != 1 || r.Recall != 0 || r.F1 != 0 {
		t.Errorf("empty result = %+v", r)
	}
	r = Compare(full, empty)
	if r.Precision != 0 || r.Recall != 1 || r.F1 != 0 {
		t.Errorf("empty perfect = %+v", r)
	}
	r = Compare(empty, empty.Clone())
	if r.Precision != 1 || r.Recall != 1 {
		t.Errorf("both empty = %+v", r)
	}
}

func TestCompareSimilarityIgnored(t *testing.T) {
	perfect := mapping.NewSame(dblpPub, acmPub)
	perfect.Add("a", "x", 1)
	got := mapping.NewSame(dblpPub, acmPub)
	got.Add("a", "x", 0.0001)
	if r := Compare(got, perfect); r.F1 != 1 {
		t.Errorf("membership should decide, got %+v", r)
	}
}

func TestCompareStrictDuplicateSemantics(t *testing.T) {
	// §5.6: all duplicate GS entries must be matched, not just one.
	perfect := mapping.NewSame(dblpPub, acmPub)
	perfect.Add("p", "g1", 1)
	perfect.Add("p", "g2", 1) // duplicate GS entry of the same publication
	got := mapping.NewSame(dblpPub, acmPub)
	got.Add("p", "g1", 1)
	r := Compare(got, perfect)
	if r.Recall != 0.5 {
		t.Errorf("strict recall = %v, want 0.5", r.Recall)
	}
}

func TestFMeasureBoundsProperty(t *testing.T) {
	f := func(pairsGot, pairsPerfect []struct{ D, R uint8 }) bool {
		got := mapping.NewSame(dblpPub, acmPub)
		for _, p := range pairsGot {
			got.Add(model.ID(rune('a'+p.D%8)), model.ID(rune('A'+p.R%8)), 1)
		}
		perfect := mapping.NewSame(dblpPub, acmPub)
		for _, p := range pairsPerfect {
			perfect.Add(model.ID(rune('a'+p.D%8)), model.ID(rune('A'+p.R%8)), 1)
		}
		r := Compare(got, perfect)
		inRange := func(v float64) bool { return v >= 0 && v <= 1 && !math.IsNaN(v) }
		if !inRange(r.Precision) || !inRange(r.Recall) || !inRange(r.F1) {
			return false
		}
		// F1 lies between min and max of P and R (harmonic mean property).
		lo, hi := r.Precision, r.Recall
		if lo > hi {
			lo, hi = hi, lo
		}
		return r.F1 >= lo-1e-12 && r.F1 <= hi+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCompareGrouped(t *testing.T) {
	set := model.NewObjectSet(dblpPub)
	set.AddNew("c1", map[string]string{"kind": "conference"})
	set.AddNew("c2", map[string]string{"kind": "conference"})
	set.AddNew("j1", map[string]string{"kind": "journal"})

	perfect := mapping.NewSame(dblpPub, acmPub)
	perfect.Add("c1", "x", 1)
	perfect.Add("c2", "y", 1)
	perfect.Add("j1", "z", 1)

	got := mapping.NewSame(dblpPub, acmPub)
	got.Add("c1", "x", 1) // conference TP
	got.Add("c2", "z", 1) // conference FP (and c2-y FN)
	got.Add("j1", "z", 1) // journal TP

	res := CompareGrouped(got, perfect, AttrGroup(set, "kind"))
	conf := res["conference"]
	if conf.TruePos != 1 || conf.FalsePos != 1 || conf.FalseNeg != 1 {
		t.Errorf("conference = %+v", conf)
	}
	j := res["journal"]
	if j.F1 != 1 {
		t.Errorf("journal = %+v", j)
	}
	overall := res["overall"]
	if overall.TruePos != 2 || overall.FalsePos != 1 || overall.FalseNeg != 1 {
		t.Errorf("overall = %+v", overall)
	}
}

func TestCompareGroupedSkipsEmptyGroup(t *testing.T) {
	perfect := mapping.NewSame(dblpPub, acmPub)
	perfect.Add("unknown", "x", 1)
	got := perfect.Clone()
	res := CompareGrouped(got, perfect, func(model.ID) string { return "" })
	if res["overall"].TruePos != 0 {
		t.Errorf("skipped pairs should not count, got %+v", res["overall"])
	}
}

func TestResultString(t *testing.T) {
	r := Result{Precision: 0.973, Recall: 0.939, F1: 0.955}
	s := r.String()
	if !strings.Contains(s, "97.3%") || !strings.Contains(s, "93.9%") {
		t.Errorf("String = %q", s)
	}
	if Pct(0.919) != "91.9%" {
		t.Errorf("Pct = %q", Pct(0.919))
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Table 2. Matching DBLP-ACM publications", "Matcher", "Precision", "Recall", "F-Measure")
	tab.AddRow("Title", "86.7%", "97.7%", "91.9%")
	tab.AddRow("Merge", "97.3%", "93.9%", "95.5%")
	out := tab.String()
	for _, frag := range []string{"Table 2", "Matcher", "86.7%", "Merge", "95.5%", "---"} {
		if !strings.Contains(out, frag) {
			t.Errorf("table missing %q:\n%s", frag, out)
		}
	}
}

func TestTableRowPadding(t *testing.T) {
	tab := NewTable("t", "A", "B")
	tab.AddRow("only-a")
	tab.AddRow("x", "y", "overflow-dropped")
	out := tab.String()
	if strings.Contains(out, "overflow") {
		t.Error("overflow cells must be dropped")
	}
}

// twoPassCompareGrouped is the definition Compare and CompareGrouped were
// written as: a membership pass got → perfect counts true and false
// positives, and a second, perfect → got, counts the perfect pairs got
// misses as false negatives. Both passes skip the pairs group maps to "".
func twoPassCompareGrouped(got, perfect *mapping.Mapping, group GroupFunc) map[string]Result {
	type counts struct{ tp, fp, fn int }
	byGroup := map[string]*counts{}
	touch := func(g string) *counts {
		if byGroup[g] == nil {
			byGroup[g] = &counts{}
		}
		return byGroup[g]
	}
	got.Each(func(c mapping.Correspondence) {
		if g := group(c.Domain); g != "" {
			if perfect.Has(c.Domain, c.Range) {
				touch(g).tp++
			} else {
				touch(g).fp++
			}
		}
	})
	perfect.Each(func(c mapping.Correspondence) {
		if g := group(c.Domain); g != "" && !got.Has(c.Domain, c.Range) {
			touch(g).fn++
		}
	})
	out := map[string]Result{}
	var total counts
	for g, c := range byGroup {
		out[g] = result(c.tp, c.fp, c.fn)
		total.tp += c.tp
		total.fp += c.fp
		total.fn += c.fn
	}
	out["overall"] = result(total.tp, total.fp, total.fn)
	return out
}

// TestCompareMatchesTwoPass holds the one-pass evaluation to the two-pass
// definition over random mapping pairs in one dictionary, with either side
// empty, and grouped by a function that drops some domains — Compare as the
// grouping that keeps every domain in one group.
func TestCompareMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	randomMapping := func(dict *model.IDDict, n int) *mapping.Mapping {
		m := mapping.NewWithDict(dblpPub, acmPub, model.SameMappingType, dict)
		for range n {
			m.AddMax(model.ID(fmt.Sprintf("d%d", rng.Intn(12))), model.ID(fmt.Sprintf("r%d", rng.Intn(12))), rng.Float64())
		}
		return m
	}
	groups := []GroupFunc{
		func(model.ID) string { return "all" },
		func(d model.ID) string {
			switch d[len(d)-1] {
			case '1', '3':
				return ""
			case '2':
				return "two"
			}
			return "rest"
		},
		func(d model.ID) string {
			if last := d[len(d)-1]; last != '1' && last != '5' {
				return string(last)
			}
			return ""
		},
		func(model.ID) string { return "" },
	}
	for trial := range 400 {
		dict := model.NewIDDict()
		got, perfect := randomMapping(dict, rng.Intn(40)), randomMapping(dict, rng.Intn(40))
		switch trial % 10 {
		case 3:
			got = randomMapping(dict, 0)
		case 7:
			perfect = randomMapping(dict, 0)
		}
		label := fmt.Sprintf("trial %d (%d got, %d perfect)", trial, got.Len(), perfect.Len())
		if want := twoPassCompareGrouped(got, perfect, groups[0])["overall"]; Compare(got, perfect) != want {
			t.Fatalf("%s: Compare %+v, two passes %+v", label, Compare(got, perfect), want)
		}
		for gi, group := range groups {
			if got, want := CompareGrouped(got, perfect, group), twoPassCompareGrouped(got, perfect, group); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, grouping %d: CompareGrouped %+v, two passes %+v", label, gi, got, want)
			}
		}
	}
}

// TestCompareMixedDictsPanics: the program builds every mapping over
// model.IDs, so a result and a perfect mapping over different dictionaries
// are a programming error, reported by a panic rather than translated.
func TestCompareMixedDictsPanics(t *testing.T) {
	got := mapping.NewSame(dblpPub, acmPub)
	got.Add("p1", "q1", 1)
	perfect := mapping.NewWithDict(dblpPub, acmPub, model.SameMappingType, model.NewIDDict())
	perfect.Add("p1", "q1", 1)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"Compare", func() { Compare(got, perfect) }},
		{"CompareGrouped", func() { CompareGrouped(got, perfect, func(model.ID) string { return "all" }) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s over two dictionaries must panic", c.name)
				}
			}()
			c.run()
		}()
	}
}
