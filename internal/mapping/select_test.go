package mapping

import (
	"testing"
	"testing/quick"

	"repro/internal/model"
)

func selectFixture() *Mapping {
	m := NewSame(dblpPub, acmPub)
	m.Add("a", "x", 0.9)
	m.Add("a", "y", 0.85)
	m.Add("a", "z", 0.3)
	m.Add("b", "x", 0.7)
	m.Add("b", "y", 0.6)
	m.Add("c", "z", 0.5)
	return m
}

func TestThreshold(t *testing.T) {
	m := selectFixture()
	got := Threshold{T: 0.7}.Apply(m)
	wantMapping(t, got, []Correspondence{
		{"a", "x", 0.9}, {"a", "y", 0.85}, {"b", "x", 0.7},
	})
	if (Threshold{T: 0}).Apply(m).Len() != m.Len() {
		t.Error("threshold 0 should keep everything")
	}
	if (Threshold{T: 1.1}).Apply(m).Len() != 0 {
		t.Error("threshold > 1 should drop everything")
	}
}

func TestBestNDomain(t *testing.T) {
	m := selectFixture()
	got := BestN{N: 1, Side: DomainSide}.Apply(m)
	wantMapping(t, got, []Correspondence{
		{"a", "x", 0.9}, {"b", "x", 0.7}, {"c", "z", 0.5},
	})
	got2 := BestN{N: 2, Side: DomainSide}.Apply(m)
	if got2.Len() != 5 {
		t.Errorf("Best-2 per domain = %d corrs, want 5", got2.Len())
	}
}

func TestBestNRange(t *testing.T) {
	m := selectFixture()
	got := BestN{N: 1, Side: RangeSide}.Apply(m)
	// x: best is a(0.9); y: best is a(0.85); z: best is c(0.5).
	wantMapping(t, got, []Correspondence{
		{"a", "x", 0.9}, {"a", "y", 0.85}, {"c", "z", 0.5},
	})
}

func TestBestNBoth(t *testing.T) {
	m := selectFixture()
	got := BestN{N: 1, Side: BothSides}.Apply(m)
	// Must be best for its domain AND its range.
	wantMapping(t, got, []Correspondence{
		{"a", "x", 0.9}, {"c", "z", 0.5},
	})
}

func TestBestNZero(t *testing.T) {
	if (BestN{N: 0, Side: DomainSide}).Apply(selectFixture()).Len() != 0 {
		t.Error("Best-0 should be empty")
	}
}

func TestBestNTieBreaking(t *testing.T) {
	m := NewSame(dblpPub, acmPub)
	m.Add("a", "y", 0.5)
	m.Add("a", "x", 0.5)
	got := BestN{N: 1, Side: DomainSide}.Apply(m)
	// Deterministic tie-break by range id ascending.
	wantMapping(t, got, []Correspondence{{"a", "x", 0.5}})
}

func TestBest1DeltaAbsolute(t *testing.T) {
	m := selectFixture()
	got := Best1Delta{D: 0.05, Side: DomainSide}.Apply(m)
	// a: best 0.9, keep >= 0.85 -> x and y; b: best 0.7 -> only x;
	// c: z.
	wantMapping(t, got, []Correspondence{
		{"a", "x", 0.9}, {"a", "y", 0.85}, {"b", "x", 0.7}, {"c", "z", 0.5},
	})
}

func TestBest1DeltaRelative(t *testing.T) {
	m := selectFixture()
	got := Best1Delta{D: 0.2, Relative: true, Side: DomainSide}.Apply(m)
	// a: keep >= 0.72 -> x,y; b: keep >= 0.56 -> x,y; c: z.
	wantMapping(t, got, []Correspondence{
		{"a", "x", 0.9}, {"a", "y", 0.85}, {"b", "x", 0.7}, {"b", "y", 0.6}, {"c", "z", 0.5},
	})
}

func TestBest1DeltaBothSides(t *testing.T) {
	m := selectFixture()
	got := Best1Delta{D: 0.05, Side: BothSides}.Apply(m)
	// Domain pass keeps a-x,a-y,b-x,c-z; range pass keeps a-x (x best),
	// a-y (y best), c-z. Intersection:
	wantMapping(t, got, []Correspondence{
		{"a", "x", 0.9}, {"a", "y", 0.85}, {"c", "z", 0.5},
	})
}

// TestYearConstraint applies the paper's example object-value constraint
// (§2.2, §3.3): publication years may differ by at most one, and an
// instance without a year passes.
func TestYearConstraint(t *testing.T) {
	dSet := model.NewObjectSet(dblpPub)
	dSet.AddNew("a", map[string]string{"year": "2001"})
	dSet.AddNew("b", map[string]string{"year": "1998"})
	dSet.AddNew("c", nil) // no year
	rSet := model.NewObjectSet(acmPub)
	rSet.AddNew("x", map[string]string{"year": "2002"})
	rSet.AddNew("y", map[string]string{"year": "2002"})
	rSet.AddNew("z", map[string]string{"year": "2002"})

	m := NewSame(dblpPub, acmPub)
	m.Add("a", "x", 0.9) // diff 1: keep
	m.Add("b", "y", 0.9) // diff 4: drop
	m.Add("c", "z", 0.9) // missing year: keep (optional attribute)

	years := Constraint{Name: "|year| diff <= 1", DomainSet: dSet, RangeSet: rSet,
		Pred: func(d, r *model.Instance, _ float64) bool {
			yd, okD := d.IntAttr("year")
			yr, okR := r.IntAttr("year")
			return !okD || !okR || max(yd-yr, yr-yd) <= 1
		}}
	got := years.Apply(m)
	wantMapping(t, got, []Correspondence{
		{"a", "x", 0.9}, {"c", "z", 0.9},
	})
}

func TestConstraintUnresolved(t *testing.T) {
	dSet := model.NewObjectSet(dblpPub)
	dSet.AddNew("a", nil)
	rSet := model.NewObjectSet(acmPub)
	m := NewSame(dblpPub, acmPub)
	m.Add("a", "x", 1) // x not in range set

	drop := Constraint{DomainSet: dSet, RangeSet: rSet,
		Pred: func(_, _ *model.Instance, _ float64) bool { return true }}
	if drop.Apply(m).Len() != 0 {
		t.Error("unresolved instances should drop by default")
	}
	keep := drop
	keep.KeepUnresolved = true
	if keep.Apply(m).Len() != 1 {
		t.Error("KeepUnresolved should keep the pair")
	}
}

func TestNotEqualIDs(t *testing.T) {
	m := NewSame(dblpPub, dblpPub)
	m.Add("a", "a", 1)
	m.Add("a", "b", 0.8)
	got := NotEqualIDs{}.Apply(m)
	wantMapping(t, got, []Correspondence{{"a", "b", 0.8}})
}

func TestSelectionStrings(t *testing.T) {
	cases := []struct {
		sel  Selection
		want string
	}{
		{Threshold{T: 0.8}, "Threshold(0.80)"},
		{BestN{N: 3, Side: RangeSide}, "Best-3(range)"},
		{Best1Delta{D: 0.1, Side: DomainSide}, "Best-1+0.10(abs,domain)"},
		{Best1Delta{D: 0.1, Relative: true, Side: BothSides}, "Best-1+0.10(rel,both)"},
		{NotEqualIDs{}, "[domain.id]<>[range.id]"},
	}
	for _, tc := range cases {
		if got := tc.sel.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
	if (Constraint{Name: "y"}).String() != "Constraint(y)" || (Constraint{}).String() != "Constraint" {
		t.Error("Constraint.String wrong")
	}
	if DomainSide.String() != "domain" || RangeSide.String() != "range" || BothSides.String() != "both" {
		t.Error("Side.String wrong")
	}
}

func TestSelectionSubsetProperty(t *testing.T) {
	// Every selection output is a subset of its input with unchanged sims.
	f := func(p []struct {
		D, R uint8
		S    float64
	}, thr float64, n uint8) bool {
		m := randomSame(p)
		sels := []Selection{
			Threshold{T: clampSim(thr)},
			BestN{N: int(n%4) + 1, Side: DomainSide},
			BestN{N: int(n%4) + 1, Side: RangeSide},
			BestN{N: int(n%4) + 1, Side: BothSides},
			Best1Delta{D: clampSim(thr) / 2, Side: DomainSide},
			Best1Delta{D: clampSim(thr) / 2, Relative: true, Side: RangeSide},
		}
		for _, sel := range sels {
			got := sel.Apply(m)
			if got.Len() > m.Len() {
				return false
			}
			ok := true
			got.Each(func(c Correspondence) {
				s, present := m.Sim(c.Domain, c.Range)
				if !present || s != c.Sim {
					ok = false
				}
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBestNCoversEveryDomainProperty(t *testing.T) {
	// Best-n(domain) retains at least one correspondence per domain object.
	f := func(p []struct {
		D, R uint8
		S    float64
	}) bool {
		m := randomSame(p)
		got := BestN{N: 1, Side: DomainSide}.Apply(m)
		for _, d := range m.DomainIDs() {
			if got.DomainCount(d) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
