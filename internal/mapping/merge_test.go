package mapping

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

// figure4Maps builds the two input mappings of Figure 4.
func figure4Maps() (*Mapping, *Mapping) {
	map1 := NewSame(dblpPub, acmPub)
	map1.Add("a1", "b1", 1)
	map1.Add("a2", "b2", 0.8)

	map2 := NewSame(dblpPub, acmPub)
	map2.Add("a1", "b1", 0.6)
	map2.Add("a1", "b5", 1)
	map2.Add("a3", "b3", 0.9)
	return map1, map2
}

// wantMapping asserts that got contains exactly the given correspondences.
func wantMapping(t *testing.T, got *Mapping, want []Correspondence) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("got %d correspondences %v, want %d", got.Len(), got.Sorted(), len(want))
	}
	for _, w := range want {
		s, ok := got.Sim(w.Domain, w.Range)
		if !ok {
			t.Errorf("missing correspondence (%s,%s)", w.Domain, w.Range)
			continue
		}
		if math.Abs(s-w.Sim) > 1e-9 {
			t.Errorf("sim(%s,%s) = %v, want %v", w.Domain, w.Range, s, w.Sim)
		}
	}
}

func TestFigure4MergeMin0(t *testing.T) {
	map1, map2 := figure4Maps()
	got, err := Merge(Min0Combiner, map1, map2)
	if err != nil {
		t.Fatal(err)
	}
	wantMapping(t, got, []Correspondence{{"a1", "b1", 0.6}})
}

func TestFigure4MergeAvg(t *testing.T) {
	map1, map2 := figure4Maps()
	got, err := Merge(AvgCombiner, map1, map2)
	if err != nil {
		t.Fatal(err)
	}
	wantMapping(t, got, []Correspondence{
		{"a1", "b1", 0.8},
		{"a2", "b2", 0.8},
		{"a1", "b5", 1},
		{"a3", "b3", 0.9},
	})
}

func TestFigure4MergeAvg0(t *testing.T) {
	map1, map2 := figure4Maps()
	got, err := Merge(Avg0Combiner, map1, map2)
	if err != nil {
		t.Fatal(err)
	}
	wantMapping(t, got, []Correspondence{
		{"a1", "b1", 0.8},
		{"a2", "b2", 0.4},
		{"a1", "b5", 0.5},
		{"a3", "b3", 0.45},
	})
}

func TestFigure4MergePreferMap1(t *testing.T) {
	map1, map2 := figure4Maps()
	got, err := Merge(PreferCombiner(0), map1, map2)
	if err != nil {
		t.Fatal(err)
	}
	// All of map1 plus only (a3,b3) from map2: a1 and a2 are covered, so
	// (a1,b1,0.6) and (a1,b5,1) from map2 are excluded.
	wantMapping(t, got, []Correspondence{
		{"a1", "b1", 1},
		{"a2", "b2", 0.8},
		{"a3", "b3", 0.9},
	})
}

func TestMergePreferMap2(t *testing.T) {
	map1, map2 := figure4Maps()
	got, err := Merge(PreferCombiner(1), map1, map2)
	if err != nil {
		t.Fatal(err)
	}
	// All of map2; a1 and a3 covered; a2 uncovered so (a2,b2) joins.
	wantMapping(t, got, []Correspondence{
		{"a1", "b1", 0.6},
		{"a1", "b5", 1},
		{"a3", "b3", 0.9},
		{"a2", "b2", 0.8},
	})
}

func TestMergeMax(t *testing.T) {
	map1, map2 := figure4Maps()
	got, err := Merge(MaxCombiner, map1, map2)
	if err != nil {
		t.Fatal(err)
	}
	wantMapping(t, got, []Correspondence{
		{"a1", "b1", 1},
		{"a2", "b2", 0.8},
		{"a1", "b5", 1},
		{"a3", "b3", 0.9},
	})
}

func TestMergeMinIgnoreMissing(t *testing.T) {
	map1, map2 := figure4Maps()
	got, err := Merge(MinCombiner, map1, map2)
	if err != nil {
		t.Fatal(err)
	}
	// Min over available values only: singletons keep their value.
	wantMapping(t, got, []Correspondence{
		{"a1", "b1", 0.6},
		{"a2", "b2", 0.8},
		{"a1", "b5", 1},
		{"a3", "b3", 0.9},
	})
}

func TestMergeWeighted(t *testing.T) {
	map1, map2 := figure4Maps()
	got, err := Merge(Combiner{Kind: Weighted, Weights: []float64{3, 1}}, map1, map2)
	if err != nil {
		t.Fatal(err)
	}
	// (a1,b1): (3*1 + 1*0.6)/4 = 0.9; singletons renormalize to their value.
	wantMapping(t, got, []Correspondence{
		{"a1", "b1", 0.9},
		{"a2", "b2", 0.8},
		{"a1", "b5", 1},
		{"a3", "b3", 0.9},
	})
}

func TestMergeWeightedMissingAsZero(t *testing.T) {
	map1, map2 := figure4Maps()
	got, err := Merge(Combiner{Kind: Weighted, Weights: []float64{3, 1}, MissingAsZero: true}, map1, map2)
	if err != nil {
		t.Fatal(err)
	}
	// (a2,b2): (3*0.8 + 0)/(3+1) = 0.6; (a1,b5): (0 + 1*1)/4 = 0.25;
	// (a3,b3): (0 + 1*0.9)/4 = 0.225.
	wantMapping(t, got, []Correspondence{
		{"a1", "b1", 0.9},
		{"a2", "b2", 0.6},
		{"a1", "b5", 0.25},
		{"a3", "b3", 0.225},
	})
}

func TestMergeErrors(t *testing.T) {
	if _, err := Merge(AvgCombiner); err == nil {
		t.Error("zero mappings should fail")
	}
	map1, _ := figure4Maps()
	other := NewSame(dblpPub, gsPub)
	if _, err := Merge(AvgCombiner, map1, other); err == nil {
		t.Error("mismatched endpoints should fail")
	}
	asso := New(dblpVen, dblpPub, "VenuePub")
	if _, err := Merge(AvgCombiner, asso); err == nil {
		t.Error("merge of association mapping (different object types) should fail")
	}
	if _, err := Merge(Combiner{Kind: Weighted, Weights: []float64{1}}, map1, map1.Clone()); err == nil {
		t.Error("wrong weight count should fail")
	}
	if _, err := Merge(Combiner{Kind: Weighted, Weights: []float64{-1, 1}}, map1, map1.Clone()); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := Merge(Combiner{Kind: Weighted, Weights: []float64{0, 0}}, map1, map1.Clone()); err == nil {
		t.Error("all-zero weights should fail")
	}
	if _, err := Merge(PreferCombiner(5), map1, map1.Clone()); err == nil {
		t.Error("out-of-range prefer index should fail")
	}
	if _, err := Merge(Combiner{Kind: CombinerKind(99)}, map1); err == nil {
		t.Error("unknown combiner kind should fail")
	}
}

func TestMergeSingleInputIdentity(t *testing.T) {
	map1, _ := figure4Maps()
	for _, f := range []Combiner{AvgCombiner, MinCombiner, MaxCombiner, Avg0Combiner, Min0Combiner} {
		got, err := Merge(f, map1)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if !got.Equal(map1, 1e-12) {
			t.Errorf("Merge(%v, m) != m", f)
		}
	}
}

// randomSame builds a random same-mapping for property tests.
func randomSame(pairs []struct {
	D, R uint8
	S    float64
}) *Mapping {
	m := NewSame(dblpPub, acmPub)
	for _, p := range pairs {
		s := math.Abs(p.S)
		s = s / (1 + s)
		m.Add(model.ID(rune('a'+p.D%12)), model.ID(rune('A'+p.R%12)), s)
	}
	return m
}

func TestMergeCommutativeProperty(t *testing.T) {
	f := func(p1, p2 []struct {
		D, R uint8
		S    float64
	}) bool {
		m1, m2 := randomSame(p1), randomSame(p2)
		for _, comb := range []Combiner{AvgCombiner, MinCombiner, MaxCombiner, Avg0Combiner, Min0Combiner} {
			a, err1 := Merge(comb, m1, m2)
			b, err2 := Merge(comb, m2, m1)
			if err1 != nil || err2 != nil || !a.Equal(b, 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMergeIdempotentProperty(t *testing.T) {
	f := func(p []struct {
		D, R uint8
		S    float64
	}) bool {
		m := randomSame(p)
		for _, comb := range []Combiner{AvgCombiner, MinCombiner, MaxCombiner, Min0Combiner, Avg0Combiner} {
			got, err := Merge(comb, m, m.Clone())
			if err != nil {
				return false
			}
			// Self-merge keeps exactly the positive-sim correspondences.
			want := m.Filter(func(c Correspondence) bool { return c.Sim > 0 })
			if !got.Equal(want, 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMergeRecallPrecisionTradeoffProperty(t *testing.T) {
	// Min-0 output ⊆ Avg output ⊇ each input's positive pairs: the
	// paper's restrictive-vs-permissive merge trade-off.
	f := func(p1, p2 []struct {
		D, R uint8
		S    float64
	}) bool {
		m1, m2 := randomSame(p1), randomSame(p2)
		inter, err1 := Merge(Min0Combiner, m1, m2)
		uni, err2 := Merge(AvgCombiner, m1, m2)
		if err1 != nil || err2 != nil {
			return false
		}
		ok := true
		inter.Each(func(c Correspondence) {
			if !uni.Has(c.Domain, c.Range) {
				ok = false
			}
		})
		m1.Each(func(c Correspondence) {
			if c.Sim > 0 && !uni.Has(c.Domain, c.Range) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCombinerKindString(t *testing.T) {
	names := map[CombinerKind]string{Avg: "Avg", Min: "Min", Max: "Max", Weighted: "Weighted", Prefer: "PreferMap"}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
	if CombinerKind(42).String() == "" {
		t.Error("unknown kind should still render")
	}
}
