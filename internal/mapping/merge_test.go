package mapping

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// TestMergeAboveDriverSets pins the driver rule: inputs join by descending
// weight, then ascending rows, until f with every other input present at
// similarity 1 falls strictly below t; all inputs come back when none can
// be left out.
func TestMergeAboveDriverSets(t *testing.T) {
	sized := func(rows ...int) []*Mapping {
		ms := make([]*Mapping, len(rows))
		for i, n := range rows {
			ms[i] = NewSame(dblpPub, acmPub)
			for r := range n {
				ms[i].Add(model.ID(fmt.Sprintf("a%d", r)), "b", 0.5)
			}
		}
		return ms
	}
	weighted0 := func(w ...float64) Combiner { return Combiner{Kind: Weighted, Weights: w, MissingAsZero: true} }
	table2 := sized(3, 4, 9) // title, author and year, smallest to largest
	all := []int{0, 1, 2}
	for _, c := range []struct {
		name string
		f    Combiner
		t    float64
		maps []*Mapping
		want []int
	}{
		{"Table 2 Weighted-0 3:1:2", weighted0(3, 1, 2), 0.8, table2, []int{0}},
		{"A1 Weighted-0 3:1:1", weighted0(3, 1, 1), 0.8, table2, []int{0}},
		{"A1 Avg-0", Avg0Combiner, 0.55, table2, []int{0, 1}},
		{"A1 Min-0", Min0Combiner, 0.5, table2, []int{0}},
		{"Min-0 takes the smallest input", Min0Combiner, 0.5, sized(9, 4, 3), []int{2}},
		{"Weighted-0 1:1:4 is driven by its last input", weighted0(1, 1, 4), 0.8, table2, []int{2}},
		{"a zero weight is never needed", Combiner{Kind: Weighted, Weights: []float64{3, 0, 2}}, 0.8, table2, []int{0, 2}},
		{"ignore-missing Avg", AvgCombiner, 0.8, table2, all},
		{"Max ignores MissingAsZero", Combiner{Kind: Max, MissingAsZero: true}, 0.8, table2, all},
		{"threshold 0", weighted0(3, 1, 2), 0, table2, all},
		{"negative threshold", Min0Combiner, -1, table2, all},
		{"NaN threshold", Min0Combiner, math.NaN(), table2, all},
		{"above 1 nothing can reach", AvgCombiner, 1.5, table2, []int{}},
	} {
		if got := c.f.drivers(c.t, c.maps); !slices.Equal(got, c.want) {
			t.Errorf("%s at %v: drivers %v, want %v", c.name, c.t, got, c.want)
		}
	}
}

// requireSameRows fails unless got and want hold the same rows in the same
// order with bit-identical similarities.
func requireSameRows(t *testing.T, label string, got, want *Mapping) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", label, got.Len(), want.Len())
	}
	for i := range want.sim {
		if got.dom[i] != want.dom[i] || got.rng[i] != want.rng[i] || math.Float64bits(got.sim[i]) != math.Float64bits(want.sim[i]) {
			t.Fatalf("%s: row %d = %v, want %v", label, i, got.At(i), want.At(i))
		}
	}
}

// mergeAboveThresholds are the thresholds the MergeAbove tests try: 0,
// Table 2's and A1's, ones at and past the ends of [0,1], and NaN.
var mergeAboveThresholds = []float64{0, 0.8, 0.55, 0.5, 0.45, 1, 1.5, -0.5, math.NaN()}

// TestDifferentialMergeAbove holds MergeAbove to its definition, Merge then
// Threshold, at GOMAXPROCS 1, 3 and 8 over inputs large enough that the
// streams fan out, for every combiner kind and both driver plans.
func TestDifferentialMergeAbove(t *testing.T) {
	rnd := rand.New(rand.NewSource(43))
	var ms []*Mapping
	for _, n := range []int{2500, 4000, 9000} {
		ms = append(ms, exactRows(rnd, n, 120, 120).m)
	}
	combiners := []Combiner{
		AvgCombiner, Avg0Combiner, MinCombiner, Min0Combiner, MaxCombiner, PreferCombiner(1),
		{Kind: Weighted, Weights: []float64{3, 1, 2}, MissingAsZero: true},
		{Kind: Weighted, Weights: []float64{1, 1, 4}, MissingAsZero: true},
		{Kind: Weighted, Weights: []float64{3, 0, 2}},
	}
	for _, f := range combiners {
		for _, th := range mergeAboveThresholds {
			merged, err := Merge(f, ms...)
			if err != nil {
				t.Fatal(err)
			}
			want := Threshold{T: th}.Apply(merged)
			for _, p := range parallelWorkerCounts {
				var got *Mapping
				atGOMAXPROCS(p, func() { got, err = MergeAbove(f, th, ms...) })
				if err != nil {
					t.Fatal(err)
				}
				requireSameRows(t, fmt.Sprintf("%s miss0=%v weights=%v t=%v GOMAXPROCS=%d", f.Kind, f.MissingAsZero, f.Weights, th, p), got, want)
			}
		}
	}
}

// mergeFuzzSims are the similarities fuzzed rows take: the ends of [0,1],
// values on Table 2's and A1's thresholds, fractions that round, and NaN,
// which Add stores as 0.
var mergeFuzzSims = []float64{0, 1, 0.8, 0.5, 0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.9, 1.0 / 3, 2.0 / 3, 0.55, 0.45, 0.75, math.NaN()}

// FuzzMergeAboveMatchesMergeThenThreshold holds MergeAbove to
// Threshold{T: t}.Apply(Merge(f, maps...)) at eps 0, insertion order
// included, at GOMAXPROCS 1, 3 and 8. The 1–4 inputs share one dictionary
// and draw from 36 pairs, so rows overlap across inputs; a threshold
// selector past the table's end takes the raw float.
func FuzzMergeAboveMatchesMergeThenThreshold(f *testing.F) {
	rowsOf := func(rows ...[3]byte) []byte {
		var b []byte
		for _, r := range rows {
			b = append(b, r[:]...)
		}
		return b
	}
	// Three inputs over pairs 0, 7 and 14; every similarity 0.8, so the
	// Weighted 3:1:2 sum lands on the 0.8 boundary.
	boundary := rowsOf([3]byte{0, 0, 2}, [3]byte{1, 0, 2}, [3]byte{2, 0, 2}, [3]byte{1, 7, 2}, [3]byte{2, 14, 1}, [3]byte{0, 14, 0})
	// A pair first seen in input 0, then in the driver, input 2.
	lateDriver := rowsOf([3]byte{0, 3, 1}, [3]byte{1, 5, 1}, [3]byte{2, 5, 1}, [3]byte{2, 3, 1}, [3]byte{0, 9, 11})
	f.Add(uint8(3), uint8(Weighted), true, []byte{3, 1, 2}, uint8(1), 0.0, boundary)
	f.Add(uint8(3), uint8(Weighted), true, []byte{1, 1, 4}, uint8(1), 0.0, lateDriver)
	f.Add(uint8(3), uint8(Weighted), false, []byte{3, 0, 2}, uint8(1), 0.0, lateDriver)
	f.Add(uint8(3), uint8(Avg), true, []byte{}, uint8(2), 0.0, boundary)
	f.Add(uint8(3), uint8(Min), true, []byte{}, uint8(3), 0.0, lateDriver)
	f.Add(uint8(3), uint8(Avg), false, []byte{}, uint8(1), 0.0, lateDriver)
	f.Add(uint8(2), uint8(Prefer)+5, false, []byte{}, uint8(1), 0.0, boundary)
	f.Add(uint8(4), uint8(Max), true, []byte{}, uint8(6), 0.0, boundary)
	f.Add(uint8(3), uint8(Weighted), true, []byte{3, 1, 2}, uint8(8), 0.0, boundary)
	f.Add(uint8(3), uint8(Weighted), true, []byte{3, 1, 2}, uint8(7), 0.0, boundary)
	f.Add(uint8(1), uint8(Min), true, []byte{}, uint8(0), 0.0, boundary)
	f.Add(uint8(3), uint8(Avg), true, []byte{}, uint8(len(mergeAboveThresholds)), 0.61, boundary)
	// Both inputs hold one pair with a NaN similarity; Prefer at 0.
	f.Add(uint8(1), uint8(Prefer), false, []byte{}, uint8(0), 0.0, rowsOf([3]byte{0, 0, 16}, [3]byte{1, 0, 16}))
	f.Fuzz(func(t *testing.T, inputs, kind uint8, zero bool, weights []byte, tsel uint8, traw float64, rows []byte) {
		n := 1 + int(inputs%4)
		c := Combiner{Kind: CombinerKind(kind % 5), MissingAsZero: zero, PreferIndex: int(kind/5) % n}
		if c.Kind == Weighted {
			c.Weights = make([]float64, n)
			for i := range c.Weights {
				c.Weights[i] = 1
				if len(weights) > 0 {
					c.Weights[i] = float64(weights[i%len(weights)] % 5)
				}
			}
		}
		th := traw
		if k := int(tsel) % (len(mergeAboveThresholds) + 1); k < len(mergeAboveThresholds) {
			th = mergeAboveThresholds[k]
		}
		ms := make([]*Mapping, n)
		for i := range ms {
			ms[i] = NewSame(dblpPub, acmPub)
		}
		for k := 0; k+2 < len(rows); k += 3 {
			pair := int(rows[k+1]) % 36
			ms[int(rows[k])%n].Add(model.ID(fmt.Sprintf("d%d", pair%6)), model.ID(fmt.Sprintf("r%d", pair/6)), mergeFuzzSims[int(rows[k+2])%len(mergeFuzzSims)])
		}
		label := fmt.Sprintf("%s miss0=%v weights=%v prefer=%d t=%v", c.Kind, c.MissingAsZero, c.Weights, c.PreferIndex, th)
		merged, wantErr := Merge(c, ms...)
		for _, p := range parallelWorkerCounts {
			var got *Mapping
			var err error
			atGOMAXPROCS(p, func() { got, err = MergeAbove(c, th, ms...) })
			if wantErr != nil || err != nil {
				if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("%s: MergeAbove error %v, Merge error %v", label, err, wantErr)
				}
				continue
			}
			requireSameRows(t, fmt.Sprintf("%s GOMAXPROCS=%d", label, p), got, Threshold{T: th}.Apply(merged))
		}
	})
}
