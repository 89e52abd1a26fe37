package mapping

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/model"
)

// parallelWorkerCounts are the worker counts the differential tests pin:
// sequential, an odd count that leaves ragged chunks, and the CI core
// count. The random inputs are sized well above par's chunk floor so the
// counts above 1 really fan out instead of collapsing.
var parallelWorkerCounts = []int{1, 3, 8}

// atGOMAXPROCS runs f at GOMAXPROCS n, the worker count of the operators
// without an explicit one, and restores the previous setting.
func atGOMAXPROCS(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// refPairOf is a Mapping with its reference twin, built by the same ops.
type refPairOf struct {
	m *Mapping
	r *refMapping
}

// newRefPair applies ops to a fresh same-mapping and its reference.
func newRefPair(domain, rng model.LDS, ops []op) refPairOf {
	p := refPairOf{NewSame(domain, rng), newRef(domain, rng, model.SameMappingType)}
	applyOps(p.m, p.r, ops)
	return p
}

// exactRows is newRefPair for random ops applied until the mapping holds
// exactly n rows.
func exactRows(rnd *rand.Rand, n, domCard, rngCard int) refPairOf {
	p := newRefPair(ldsA, ldsB, nil)
	for p.m.Len() < n {
		applyOps(p.m, p.r, randomOps(rnd, 1, domCard, rngCard, "a", "b"))
	}
	return p
}

// TestDifferentialComposeWorkers pins ComposeWorkers to the map-based
// oracle at eps 0 — exact similarities AND insertion order — for every
// worker count. The random workload is large enough (several chunks of
// fan-out-heavy rows) that the join, the path sort, the run folds and the
// gather all run multi-worker; the small ones cover empty and one-row
// inputs and a join in which no middle id of map1 appears in map2.
func TestDifferentialComposeWorkers(t *testing.T) {
	combiners := []Combiner{MinCombiner, MaxCombiner, AvgCombiner, Combiner{Kind: Weighted, Weights: []float64{2, 1}}}
	aggs := []PathAgg{AggAvg, AggMin, AggMax, AggRelativeLeft, AggRelativeRight, AggRelative}
	rnd := rand.New(rand.NewSource(21))
	one := []op{{a: "a1", b: "c1", s: 0.8}}
	inputs := []struct {
		name   string
		m1, m2 refPairOf
	}{
		{"random", newRefPair(ldsA, ldsC, randomOps(rnd, 9000, 700, 500, "a", "c")), newRefPair(ldsC, ldsB, randomOps(rnd, 9000, 500, 700, "c", "b"))},
		{"empty map1", newRefPair(ldsA, ldsC, nil), newRefPair(ldsC, ldsB, randomOps(rnd, 50, 5, 5, "c", "b"))},
		{"empty map2", newRefPair(ldsA, ldsC, randomOps(rnd, 50, 5, 5, "a", "c")), newRefPair(ldsC, ldsB, nil)},
		{"one row each", newRefPair(ldsA, ldsC, one), newRefPair(ldsC, ldsB, []op{{a: "c1", b: "b1", s: 0.6}})},
		{"no shared middle", newRefPair(ldsA, ldsC, randomOps(rnd, 6000, 300, 300, "a", "c")), newRefPair(ldsC, ldsB, randomOps(rnd, 6000, 300, 300, "m", "b"))},
	}
	for _, in := range inputs {
		for _, f := range combiners {
			for _, g := range aggs {
				want, err := refCompose(in.m1.r, in.m2.r, f, g)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range parallelWorkerCounts {
					got, err := ComposeWorkers(in.m1.m, in.m2.m, f, g, w)
					if err != nil {
						t.Fatal(err)
					}
					requireIdentical(t, fmt.Sprintf("%s: compose f=%s g=%s workers=%d", in.name, f.Kind, g, w), got, want)
				}
			}
		}
	}
}

// TestDifferentialMergeWorkers pins MergeWorkers the same way, over random
// inputs, empty and one-row inputs, and merges of 131 071 and 131 073 rows
// in total — either side of the 1<<17 rows where Merge once switched from
// a map fold to a sort fold.
func TestDifferentialMergeWorkers(t *testing.T) {
	combiners := []Combiner{
		AvgCombiner, Avg0Combiner, MinCombiner, Min0Combiner, MaxCombiner,
		Combiner{Kind: Weighted, Weights: []float64{1, 2, 3}}, {Kind: Weighted, Weights: []float64{1, 2, 3}, MissingAsZero: true},
	}
	rnd := rand.New(rand.NewSource(22))
	random := func() refPairOf { return newRefPair(ldsA, ldsB, randomOps(rnd, 4000, 600, 600, "a", "b")) }
	around := func(total int) [3]refPairOf {
		third := total / 3
		return [3]refPairOf{exactRows(rnd, third, 400, 400), exactRows(rnd, third, 400, 400), exactRows(rnd, total-2*third, 400, 400)}
	}
	empty := newRefPair(ldsA, ldsB, nil)
	one := newRefPair(ldsA, ldsB, []op{{a: "a1", b: "b1", s: 0.7}})
	inputs := []struct {
		name string
		maps [3]refPairOf
	}{
		{"random", [3]refPairOf{random(), random(), random()}},
		{"131071 rows", around(1<<17 - 1)},
		{"131073 rows", around(1<<17 + 1)},
		{"empty", [3]refPairOf{empty, empty, empty}},
		{"one row", [3]refPairOf{empty, one, empty}},
	}
	for _, in := range inputs {
		ms := []*Mapping{in.maps[0].m, in.maps[1].m, in.maps[2].m}
		rs := []*refMapping{in.maps[0].r, in.maps[1].r, in.maps[2].r}
		for _, f := range combiners {
			want, err := refMerge(f, rs...)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range parallelWorkerCounts {
				got, err := MergeWorkers(f, w, ms...)
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, fmt.Sprintf("%s: merge f=%s miss0=%v workers=%d", in.name, f.Kind, f.MissingAsZero, w), got, want)
			}
		}
	}
}

// TestDifferentialSelectionWorkers pins the per-group selections,
// including the BothSides intersection, at every worker count (Best-n's
// explicit one, Best-1+Delta's GOMAXPROCS), over random, empty and one-row
// inputs.
func TestDifferentialSelectionWorkers(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	inputs := []struct {
		name string
		in   refPairOf
	}{
		{"random", newRefPair(ldsA, ldsB, randomOps(rnd, 9000, 900, 900, "a", "b"))},
		{"empty", newRefPair(ldsA, ldsB, nil)},
		{"one row", newRefPair(ldsA, ldsB, []op{{a: "a1", b: "b1", s: 0.4}})},
	}
	for _, in := range inputs {
		m, r := in.in.m, in.in.r
		for _, side := range []Side{DomainSide, RangeSide, BothSides} {
			for _, n := range []int{1, 3} {
				want := refBestN(r, n, side)
				for _, w := range parallelWorkerCounts {
					got := BestN{N: n, Side: side, Workers: w}.Apply(m)
					requireIdentical(t, fmt.Sprintf("%s: best-%d(%s) workers=%d", in.name, n, side, w), got, want)
				}
			}
			for _, rel := range []bool{false, true} {
				want := refBest1Delta(r, 0.1, rel, side)
				for _, w := range parallelWorkerCounts {
					var got *Mapping
					atGOMAXPROCS(w, func() { got = Best1Delta{D: 0.1, Relative: rel, Side: side}.Apply(m) })
					requireIdentical(t, fmt.Sprintf("%s: best1delta(rel=%v,%s) GOMAXPROCS=%d", in.name, rel, side, w), got, want)
				}
			}
		}
	}
}

// TestOperatorsLeavePairIndexUnbuilt: Compose, Merge and Best-n group rows
// by sorting, so they never build their inputs' lazy pair index — which
// would otherwise stay resident for as long as the inputs do. A threshold
// merge whose drivers leave inputs out streams those inputs against a
// dense array instead, so it does not build theirs either.
func TestOperatorsLeavePairIndexUnbuilt(t *testing.T) {
	rnd := rand.New(rand.NewSource(28))
	// Bulk-loaded inputs (clones), whose pair index is lazy.
	m1 := newRefPair(ldsA, ldsC, randomOps(rnd, 6000, 500, 400, "a", "c")).m.Clone()
	m2 := newRefPair(ldsC, ldsB, randomOps(rnd, 6000, 400, 500, "c", "b")).m.Clone()
	var merged []*Mapping
	for _, n := range []int{3000, 5000, 9000} {
		merged = append(merged, newRefPair(ldsA, ldsC, randomOps(rnd, n, 500, 400, "a", "c")).m.Clone())
	}
	table2 := Combiner{Kind: Weighted, Weights: []float64{3, 1, 2}, MissingAsZero: true}
	if d := table2.drivers(0.8, merged); len(d) != 1 {
		t.Fatalf("Weighted-0 3:1:2 at 0.8 is driven by %v, want one input", d)
	}
	if _, err := MergeAbove(table2, 0.8, merged...); err != nil {
		t.Fatal(err)
	}
	for i, m := range merged {
		if m.index != nil {
			t.Errorf("threshold merge input %d: the merge built its pair index", i)
		}
	}
	for _, g := range []PathAgg{AggAvg, AggRelativeLeft, AggRelativeRight, AggRelative} {
		if _, err := Compose(m1, m2, MinCombiner, g); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Merge(AvgCombiner, m1, m1.Clone()); err != nil {
		t.Fatal(err)
	}
	for _, side := range []Side{DomainSide, RangeSide, BothSides} {
		BestN{N: 2, Side: side}.Apply(m1)
		Best1Delta{D: 0.1, Side: side}.Apply(m1)
	}
	for _, in := range []struct {
		name string
		m    *Mapping
	}{{"map1", m1}, {"map2", m2}} {
		if in.m.index != nil {
			t.Errorf("%s: an operator built the input's pair index", in.name)
		}
	}
}

// TestOperatorsShareInputsConcurrently runs all three operators over the
// SAME input mappings from many goroutines at once — the serving pattern
// where one immutable mapping feeds concurrent pipelines. Under -race this
// pins that operator reads (including the lazy pair-index build) are safe
// to share.
func TestOperatorsShareInputsConcurrently(t *testing.T) {
	rnd := rand.New(rand.NewSource(25))
	m1 := NewSame(ldsA, ldsC)
	r1 := newRef(ldsA, ldsC, model.SameMappingType)
	applyOps(m1, r1, randomOps(rnd, 6000, 500, 400, "a", "c"))
	m2 := NewSame(ldsC, ldsB)
	r2 := newRef(ldsC, ldsB, model.SameMappingType)
	applyOps(m2, r2, randomOps(rnd, 6000, 400, 500, "c", "b"))

	wantCompose, err := refCompose(r1, r2, MinCombiner, AggRelative)
	if err != nil {
		t.Fatal(err)
	}
	wantMerge, err := refMerge(AvgCombiner, r1, r1)
	if err != nil {
		t.Fatal(err)
	}
	wantSel := refBestN(r1, 2, DomainSide)

	var wg sync.WaitGroup
	errs := make([]error, 12)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := parallelWorkerCounts[g%len(parallelWorkerCounts)]
			switch g % 3 {
			case 0:
				got, err := ComposeWorkers(m1, m2, MinCombiner, AggRelative, w)
				if err != nil {
					errs[g] = err
					return
				}
				errs[g] = diffAgainstRef(got, wantCompose)
			case 1:
				got, err := MergeWorkers(AvgCombiner, w, m1, m1)
				if err != nil {
					errs[g] = err
					return
				}
				errs[g] = diffAgainstRef(got, wantMerge)
			default:
				errs[g] = diffAgainstRef(BestN{N: 2, Side: DomainSide, Workers: w}.Apply(m1), wantSel)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// diffAgainstRef is requireIdentical as an error, usable off the test
// goroutine.
func diffAgainstRef(got *Mapping, want *refMapping) error {
	if got.Domain() != want.domLDS || got.Range() != want.rngLDS || got.Type() != want.mtype {
		return fmt.Errorf("endpoints differ: %s->%s (%s) vs %s->%s (%s)",
			got.Domain(), got.Range(), got.Type(), want.domLDS, want.rngLDS, want.mtype)
	}
	gc := got.Correspondences()
	if len(gc) != len(want.corrs) {
		return fmt.Errorf("%d rows, reference has %d", len(gc), len(want.corrs))
	}
	for i := range gc {
		if gc[i] != want.corrs[i] {
			return fmt.Errorf("row %d = %+v, reference %+v", i, gc[i], want.corrs[i])
		}
	}
	return nil
}

// TestRemoveTouching pins the swap-remove fast path against the Filter
// rewrite it replaces: same surviving correspondence set (order is
// permuted by the swaps), a consistent pair index afterwards, and a
// mapping that keeps accepting writes.
func TestRemoveTouching(t *testing.T) {
	rnd := rand.New(rand.NewSource(26))
	m := NewSame(ldsA, ldsB)
	r := newRef(ldsA, ldsB, model.SameMappingType)
	// Small cardinalities: most ids appear on both sides of several rows,
	// and self-loop rows (a == b ids never collide here, but shared-range
	// rows do) stress the index repair.
	applyOps(m, r, randomOps(rnd, 2000, 40, 40, "x", "x"))

	for _, victim := range []model.ID{"x7", "x23", "x7", "never-present"} {
		want := m.Filter(func(c Correspondence) bool { return c.Domain != victim && c.Range != victim })
		wantGone := m.Len() - want.Len()
		if gone := m.RemoveTouching(victim); gone != wantGone {
			t.Fatalf("RemoveTouching(%s) removed %d rows, Filter dropped %d", victim, gone, wantGone)
		}
		if m.Len() != want.Len() {
			t.Fatalf("after RemoveTouching(%s): %d rows, want %d", victim, m.Len(), want.Len())
		}
		if !m.Equal(want, 0) {
			t.Fatalf("after RemoveTouching(%s): surviving set differs from Filter result", victim)
		}
		if m.Touches(victim) {
			t.Fatalf("after RemoveTouching(%s): Touches still true", victim)
		}
		// The index must agree with the columns row by row.
		for i := 0; i < m.Len(); i++ {
			c := m.At(i)
			if s, ok := m.Sim(c.Domain, c.Range); !ok || s != c.Sim {
				t.Fatalf("after RemoveTouching(%s): index lost row %d (%+v)", victim, i, c)
			}
		}
	}

	// The mapping still accepts writes and keeps them consistent.
	m.Add("x7", "x23", 0.75)
	if s, ok := m.Sim("x7", "x23"); !ok || s != 0.75 {
		t.Fatalf("Add after RemoveTouching lost the row: %v %v", s, ok)
	}
	if got := len(m.ForDomain("x7")); got != 1 {
		t.Fatalf("ForDomain after re-add = %d rows, want 1", got)
	}
}

// swapRemoved is RemoveTouching's row order spelled out on a copy of the
// rows: the touched rows, taken descending, each replaced by the current
// last row.
func swapRemoved(rows []Correspondence, victim model.ID) []Correspondence {
	out := slices.Clone(rows)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i].Domain == victim || out[i].Range == victim {
			out[i] = out[len(out)-1]
			out = out[:len(out)-1]
		}
	}
	return out
}

// FuzzRemoveTouching builds rows over six ids, self-loops included, then
// removes a sequence of victims (a seventh id is never added). After each
// removal the survivors are Filter's rows as a set and swapRemoved's in
// order, the pair index hits every survivor and misses every removed pair,
// and the victim is touched no more; re-adding a removed pair then appends
// a row.
func FuzzRemoveTouching(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 0, 1, 1, 2, 0, 0, 2, 3, 3, 2, 4, 4, 5}, []byte{0, 1, 6, 0, 2})
	f.Add([]byte{5, 5, 5, 4, 4, 5, 3, 5, 5, 3, 1, 2}, []byte{5, 5, 4, 3})
	f.Add([]byte{1, 2, 3, 4, 2, 1, 4, 3, 0, 5}, []byte{2, 0, 1, 4, 3, 5})
	f.Fuzz(func(t *testing.T, rows, victims []byte) {
		dict := model.NewIDDict()
		id := func(b byte) model.ID { return model.ID(fmt.Sprintf("i%d", b%7)) }
		m := NewWithDict(ldsA, ldsA, model.SameMappingType, dict)
		for k := 0; k+1 < len(rows); k += 2 {
			m.Add(id(rows[k]%6), id(rows[k+1]%6), float64(k%5)/4)
		}
		for step, v := range victims {
			victim := id(v)
			before := m.Correspondences()
			want := m.Filter(func(c Correspondence) bool { return c.Domain != victim && c.Range != victim })
			wantRows := swapRemoved(before, victim)
			if gone := m.RemoveTouching(victim); gone != len(before)-want.Len() {
				t.Fatalf("step %d: RemoveTouching(%s) removed %d rows, Filter drops %d", step, victim, gone, len(before)-want.Len())
			}
			if !m.Equal(want, 0) {
				t.Fatalf("step %d: survivors of %s differ from Filter's", step, victim)
			}
			if got := m.Correspondences(); !slices.Equal(got, wantRows) {
				t.Fatalf("step %d: rows after removing %s\n%v\nwant\n%v", step, victim, got, wantRows)
			}
			var removed []Correspondence
			for _, c := range before {
				d, r := dict.Ord(c.Domain), dict.Ord(c.Range)
				s, ok := m.SimOrd(d, r)
				if c.Domain == victim || c.Range == victim {
					removed = append(removed, c)
					if ok {
						t.Fatalf("step %d: removed pair %+v still indexed", step, c)
					}
				} else if !ok || s != c.Sim {
					t.Fatalf("step %d: survivor %+v indexed as %v, %v", step, c, s, ok)
				}
			}
			if m.Touches(victim) {
				t.Fatalf("step %d: Touches(%s) after its removal", step, victim)
			}
			if len(removed) > 0 {
				c := removed[len(removed)/2]
				m.Add(c.Domain, c.Range, 0.5)
				if got := m.Correspondences(); !slices.Equal(got[:len(got)-1], wantRows) || got[len(got)-1] != (Correspondence{c.Domain, c.Range, 0.5}) {
					t.Fatalf("step %d: re-adding %+v gave rows %v, want it appended to %v", step, c, got, wantRows)
				}
			}
		}
	})
}

// TestBulkLoadedMappingBehavesLikeAdded pins that a bulk-loaded mapping
// (lazy pair index) is indistinguishable from one built row by
// row: point lookups, views, and subsequent writes.
func TestBulkLoadedMappingBehavesLikeAdded(t *testing.T) {
	rnd := rand.New(rand.NewSource(27))
	m := NewSame(ldsA, ldsB)
	r := newRef(ldsA, ldsB, model.SameMappingType)
	applyOps(m, r, randomOps(rnd, 3000, 200, 200, "a", "b"))

	// Clone bulk-loads; Inverse and filterRows bulk-load too.
	cp := m.Clone()
	requireIdentical(t, "bulk clone", cp, r)
	for i := 0; i < cp.Len(); i += 17 {
		c := cp.At(i)
		if s, ok := cp.Sim(c.Domain, c.Range); !ok || s != c.Sim {
			t.Fatalf("bulk clone: lazy index lost row %d (%+v)", i, c)
		}
	}
	// Dedup against the lazily built index: re-adding an existing pair
	// must replace, not append.
	c0 := cp.At(0)
	n := cp.Len()
	cp.Add(c0.Domain, c0.Range, 0.123)
	if cp.Len() != n {
		t.Fatalf("Add of existing pair grew bulk-loaded mapping to %d rows (was %d)", cp.Len(), n)
	}
	if s, _ := cp.Sim(c0.Domain, c0.Range); s != 0.123 {
		t.Fatalf("Add of existing pair: sim = %v, want 0.123", s)
	}
	requireIdentical(t, "inverse of inverse", m.Inverse().Inverse(), r)
}
