package mapping

// Map-based reference implementation of the mapping core, kept test-only.
//
// This is the pre-columnar Mapping (string-keyed hash structure plus the
// operators over it) preserved verbatim as a differential oracle: the
// columnar ordinal implementation must produce bit-identical results — eps
// 0, insertion order included — for the same operation sequences. The
// differential tests below drive both forms through randomized and
// hand-picked workloads and compare full correspondence tables.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/model"
)

type refPair struct{ d, r model.ID }

// refMapping is the old map-based Mapping.
type refMapping struct {
	domLDS model.LDS
	rngLDS model.LDS
	mtype  model.MappingType

	corrs    []Correspondence
	index    map[refPair]int
	byDomain map[model.ID][]int
	byRange  map[model.ID][]int
}

func newRef(domain, rng model.LDS, mtype model.MappingType) *refMapping {
	return &refMapping{
		domLDS:   domain,
		rngLDS:   rng,
		mtype:    mtype,
		index:    make(map[refPair]int),
		byDomain: make(map[model.ID][]int),
		byRange:  make(map[model.ID][]int),
	}
}

func (m *refMapping) add(a, b model.ID, s float64) {
	s = clampSim(s)
	key := refPair{a, b}
	if i, ok := m.index[key]; ok {
		m.corrs[i].Sim = s
		return
	}
	i := len(m.corrs)
	m.corrs = append(m.corrs, Correspondence{Domain: a, Range: b, Sim: s})
	m.index[key] = i
	m.byDomain[a] = append(m.byDomain[a], i)
	m.byRange[b] = append(m.byRange[b], i)
}

func (m *refMapping) addMax(a, b model.ID, s float64) {
	s = clampSim(s)
	if i, ok := m.index[refPair{a, b}]; ok {
		if s > m.corrs[i].Sim {
			m.corrs[i].Sim = s
		}
		return
	}
	m.add(a, b, s)
}

func (m *refMapping) domainCount(a model.ID) int { return len(m.byDomain[a]) }
func (m *refMapping) rangeCount(b model.ID) int  { return len(m.byRange[b]) }

func (m *refMapping) inverse() *refMapping {
	inv := newRef(m.rngLDS, m.domLDS, m.mtype)
	for _, c := range m.corrs {
		inv.add(c.Range, c.Domain, c.Sim)
	}
	return inv
}

func (m *refMapping) filter(keep func(Correspondence) bool) *refMapping {
	out := newRef(m.domLDS, m.rngLDS, m.mtype)
	for _, c := range m.corrs {
		if keep(c) {
			out.add(c.Domain, c.Range, c.Sim)
		}
	}
	return out
}

// refCompose is the old struct-based Compose.
func refCompose(map1, map2 *refMapping, f Combiner, g PathAgg) (*refMapping, error) {
	if map1.rngLDS != map2.domLDS {
		return nil, fmt.Errorf("ref: middle sources differ")
	}
	outType := map1.mtype
	if !(map1.mtype == model.SameMappingType && map2.mtype == model.SameMappingType) {
		outType = map1.mtype + "." + map2.mtype
	}
	out := newRef(map1.domLDS, map2.rngLDS, outType)
	type agg struct {
		sum, min, max float64
		paths         int
	}
	accum := make(map[refPair]*agg)
	var order []refPair
	for _, c1 := range map1.corrs {
		for _, i2 := range map2.byDomain[c1.Range] {
			c2 := map2.corrs[i2]
			ps := pathCombine(f, c1.Sim, c2.Sim)
			key := refPair{c1.Domain, c2.Range}
			a, ok := accum[key]
			if !ok {
				a = &agg{min: ps, max: ps}
				accum[key] = a
				order = append(order, key)
			} else {
				if ps < a.min {
					a.min = ps
				}
				if ps > a.max {
					a.max = ps
				}
			}
			a.sum += ps
			a.paths++
		}
	}
	for _, key := range order {
		a := accum[key]
		var s float64
		switch g {
		case AggAvg:
			s = a.sum / float64(a.paths)
		case AggMin:
			s = a.min
		case AggMax:
			s = a.max
		case AggRelativeLeft:
			s = a.sum / float64(map1.domainCount(key.d))
		case AggRelativeRight:
			s = a.sum / float64(map2.rangeCount(key.r))
		case AggRelative:
			s = 2 * a.sum / float64(map1.domainCount(key.d)+map2.rangeCount(key.r))
		default:
			return nil, fmt.Errorf("ref: unknown path aggregation %d", int(g))
		}
		if s > 0 {
			out.add(key.d, key.r, s)
		}
	}
	return out, nil
}

// refMerge is the old struct-based Merge (validation elided: the tests only
// feed valid inputs).
func refMerge(f Combiner, maps ...*refMapping) (*refMapping, error) {
	first := maps[0]
	if err := f.Validate(len(maps)); err != nil {
		return nil, err
	}
	out := newRef(first.domLDS, first.rngLDS, first.mtype)
	if f.Kind == Prefer {
		pref := maps[f.PreferIndex]
		covered := make(map[model.ID]bool, len(pref.corrs))
		for _, c := range pref.corrs {
			out.add(c.Domain, c.Range, c.Sim)
			covered[c.Domain] = true
		}
		for i, m := range maps {
			if i == f.PreferIndex {
				continue
			}
			for _, c := range m.corrs {
				if !covered[c.Domain] {
					out.addMax(c.Domain, c.Range, c.Sim)
				}
			}
		}
		return out, nil
	}
	type slot struct {
		sims    []float64
		present []bool
	}
	acc := make(map[refPair]*slot)
	var order []refPair
	for i, m := range maps {
		for _, c := range m.corrs {
			key := refPair{c.Domain, c.Range}
			s, ok := acc[key]
			if !ok {
				s = &slot{sims: make([]float64, len(maps)), present: make([]bool, len(maps))}
				acc[key] = s
				order = append(order, key)
			}
			s.sims[i] = c.Sim
			s.present[i] = true
		}
	}
	for _, key := range order {
		s := acc[key]
		v, keep := f.combine(s.sims, s.present)
		if keep && v > 0 {
			out.add(key.d, key.r, v)
		}
	}
	return out, nil
}

// refSelectPerGroup is the old struct-based selection grouping.
func refSelectPerGroup(m *refMapping, byDomain bool, cut func([]Correspondence) []Correspondence) *refMapping {
	groups := make(map[model.ID][]Correspondence)
	var order []model.ID
	for _, c := range m.corrs {
		key := c.Domain
		if !byDomain {
			key = c.Range
		}
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], c)
	}
	out := newRef(m.domLDS, m.rngLDS, m.mtype)
	for _, key := range order {
		cs := groups[key]
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].Sim != cs[j].Sim {
				return cs[i].Sim > cs[j].Sim
			}
			if byDomain {
				return cs[i].Range < cs[j].Range
			}
			return cs[i].Domain < cs[j].Domain
		})
		for _, c := range cut(cs) {
			out.add(c.Domain, c.Range, c.Sim)
		}
	}
	return out
}

func refBestN(m *refMapping, n int, side Side) *refMapping {
	cut := func(cs []Correspondence) []Correspondence {
		if len(cs) > n {
			return cs[:n]
		}
		return cs
	}
	switch side {
	case DomainSide:
		return refSelectPerGroup(m, true, cut)
	case RangeSide:
		return refSelectPerGroup(m, false, cut)
	default: // BothSides
		dom := refBestN(m, n, DomainSide)
		rng := refBestN(m, n, RangeSide)
		return dom.filter(func(c Correspondence) bool {
			_, ok := rng.index[refPair{c.Domain, c.Range}]
			return ok
		})
	}
}

func refBest1Delta(m *refMapping, d float64, rel bool, side Side) *refMapping {
	cut := func(cs []Correspondence) []Correspondence {
		if len(cs) == 0 {
			return cs
		}
		best := cs[0].Sim
		limit := best - d
		if rel {
			limit = best * (1 - d)
		}
		keep := cs[:0:0]
		for _, c := range cs {
			if c.Sim >= limit {
				keep = append(keep, c)
			}
		}
		return keep
	}
	switch side {
	case DomainSide:
		return refSelectPerGroup(m, true, cut)
	case RangeSide:
		return refSelectPerGroup(m, false, cut)
	default:
		dom := refBest1Delta(m, d, rel, DomainSide)
		rng := refBest1Delta(m, d, rel, RangeSide)
		return dom.filter(func(c Correspondence) bool {
			_, ok := rng.index[refPair{c.Domain, c.Range}]
			return ok
		})
	}
}

// --- differential harness ------------------------------------------------

// op is one Add or AddMax applied to both forms.
type op struct {
	max  bool
	a, b model.ID
	s    float64
}

func applyOps(m *Mapping, r *refMapping, ops []op) {
	for _, o := range ops {
		if o.max {
			m.AddMax(o.a, o.b, o.s)
			r.addMax(o.a, o.b, o.s)
		} else {
			m.Add(o.a, o.b, o.s)
			r.add(o.a, o.b, o.s)
		}
	}
}

// requireIdentical fails unless the columnar mapping's table is
// bit-identical to the reference — same rows, same similarities (exact
// float equality), same insertion order, same endpoints.
func requireIdentical(t *testing.T, label string, got *Mapping, want *refMapping) {
	t.Helper()
	if got.Domain() != want.domLDS || got.Range() != want.rngLDS || got.Type() != want.mtype {
		t.Fatalf("%s: endpoints differ: %s->%s (%s) vs %s->%s (%s)",
			label, got.Domain(), got.Range(), got.Type(), want.domLDS, want.rngLDS, want.mtype)
	}
	gc := got.Correspondences()
	if len(gc) != len(want.corrs) {
		t.Fatalf("%s: %d rows, reference has %d", label, len(gc), len(want.corrs))
	}
	for i := range gc {
		if gc[i] != want.corrs[i] {
			t.Fatalf("%s: row %d = %+v, reference %+v", label, i, gc[i], want.corrs[i])
		}
	}
}

// randomOps generates a deterministic random workload with controlled
// duplicate pressure.
func randomOps(rnd *rand.Rand, n, domCard, rngCard int, domPrefix, rngPrefix string) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{
			max: rnd.Intn(2) == 0,
			a:   model.ID(fmt.Sprintf("%s%d", domPrefix, rnd.Intn(domCard))),
			b:   model.ID(fmt.Sprintf("%s%d", rngPrefix, rnd.Intn(rngCard))),
			s:   float64(rnd.Intn(1000)) / 999,
		}
	}
	return ops
}

var (
	ldsA = model.LDS{Source: "A", Type: model.Publication}
	ldsB = model.LDS{Source: "B", Type: model.Publication}
	ldsC = model.LDS{Source: "C", Type: model.Publication}
)

func TestDifferentialBuildAndViews(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	m := NewSame(ldsA, ldsB)
	r := newRef(ldsA, ldsB, model.SameMappingType)
	applyOps(m, r, randomOps(rnd, 500, 40, 40, "a", "b"))
	requireIdentical(t, "build", m, r)

	// Point lookups and per-object views.
	inv := m.Inverse()
	for i := 0; i < 40; i++ {
		a := model.ID(fmt.Sprintf("a%d", i))
		b := model.ID(fmt.Sprintf("b%d", i))
		if got, want := len(inv.ForDomain(b)), r.rangeCount(b); got != want {
			t.Fatalf("range object %s has %d rows, reference %d", b, got, want)
		}
		var want []Correspondence
		for _, i := range r.byDomain[a] {
			want = append(want, r.corrs[i])
		}
		got := m.ForDomain(a)
		if len(got) != len(want) {
			t.Fatalf("ForDomain(%s) = %d rows, reference %d", a, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("ForDomain(%s)[%d] = %+v, reference %+v", a, j, got[j], want[j])
			}
		}
	}

	// Inverse.
	requireIdentical(t, "inverse", m.Inverse(), r.inverse())
	// Filter.
	keep := func(c Correspondence) bool { return c.Sim >= 0.5 }
	requireIdentical(t, "filter", m.Filter(keep), r.filter(keep))
}

func TestDifferentialCompose(t *testing.T) {
	combiners := []Combiner{MinCombiner, MaxCombiner, AvgCombiner, Combiner{Kind: Weighted, Weights: []float64{2, 1}}, PreferCombiner(1)}
	aggs := []PathAgg{AggAvg, AggMin, AggMax, AggRelativeLeft, AggRelativeRight, AggRelative}
	rnd := rand.New(rand.NewSource(2))
	for trial := 0; trial < 3; trial++ {
		m1 := NewSame(ldsA, ldsC)
		r1 := newRef(ldsA, ldsC, model.SameMappingType)
		applyOps(m1, r1, randomOps(rnd, 400, 30, 25, "a", "c"))
		m2 := NewSame(ldsC, ldsB)
		r2 := newRef(ldsC, ldsB, model.SameMappingType)
		applyOps(m2, r2, randomOps(rnd, 400, 25, 30, "c", "b"))
		for _, f := range combiners {
			for _, g := range aggs {
				got, err := Compose(m1, m2, f, g)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refCompose(r1, r2, f, g)
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, fmt.Sprintf("compose f=%s g=%s", f.Kind, g), got, want)
			}
		}
	}
}

func TestDifferentialMerge(t *testing.T) {
	combiners := []Combiner{
		AvgCombiner, Avg0Combiner, MinCombiner, Min0Combiner, MaxCombiner,
		Combiner{Kind: Weighted, Weights: []float64{1, 2, 3}}, {Kind: Weighted, Weights: []float64{1, 2, 3}, MissingAsZero: true},
		PreferCombiner(0), PreferCombiner(2),
	}
	rnd := rand.New(rand.NewSource(3))
	for trial := 0; trial < 3; trial++ {
		var ms []*Mapping
		var rs []*refMapping
		for k := 0; k < 3; k++ {
			m := NewSame(ldsA, ldsB)
			r := newRef(ldsA, ldsB, model.SameMappingType)
			applyOps(m, r, randomOps(rnd, 300, 30, 30, "a", "b"))
			ms = append(ms, m)
			rs = append(rs, r)
		}
		for _, f := range combiners {
			got, err := Merge(f, ms...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refMerge(f, rs...)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, fmt.Sprintf("merge f=%s miss0=%v", f.Kind, f.MissingAsZero), got, want)
		}
	}
}

func TestDifferentialSelection(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	m := NewSame(ldsA, ldsB)
	r := newRef(ldsA, ldsB, model.SameMappingType)
	applyOps(m, r, randomOps(rnd, 800, 50, 50, "a", "b"))
	sides := []Side{DomainSide, RangeSide, BothSides}
	for _, side := range sides {
		for _, n := range []int{1, 2, 5} {
			got := BestN{N: n, Side: side}.Apply(m)
			want := refBestN(r, n, side)
			requireIdentical(t, fmt.Sprintf("best-%d(%s)", n, side), got, want)
		}
		for _, rel := range []bool{false, true} {
			got := Best1Delta{D: 0.1, Relative: rel, Side: side}.Apply(m)
			want := refBest1Delta(r, 0.1, rel, side)
			requireIdentical(t, fmt.Sprintf("best1delta(rel=%v,%s)", rel, side), got, want)
		}
	}
	// Threshold is a plain filter; pin it too.
	got := Threshold{T: 0.6}.Apply(m)
	want := r.filter(func(c Correspondence) bool { return c.Sim >= 0.6 })
	requireIdentical(t, "threshold", got, want)
}

func TestDifferentialComposeChainAndSorted(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	m1, r1 := NewSame(ldsA, ldsC), newRef(ldsA, ldsC, model.SameMappingType)
	applyOps(m1, r1, randomOps(rnd, 200, 20, 15, "a", "c"))
	m2, r2 := NewSame(ldsC, ldsB), newRef(ldsC, ldsB, model.SameMappingType)
	applyOps(m2, r2, randomOps(rnd, 200, 15, 20, "c", "b"))
	m3, r3 := NewSame(ldsB, ldsA), newRef(ldsB, ldsA, model.SameMappingType)
	applyOps(m3, r3, randomOps(rnd, 200, 20, 20, "b", "a"))

	got, err := ComposeChain(MinCombiner, AggRelative, m1, m2, m3)
	if err != nil {
		t.Fatal(err)
	}
	w12, err := refCompose(r1, r2, MinCombiner, AggRelative)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refCompose(w12, r3, MinCombiner, AggRelative)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "compose-chain", got, want)

	// Sorted must order by ID strings, not ordinals.
	sortedGot := got.Sorted()
	sortedWant := append([]Correspondence(nil), want.corrs...)
	sort.Slice(sortedWant, func(i, j int) bool {
		if sortedWant[i].Domain != sortedWant[j].Domain {
			return sortedWant[i].Domain < sortedWant[j].Domain
		}
		if sortedWant[i].Sim != sortedWant[j].Sim {
			return sortedWant[i].Sim > sortedWant[j].Sim
		}
		return sortedWant[i].Range < sortedWant[j].Range
	})
	for i := range sortedGot {
		if sortedGot[i] != sortedWant[i] {
			t.Fatalf("Sorted[%d] = %+v, reference %+v", i, sortedGot[i], sortedWant[i])
		}
	}
}
