package mapping

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/par"
)

// CombinerKind enumerates the similarity combination functions of §3.1.
type CombinerKind int

// Combination functions for merge (and for the per-path function f of
// compose).
const (
	Avg CombinerKind = iota
	Min
	Max
	Weighted
	Prefer
)

// String names the combiner kind as in the paper.
func (k CombinerKind) String() string {
	switch k {
	case Avg:
		return "Avg"
	case Min:
		return "Min"
	case Max:
		return "Max"
	case Weighted:
		return "Weighted"
	case Prefer:
		return "PreferMap"
	default:
		return fmt.Sprintf("CombinerKind(%d)", int(k))
	}
}

// Combiner configures the similarity combination function f of the merge
// and compose operators.
//
// MissingAsZero selects between the two treatments of correspondences
// missing from some input mappings (§3.1): the default (false) ignores
// missing values and combines only the available similarities, which lets
// incomplete mappings contribute matches without dragging scores down; true
// assumes similarity 0 for missing correspondences, improving precision.
// With kind Min and MissingAsZero the merge has intersection semantics
// (Min-0 in Figure 4).
type Combiner struct {
	Kind          CombinerKind
	MissingAsZero bool
	// Weights applies to Weighted; one weight per input mapping. Missing or
	// extra weights are an error at merge time.
	Weights []float64
	// PreferIndex selects the preferred input mapping for Prefer.
	PreferIndex int
}

// Common combiner shorthands matching the paper's notation.
var (
	AvgCombiner  = Combiner{Kind: Avg}
	Avg0Combiner = Combiner{Kind: Avg, MissingAsZero: true}
	MinCombiner  = Combiner{Kind: Min}
	Min0Combiner = Combiner{Kind: Min, MissingAsZero: true}
	MaxCombiner  = Combiner{Kind: Max}
)

// PreferCombiner returns the PreferMap_i combiner.
func PreferCombiner(i int) Combiner { return Combiner{Kind: Prefer, PreferIndex: i} }

// combine folds the similarity values of one (a,b) pair across n input
// mappings. present[i] reports whether input i contained the pair; sims[i]
// is meaningful only when present[i]. It returns the combined similarity
// and whether the correspondence should appear in the output at all.
func (c Combiner) combine(sims []float64, present []bool) (float64, bool) {
	n := len(sims)
	switch c.Kind {
	case Max:
		best, any := 0.0, false
		for i := 0; i < n; i++ {
			if present[i] {
				if !any || sims[i] > best {
					best = sims[i]
				}
				any = true
			}
		}
		return best, any
	case Min:
		if c.MissingAsZero {
			// Intersection semantics: any missing input kills the pair.
			low, first := 0.0, true
			for i := 0; i < n; i++ {
				if !present[i] {
					return 0, false
				}
				if first || sims[i] < low {
					low = sims[i]
					first = false
				}
			}
			return low, !first
		}
		low, any := 0.0, false
		for i := 0; i < n; i++ {
			if present[i] {
				if !any || sims[i] < low {
					low = sims[i]
				}
				any = true
			}
		}
		return low, any
	case Avg:
		var sum float64
		cnt := 0
		for i := 0; i < n; i++ {
			if present[i] {
				sum += sims[i]
				cnt++
			}
		}
		if cnt == 0 {
			return 0, false
		}
		if c.MissingAsZero {
			return sum / float64(n), true
		}
		return sum / float64(cnt), true
	case Weighted:
		var sum, wsum float64
		for i := 0; i < n; i++ {
			w := c.Weights[i]
			if present[i] {
				sum += w * sims[i]
				wsum += w
			} else if c.MissingAsZero {
				wsum += w
			}
		}
		if wsum == 0 {
			return 0, false
		}
		return sum / wsum, true
	default:
		return 0, false
	}
}

// Validate checks the combiner's configuration against the number of
// mappings a merge combines with it.
func (c Combiner) Validate(n int) error {
	switch c.Kind {
	case Weighted:
		if len(c.Weights) != n {
			return fmt.Errorf("mapping: Weighted combiner has %d weights for %d mappings", len(c.Weights), n)
		}
		var pos bool
		for _, w := range c.Weights {
			if w < 0 {
				return fmt.Errorf("mapping: negative weight %v", w)
			}
			if w > 0 {
				pos = true
			}
		}
		if !pos {
			return fmt.Errorf("mapping: Weighted combiner needs at least one positive weight")
		}
	case Prefer:
		if c.PreferIndex < 0 || c.PreferIndex >= n {
			return fmt.Errorf("mapping: PreferIndex %d out of range for %d mappings", c.PreferIndex, n)
		}
	case Avg, Min, Max:
	default:
		return fmt.Errorf("mapping: unknown combiner kind %d", int(c.Kind))
	}
	return nil
}

// Merge implements the n-ary merge operator of §3.1: it unifies the
// correspondences of n mappings between the same pair of logical sources
// under the combination function f. Output correspondences whose combined
// similarity is 0 are dropped (as in Figure 4, where Min-0 keeps only pairs
// present in every input).
//
// The PreferMap function is handled per domain instance as described in the
// paper: the preferred mapping contributes all of its correspondences, and
// the other mappings contribute only correspondences for domain objects the
// preferred mapping does not cover.
//
// The inputs must share an ID dictionary, as every mapping the program
// builds does (see the package comment); inputs over different ones are an
// error.
//
// Merge is MergeAbove at threshold 0, which reads every row of every
// input; a merge followed by a threshold selection is MergeAbove at that
// threshold, which reads only the rows of the inputs a row must appear in
// to reach it (the driver set, see MergeAbove). Merge runs on GOMAXPROCS
// workers; MergeWorkers pins the count. The output is bit-identical at
// every worker count (see the parallel-operator section of the root
// doc.go).
func Merge(f Combiner, maps ...*Mapping) (*Mapping, error) {
	return merge(f, 0, 0, maps)
}

// MergeWorkers is Merge with an explicit worker count (<= 0 means
// GOMAXPROCS). The explicit count exists for the benchmark's operator
// workload, which measures Merge at pinned widths; every other caller runs
// Merge.
func MergeWorkers(f Combiner, workers int, maps ...*Mapping) (*Mapping, error) {
	return merge(f, 0, workers, maps)
}

// MergeAbove is Threshold{T: t}.Apply(Merge(f, maps...)), bit for bit and
// in Merge's order for similarities in [0,1]: a merge step followed by its
// threshold selection (§2.2), with the threshold applied inside the merge.
//
// From f and t it derives the driver set: the inputs every row at or above
// t appears in at least one of. A row missing from all drivers scores at
// most f combining every other input present at similarity 1, since each
// combiner is monotone in every present similarity and an input present at
// 1 never scores below a missing one; IEEE rounding is monotone too, so
// the bound is exact, and inputs are left out only while it is strictly
// below t. Table 2's Weighted-0 3:1:2 at 0.8 is driven by its first input
// alone (bound 0.5), Avg-0 over three inputs at 0.55 by two of them, Min-0
// by any one. When no input can be left out — the ignore-missing kinds, a
// row of any one input can score 1; PreferMap; t <= 0 or NaN — the fold
// is Merge's, keeping only similarities >= t. Otherwise only the drivers'
// rows are candidates, and each input is streamed once against them.
func MergeAbove(f Combiner, t float64, maps ...*Mapping) (*Mapping, error) {
	return merge(f, t, 0, maps)
}

// merge is the merge fold at threshold t and the given worker count.
func merge(f Combiner, t float64, workers int, maps []*Mapping) (out *Mapping, err error) {
	defer func(start time.Time) {
		rows := -1
		if err == nil {
			rows = out.Len()
		}
		observeOp("merge", par.Workers(workers), start, rows)
	}(time.Now())
	if len(maps) == 0 {
		return nil, fmt.Errorf("mapping: Merge needs at least one input mapping")
	}
	first := maps[0]
	for _, m := range maps[1:] {
		if m.Domain() != first.Domain() || m.Range() != first.Range() {
			return nil, fmt.Errorf("mapping: Merge inputs must connect the same sources, got %s->%s and %s->%s",
				first.Domain(), first.Range(), m.Domain(), m.Range())
		}
		if m.dict != first.dict {
			return nil, fmt.Errorf("mapping: Merge: %w", errMixedDicts)
		}
	}
	if !first.Domain().SameType(first.Range()) {
		return nil, fmt.Errorf("mapping: Merge requires mappings between sources of the same object type, got %s->%s",
			first.Domain(), first.Range())
	}
	if err := f.Validate(len(maps)); err != nil {
		return nil, err
	}

	if f.Kind == Prefer {
		out = NewWithDict(first.Domain(), first.Range(), first.Type(), first.dict)
		pref := maps[f.PreferIndex]
		covered := make(map[uint32]bool, pref.Len())
		for r, s := range pref.sim {
			out.AddOrd(pref.dom[r], pref.rng[r], s)
			covered[pref.dom[r]] = true
		}
		for i, m := range maps {
			if i == f.PreferIndex {
				continue
			}
			for r, s := range m.sim {
				if !covered[m.dom[r]] {
					out.AddMaxOrd(m.dom[r], m.rng[r], s)
				}
			}
		}
		if t != 0 {
			out = Threshold{T: t}.Apply(out)
		}
		return out, nil
	}

	base := make([]int, len(maps)+1) // input i's rows are records base[i] to base[i+1]
	for i, m := range maps {
		base[i+1] = base[i] + m.Len()
	}
	var dom, rng []uint32
	var sim []float64
	if drivers := f.drivers(t, maps); len(drivers) < len(maps) {
		dom, rng, sim = mergeDriven(f, t, drivers, workers, maps, base)
	} else {
		dom, rng, sim = mergeSorted(f, t, workers, maps, base)
	}
	return newFromColumns(first.Domain(), first.Range(), first.Type(), first.dict, dom, rng, sim), nil
}

// drivers returns the driver set of a merge under c at threshold t (see
// MergeAbove) in input order, all inputs when none can be left out. Inputs
// join it by descending weight (Weighted; equal for the other kinds), then
// ascending rows, then input order, until the bound falls below t: the
// fewest inputs that bring it below t, the smaller of equally weighted
// ones.
func (c Combiner) drivers(t float64, maps []*Mapping) []int {
	n := len(maps)
	weight := func(i int) float64 {
		if c.Kind == Weighted {
			return c.Weights[i]
		}
		return 1
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(i, j int) int {
		if w := cmp.Compare(weight(j), weight(i)); w != 0 {
			return w
		}
		return cmp.Compare(maps[i].Len(), maps[j].Len())
	})
	sims, present := make([]float64, n), make([]bool, n)
	for i := range sims {
		sims[i], present[i] = 1, true
	}
	drivers := make([]int, 0, n)
	for _, i := range order {
		// The bound is 0 when Merge would drop such a row whatever its
		// similarities.
		bound := 0.0
		if v, keep := c.combine(sims, present); keep && v > 0 {
			bound = v
		}
		if bound < t {
			break
		}
		present[i] = false
		drivers = append(drivers, i)
	}
	slices.Sort(drivers)
	return drivers
}

// inputOf returns the input that record q of a merge belongs to.
func inputOf(base []int, q int) int {
	i := 0
	for q >= base[i+1] {
		i++
	}
	return i
}

// mergeSorted is the fold over every input row. The rows are numbered in
// input order and radix-sorted by packed pair key; the sort is stable, so
// each run of equal keys lists the pair's similarities in input order, at
// most one per input, and its first record is the pair's first sighting.
// Every run folds on one worker into the per-input similarity vector the
// combiner takes, and the pairs at or above t are gathered in the order of
// their first records.
func mergeSorted(f Combiner, t float64, workers int, maps []*Mapping, base []int) (dom, rng []uint32, sim []float64) {
	n := len(maps)
	bufs := sortBufs{workers: workers}
	recs := bufs.get(base[n])
	for i, m := range maps {
		dom, rng, b := m.dom, m.rng, base[i]
		par.Split(len(dom), workers).Run(func(_, lo, hi int) {
			for r := lo; r < hi; r++ {
				recs[b+r] = par.KeyRow{Key: ordKey(dom[r], rng[r]), Row: uint32(b + r)}
			}
		})
	}
	sorted := bufs.sort(recs)

	// kept[q] is the merged similarity of the pair whose first record is q,
	// and 0 on every other record and for every dropped pair.
	kept := make([]float64, base[n])
	eachRun(sorted, workers, func() func(lo, hi int) {
		sims, present := make([]float64, n), make([]bool, n)
		return func(lo, hi int) {
			for _, r := range sorted[lo:hi] {
				i := inputOf(base, int(r.Row))
				sims[i], present[i] = maps[i].sim[int(r.Row)-base[i]], true
			}
			if v, keep := f.combine(sims, present); keep && v > 0 {
				if v = clampSim(v); v >= t {
					kept[sorted[lo].Row] = v
				}
			}
			clear(present)
		}
	})
	return gatherColumns(base[n], workers, func(lo, hi int) int {
		c := 0
		for _, v := range kept[lo:hi] {
			if v > 0 {
				c++
			}
		}
		return c
	}, func(lo, hi int, dom, rng []uint32, sim []float64) {
		k := 0
		for q := lo; q < hi; q++ {
			if kept[q] > 0 {
				i := inputOf(base, q)
				dom[k], rng[k], sim[k] = maps[i].dom[q-base[i]], maps[i].rng[q-base[i]], kept[q]
				k++
			}
		}
	})
}

// mergeDriven is the fold over the drivers' rows. They are indexed by
// domain ordinal in a dense array bounded by the largest one: ordinal d's
// range ordinals are ranges[off[d]:off[d+1]], sorted, with a pair two
// drivers hold listed twice. Each input is then streamed once; a row whose
// pair is a candidate records itself at the pair's first position in
// ranges, and no pair index or posting list is built. A candidate's first
// sighting is its record in the earliest input that holds it, so sorting
// the kept pairs by that record restores Merge's order.
func mergeDriven(f Combiner, t float64, drivers []int, workers int, maps []*Mapping, base []int) (dom, rng []uint32, sim []float64) {
	n := len(maps)
	var maxDom uint32
	for _, i := range drivers {
		for _, d := range maps[i].dom {
			maxDom = max(maxDom, d)
		}
	}
	off := make([]uint32, maxDom+2)
	for _, i := range drivers {
		for _, d := range maps[i].dom {
			off[d+1]++
		}
	}
	for d := 1; d < len(off); d++ {
		off[d] += off[d-1]
	}
	ranges := make([]uint32, off[maxDom+1])
	next := slices.Clone(off[:maxDom+1])
	for _, i := range drivers {
		m := maps[i]
		for r, d := range m.dom {
			ranges[next[d]] = m.rng[r]
			next[d]++
		}
	}
	for d := range next {
		if off[d+1]-off[d] > 1 {
			slices.Sort(ranges[off[d]:off[d+1]])
		}
	}

	// at[p*n+i] is 1 + the row of input i holding candidate p's pair, and 0
	// where input i lacks it or p repeats an earlier position's pair. An
	// input holds a pair once, so its rows write distinct slots.
	at := make([]uint32, len(ranges)*n)
	for i, m := range maps {
		par.Split(len(m.dom), workers).Run(func(_, lo, hi int) {
			for r := lo; r < hi; r++ {
				d := m.dom[r]
				if d > maxDom {
					continue
				}
				if k, ok := slices.BinarySearch(ranges[off[d]:off[d+1]], m.rng[r]); ok {
					at[(int(off[d])+k)*n+i] = uint32(r + 1)
				}
			}
		})
	}

	type hit struct {
		q int // the pair's first record
		v float64
	}
	var kept []hit
	sims, present := make([]float64, n), make([]bool, n)
	for p := range ranges {
		q := -1
		for i, a := range at[p*n : (p+1)*n] {
			if present[i] = a > 0; present[i] {
				sims[i] = maps[i].sim[a-1]
				if q < 0 {
					q = base[i] + int(a-1)
				}
			}
		}
		if q < 0 {
			continue
		}
		if v, keep := f.combine(sims, present); keep && v > 0 {
			if v = clampSim(v); v >= t {
				kept = append(kept, hit{q, v})
			}
		}
	}
	slices.SortFunc(kept, func(a, b hit) int { return cmp.Compare(a.q, b.q) })
	dom, rng, sim = make([]uint32, len(kept)), make([]uint32, len(kept)), make([]float64, len(kept))
	for k, h := range kept {
		i := inputOf(base, h.q)
		dom[k], rng[k], sim[k] = maps[i].dom[h.q-base[i]], maps[i].rng[h.q-base[i]], h.v
	}
	return dom, rng, sim
}
