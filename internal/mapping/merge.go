package mapping

import (
	"fmt"
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
// Merge runs on GOMAXPROCS workers; MergeWorkers pins the count. The
// output is bit-identical at every worker count (see the parallel-operator
// section of the root doc.go).
func Merge(f Combiner, maps ...*Mapping) (*Mapping, error) {
	return MergeWorkers(f, 0, maps...)
}

// MergeWorkers is Merge with an explicit worker count (<= 0 means
// GOMAXPROCS). The inputs' rows are numbered in input order and radix-sorted
// by packed pair key; the sort is stable, so each run of equal keys lists
// the pair's similarities in input order, at most one per input, and its
// first record is the pair's first sighting. Every run folds on one worker
// into the per-input similarity vector the combiner takes, and the
// surviving pairs are gathered in the order of their first records. The
// explicit count exists for the benchmark's operator workload, which
// measures Merge at pinned widths; every other caller runs Merge.
func MergeWorkers(f Combiner, workers int, maps ...*Mapping) (out *Mapping, err error) {
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
		return out, nil
	}

	n := len(maps)
	base := make([]int, n+1) // input i's rows are records base[i] to base[i+1]
	for i, m := range maps {
		base[i+1] = base[i] + m.Len()
	}
	input := func(q int) int {
		i := 0
		for q >= base[i+1] {
			i++
		}
		return i
	}
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
				i := input(int(r.Row))
				sims[i], present[i] = maps[i].sim[int(r.Row)-base[i]], true
			}
			if v, keep := f.combine(sims, present); keep && v > 0 {
				kept[sorted[lo].Row] = clampSim(v)
			}
			clear(present)
		}
	})
	dom, rng, sim := gatherColumns(base[n], workers, func(lo, hi int) int {
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
				i := input(q)
				dom[k], rng[k], sim[k] = maps[i].dom[q-base[i]], maps[i].rng[q-base[i]], kept[q]
				k++
			}
		}
	})
	return newFromColumns(first.Domain(), first.Range(), first.Type(), first.dict, dom, rng, sim), nil
}
