package mapping

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/par"
)

// Selection filters the correspondences of a mapping to the most likely
// ones (§3.3). Selections compose: apply them in sequence.
type Selection interface {
	// Apply returns a new mapping containing the selected correspondences.
	Apply(m *Mapping) *Mapping
	// String describes the selection for logs and workflow listings.
	String() string
}

// Side selects which end of the mapping a per-instance selection (Best-n,
// Best-1+Delta) groups by.
type Side int

// Grouping sides. BothSides keeps a correspondence only if it survives the
// selection grouped by domain AND grouped by range.
const (
	DomainSide Side = iota
	RangeSide
	BothSides
)

// String names the side.
func (s Side) String() string {
	switch s {
	case DomainSide:
		return "domain"
	case RangeSide:
		return "range"
	case BothSides:
		return "both"
	default:
		return fmt.Sprintf("Side(%d)", int(s))
	}
}

// Threshold keeps correspondences with similarity >= T.
type Threshold struct{ T float64 }

// Apply implements Selection.
func (t Threshold) Apply(m *Mapping) *Mapping {
	return m.filterRows(func(i int) bool { return m.sim[i] >= t.T })
}

func (t Threshold) String() string { return fmt.Sprintf("Threshold(%.2f)", t.T) }

// Where keeps the correspondences it accepts: Filter in selection form, for
// tests such as object-set membership or corroboration by another mapping.
type Where func(Correspondence) bool

// Apply implements Selection.
func (w Where) Apply(m *Mapping) *Mapping { return m.Filter(w) }

func (w Where) String() string { return "Where" }

// BestN keeps, for each instance of the configured side, the N
// correspondences with the highest similarity. Ties at the cut-off are
// broken deterministically by the other end's id. Workers is the worker
// count of the grouping and the per-group cuts (0 = GOMAXPROCS); the
// result is identical at every count. Only the benchmark's operator
// workload sets it, to measure the cut at a pinned width; everywhere else
// the worker count is GOMAXPROCS.
type BestN struct {
	N       int
	Side    Side
	Workers int
}

// Apply implements Selection.
func (b BestN) Apply(m *Mapping) *Mapping {
	if b.N <= 0 {
		return NewWithDict(m.Domain(), m.Range(), m.Type(), m.dict)
	}
	cut := func(sims []float64) int {
		if len(sims) > b.N {
			return b.N
		}
		return len(sims)
	}
	switch b.Side {
	case DomainSide:
		return selectPerGroup(m, true, cut, b.Workers)
	case RangeSide:
		return selectPerGroup(m, false, cut, b.Workers)
	case BothSides:
		dom := BestN{N: b.N, Side: DomainSide, Workers: b.Workers}.Apply(m)
		rng := BestN{N: b.N, Side: RangeSide, Workers: b.Workers}.Apply(m)
		return dom.intersectRows(rng)
	default:
		return m.Clone()
	}
}

// WithWorkers returns a copy of b at the given worker count, for the
// benchmark's operator workload (see Workers).
func (b BestN) WithWorkers(workers int) Selection {
	b.Workers = workers
	return b
}

func (b BestN) String() string { return fmt.Sprintf("Best-%d(%s)", b.N, b.Side) }

// Best1Delta keeps, per instance of the configured side, the correspondence
// with maximal similarity plus all correspondences within a tolerance d of
// it. With Relative true the tolerance is relative: sims >= best*(1-D);
// otherwise absolute: sims >= best-D (§3.3).
type Best1Delta struct {
	D        float64
	Relative bool
	Side     Side
}

// Apply implements Selection.
func (b Best1Delta) Apply(m *Mapping) *Mapping {
	// Groups arrive sorted by similarity descending, so "within tolerance
	// of the best" is a prefix.
	cut := func(sims []float64) int {
		if len(sims) == 0 {
			return 0
		}
		best := sims[0]
		limit := best - b.D
		if b.Relative {
			limit = best * (1 - b.D)
		}
		n := 0
		for _, s := range sims {
			if s >= limit {
				n++
			}
		}
		return n
	}
	switch b.Side {
	case DomainSide:
		return selectPerGroup(m, true, cut, 0)
	case RangeSide:
		return selectPerGroup(m, false, cut, 0)
	case BothSides:
		dom := Best1Delta{D: b.D, Relative: b.Relative, Side: DomainSide}.Apply(m)
		rng := Best1Delta{D: b.D, Relative: b.Relative, Side: RangeSide}.Apply(m)
		return dom.intersectRows(rng)
	default:
		return m.Clone()
	}
}

func (b Best1Delta) String() string {
	mode := "abs"
	if b.Relative {
		mode = "rel"
	}
	return fmt.Sprintf("Best-1+%.2f(%s,%s)", b.D, mode, b.Side)
}

// selectPerGroup groups rows by domain (or range) ordinal, sorts each
// group by similarity descending (ties by the other end's id ascending),
// and keeps the prefix of cut(sims) survivors per group. Groups appear in
// the order of their first rows, each with its survivors in sorted order.
//
// The grouping is a stable radix sort of the key column, so a group's rows
// stay in row order and its first row comes first. Each group is then
// sorted and cut in place on one worker, which marks the survivors at the
// group's first row; one pass over the rows in order gathers the output.
func selectPerGroup(m *Mapping, byDomain bool, cut func(sims []float64) int, workers int) (out *Mapping) {
	defer func(start time.Time) {
		observeOp("select", par.Workers(workers), start, out.Len())
	}(time.Now())
	keyCol, otherCol := m.dom, m.rng
	if !byDomain {
		keyCol, otherCol = m.rng, m.dom
	}
	ids := m.dict.All()
	bySim := func(a, b par.KeyRow) int {
		if sa, sb := m.sim[a.Row], m.sim[b.Row]; sa != sb {
			if sa > sb {
				return -1
			}
			return 1
		}
		return cmp.Compare(ids[otherCol[a.Row]], ids[otherCol[b.Row]])
	}

	bufs := sortBufs{workers: workers}
	sorted := bufs.sort(bufs.keyRows(keyCol))
	// head[row] is, for the first row of a group with survivors, the
	// group's offset in sorted and its survivor count, packed; 0 elsewhere.
	head := make([]uint64, len(m.sim))
	eachRun(sorted, workers, func() func(lo, hi int) {
		var sims []float64
		return func(lo, hi int) {
			group := sorted[lo:hi]
			first := group[0].Row
			slices.SortStableFunc(group, bySim)
			sims = sims[:0]
			for _, r := range group {
				sims = append(sims, m.sim[r.Row])
			}
			if k := cut(sims); k > 0 {
				head[first] = uint64(lo)<<32 | uint64(k)
			}
		}
	})
	dom, rng, sim := gatherColumns(len(m.sim), workers, func(lo, hi int) int {
		kept := 0
		for _, h := range head[lo:hi] {
			kept += int(uint32(h))
		}
		return kept
	}, func(lo, hi int, dom, rng []uint32, sim []float64) {
		k := 0
		for _, h := range head[lo:hi] {
			at := h >> 32
			for _, r := range sorted[at : at+uint64(uint32(h))] {
				dom[k], rng[k], sim[k] = m.dom[r.Row], m.rng[r.Row], m.sim[r.Row]
				k++
			}
		}
	})
	return newFromColumns(m.Domain(), m.Range(), m.Type(), m.dict, dom, rng, sim)
}

// intersectRows keeps the correspondences of m whose (domain, range) pair
// also appears in o — the BothSides conjunction. Both mappings come from
// the same selection over the same input, so they share a dictionary and
// the probe is ordinal-to-ordinal.
func (m *Mapping) intersectRows(o *Mapping) *Mapping {
	return m.filterRows(func(i int) bool { return o.HasOrd(m.dom[i], m.rng[i]) })
}

// NotEqualIDs is the selection used to eliminate "trivial duplicates" from
// self-mappings: select($Merged, "[domain.id]<>[range.id]") in §4.3.
type NotEqualIDs struct{}

// Apply implements Selection.
func (NotEqualIDs) Apply(m *Mapping) *Mapping { return m.WithoutDiagonal() }

func (NotEqualIDs) String() string { return "[domain.id]<>[range.id]" }
