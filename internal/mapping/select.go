package mapping

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/model"
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

// WorkerTunable marks selections whose Apply parallelizes. WithWorkers
// returns a copy configured for the worker count (0 = GOMAXPROCS);
// worker counts change wall-clock time only, never the selected rows or
// their order.
type WorkerTunable interface {
	Selection
	WithWorkers(workers int) Selection
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

// BestN keeps, for each instance of the configured side, the N
// correspondences with the highest similarity. Ties at the cut-off are
// broken deterministically by the other end's id. Workers is the worker
// count of the grouping and the per-group cuts (0 = GOMAXPROCS); the
// result is identical at every count.
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

// WithWorkers implements WorkerTunable.
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
	// Workers is the worker count of the grouping and the per-group cuts
	// (0 = GOMAXPROCS); the result is identical at every count.
	Workers int
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
		return selectPerGroup(m, true, cut, b.Workers)
	case RangeSide:
		return selectPerGroup(m, false, cut, b.Workers)
	case BothSides:
		dom := Best1Delta{D: b.D, Relative: b.Relative, Side: DomainSide, Workers: b.Workers}.Apply(m)
		rng := Best1Delta{D: b.D, Relative: b.Relative, Side: RangeSide, Workers: b.Workers}.Apply(m)
		return dom.intersectRows(rng)
	default:
		return m.Clone()
	}
}

// WithWorkers implements WorkerTunable.
func (b Best1Delta) WithWorkers(workers int) Selection {
	b.Workers = workers
	return b
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
	if m.dict != o.dict {
		return m.Filter(func(c Correspondence) bool { return o.Has(c.Domain, c.Range) })
	}
	return m.filterRows(func(i int) bool { return o.HasOrd(m.dom[i], m.rng[i]) })
}

// ConstraintFunc decides whether a correspondence between two concrete
// instances satisfies a domain-specific condition. Either instance may be
// nil when its object set does not contain the id.
type ConstraintFunc func(domain, rng *model.Instance, sim float64) bool

// Constraint applies an object-value constraint (§3.3): only
// correspondences whose instances fulfil the predicate survive. The two
// object sets provide attribute access; correspondences whose ids are
// missing from the sets are dropped unless KeepUnresolved is set.
type Constraint struct {
	Name           string
	DomainSet      *model.ObjectSet
	RangeSet       *model.ObjectSet
	Pred           ConstraintFunc
	KeepUnresolved bool
}

// Apply implements Selection.
func (c Constraint) Apply(m *Mapping) *Mapping {
	return m.Filter(func(corr Correspondence) bool {
		var din, rin *model.Instance
		if c.DomainSet != nil {
			din = c.DomainSet.Get(corr.Domain)
		}
		if c.RangeSet != nil {
			rin = c.RangeSet.Get(corr.Range)
		}
		if din == nil || rin == nil {
			return c.KeepUnresolved
		}
		return c.Pred(din, rin, corr.Sim)
	})
}

func (c Constraint) String() string {
	if c.Name != "" {
		return "Constraint(" + c.Name + ")"
	}
	return "Constraint"
}

// YearConstraint returns the paper's example constraint: the publication
// years of matching objects must not differ by more than maxDiff (§2.2,
// §3.3). Instances without a parseable year pass (Google Scholar's year is
// optional; dropping those pairs would destroy recall).
func YearConstraint(attr string, maxDiff int, domainSet, rangeSet *model.ObjectSet) Constraint {
	return Constraint{
		Name:      fmt.Sprintf("|%s| diff <= %d", attr, maxDiff),
		DomainSet: domainSet,
		RangeSet:  rangeSet,
		Pred: func(d, r *model.Instance, _ float64) bool {
			yd, okD := d.IntAttr(attr)
			yr, okR := r.IntAttr(attr)
			if !okD || !okR {
				return true
			}
			diff := yd - yr
			if diff < 0 {
				diff = -diff
			}
			return diff <= maxDiff
		},
	}
}

// NotEqualIDs is the selection used to eliminate "trivial duplicates" from
// self-mappings: select($Merged, "[domain.id]<>[range.id]") in §4.3.
type NotEqualIDs struct{}

// Apply implements Selection.
func (NotEqualIDs) Apply(m *Mapping) *Mapping { return m.WithoutDiagonal() }

func (NotEqualIDs) String() string { return "[domain.id]<>[range.id]" }

// Chain applies selections left to right.
type Chain []Selection

// Apply implements Selection.
func (ch Chain) Apply(m *Mapping) *Mapping {
	cur := m
	for _, s := range ch {
		cur = s.Apply(cur)
	}
	return cur
}

// WithWorkers implements WorkerTunable: it configures every tunable
// element of the chain.
func (ch Chain) WithWorkers(workers int) Selection {
	out := make(Chain, len(ch))
	for i, s := range ch {
		if t, ok := s.(WorkerTunable); ok {
			out[i] = t.WithWorkers(workers)
		} else {
			out[i] = s
		}
	}
	return out
}

func (ch Chain) String() string {
	parts := make([]string, len(ch))
	for i, s := range ch {
		parts[i] = s.String()
	}
	return "Chain(" + joinComma(parts) + ")"
}

func joinComma(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out
}
