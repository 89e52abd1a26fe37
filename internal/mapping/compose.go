package mapping

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/par"
)

// PathAgg enumerates the aggregation functions g of §3.2 that fold the
// per-path similarities of all compose paths (a, c_i, b) into the final
// similarity of the output correspondence (a, b).
type PathAgg int

// Aggregation functions for compose. With the auxiliary values of Figure 5
// — n(a) the number of correspondences of a in map1, n(b) the number of
// correspondences of b in map2, and s(a,b) the sum of all compose-path
// similarities — the Relative family is:
//
//	RelativeLeft  = s(a,b) / n(a)
//	RelativeRight = s(a,b) / n(b)
//	Relative      = 2*s(a,b) / (n(a)+n(b))
//
// Relative prefers correspondences reached via multiple compose paths; the
// paper's neighborhood matcher uses it to reward venues sharing many
// matched publications (Figure 6). RelativeLeft is the asymmetric variant
// the evaluation uses when the right-hand association is incomplete
// (missing Google Scholar authors, §5.4.3).
const (
	AggAvg PathAgg = iota
	AggMin
	AggMax
	AggRelativeLeft
	AggRelativeRight
	AggRelative
)

// String names the aggregation as in the paper.
func (g PathAgg) String() string {
	switch g {
	case AggAvg:
		return "Average"
	case AggMin:
		return "Min"
	case AggMax:
		return "Max"
	case AggRelativeLeft:
		return "RelativeLeft"
	case AggRelativeRight:
		return "RelativeRight"
	case AggRelative:
		return "Relative"
	default:
		return fmt.Sprintf("PathAgg(%d)", int(g))
	}
}

// ParsePathAgg resolves the paper's textual names (case-insensitive).
func ParsePathAgg(name string) (PathAgg, error) {
	switch lower(name) {
	case "avg", "average":
		return AggAvg, nil
	case "min":
		return AggMin, nil
	case "max":
		return AggMax, nil
	case "relativeleft":
		return AggRelativeLeft, nil
	case "relativeright":
		return AggRelativeRight, nil
	case "relative":
		return AggRelative, nil
	default:
		return 0, fmt.Errorf("mapping: unknown path aggregation %q", name)
	}
}

// ParseCombinerKind resolves the paper's textual names for the combination
// function f (case-insensitive). PreferMap requires the index to be set by
// the caller.
func ParseCombinerKind(name string) (CombinerKind, error) {
	switch lower(name) {
	case "avg", "average":
		return Avg, nil
	case "min":
		return Min, nil
	case "max":
		return Max, nil
	case "weighted":
		return Weighted, nil
	case "prefer", "prefermap", "prefermap1":
		return Prefer, nil
	default:
		return 0, fmt.Errorf("mapping: unknown combiner %q", name)
	}
}

func lower(s string) string { return strings.ToLower(s) }

// pathCombine applies the per-path combination function f to the two
// similarities of one compose path. Per §3.2 the alternatives are the same
// as for merge; both values are always present on a path, so MissingAsZero
// is irrelevant, Weighted uses the first two weights, and Prefer picks the
// similarity of the preferred mapping (index 0 = left input).
func pathCombine(f Combiner, s1, s2 float64) float64 {
	switch f.Kind {
	case Min:
		if s1 < s2 {
			return s1
		}
		return s2
	case Max:
		if s1 > s2 {
			return s1
		}
		return s2
	case Avg:
		return (s1 + s2) / 2
	case Weighted:
		if len(f.Weights) >= 2 && f.Weights[0]+f.Weights[1] > 0 {
			return (f.Weights[0]*s1 + f.Weights[1]*s2) / (f.Weights[0] + f.Weights[1])
		}
		return (s1 + s2) / 2
	case Prefer:
		if f.PreferIndex == 1 {
			return s2
		}
		return s1
	default:
		return 0
	}
}

// Compose implements the composition operator of §3.2. Given map1 from
// LDSA to LDSC and map2 from LDSC to LDSB it derives a mapping from LDSA to
// LDSB. For each output pair (a, b) every shared middle object c_i yields a
// compose path whose two similarities are combined with f; the per-path
// values are then aggregated with g.
//
// The middle sources must agree. The output's semantic type is "same" when
// both inputs are same-mappings, otherwise the concatenation of the input
// types (a derived association).
//
// The implementation joins the mapping tables, as the paper notes
// composition "can be computed very efficiently ... by joining the mapping
// tables" (§5.3): map1's range column meets map2's domain column through
// two radix-sorted row lists, the compose paths are sorted by their packed
// (domain, range) ordinal pair, and each run of paths folds into one output
// pair. No ID string is touched and neither input's pair index is built.
// The inputs must share an ID dictionary, as every mapping the program
// builds does (see the package comment); inputs over different ones are an
// error.
//
// Compose runs on GOMAXPROCS workers; ComposeWorkers pins the count. The
// output is bit-identical at every worker count (see the parallel-operator
// section of the root doc.go).
func Compose(map1, map2 *Mapping, f Combiner, g PathAgg) (*Mapping, error) {
	return ComposeWorkers(map1, map2, f, g, 0)
}

// ComposeWorkers is Compose with an explicit worker count (<= 0 means
// GOMAXPROCS). Paths are numbered in the order the sequential join meets
// them — map1 row by row, and within a row map2's rows of that middle
// object in row order — and a stable sort by output pair keeps that order
// within each run. So every pair's float sum folds in the sequential order,
// and the output lists pairs by their first path, the first-seen order of
// the sequential scan. The explicit count exists for the benchmark's
// operator workload, which measures Compose at pinned widths; every other
// caller runs Compose.
func ComposeWorkers(map1, map2 *Mapping, f Combiner, g PathAgg, workers int) (out *Mapping, err error) {
	defer func(start time.Time) {
		rows := -1
		if err == nil {
			rows = out.Len()
		}
		observeOp("compose", par.Workers(workers), start, rows)
	}(time.Now())
	if map1.Range() != map2.Domain() {
		return nil, fmt.Errorf("mapping: Compose middle sources differ: %s vs %s", map1.Range(), map2.Domain())
	}
	if map1.dict != map2.dict {
		return nil, fmt.Errorf("mapping: Compose: %w", errMixedDicts)
	}
	switch g {
	case AggAvg, AggMin, AggMax, AggRelativeLeft, AggRelativeRight, AggRelative:
	default:
		return nil, fmt.Errorf("mapping: unknown path aggregation %d", int(g))
	}
	outType := map1.Type()
	if !(map1.IsSame() && map2.IsSame()) {
		outType = map1.Type() + "." + map2.Type()
	}

	bufs := sortBufs{workers: workers}
	by2 := bufs.sort(bufs.keyRows(map2.dom))
	by1 := bufs.sort(bufs.keyRows(map1.rng))

	// The join: map1 row i meets by2[start[i]:][:off[i+1]-off[i]], where
	// off[i+1] holds that count until the prefix sum below turns off into
	// the number of map1 row i's first path.
	n1 := len(map1.sim)
	start := make([]uint32, n1)
	off := make([]uint32, n1+1)
	par.Split(len(by1), workers).Run(func(_, lo, hi int) {
		if lo == hi {
			return
		}
		j, _ := slices.BinarySearchFunc(by2, by1[lo].Key, func(e par.KeyRow, k uint64) int { return cmp.Compare(e.Key, k) })
		e := j
		for k := lo; k < hi; k++ {
			key := by1[k].Key
			if k == lo || key != by1[k-1].Key {
				j = e
				for j < len(by2) && by2[j].Key < key {
					j++
				}
				e = j
				for e < len(by2) && by2[e].Key == key {
					e++
				}
			}
			row := by1[k].Row
			start[row], off[row+1] = uint32(j), uint32(e-j)
		}
	})
	bufs.put(by1)
	var paths uint64
	for i := 1; i <= n1; i++ {
		paths += uint64(off[i])
		if paths > math.MaxUint32 {
			panic(fmt.Sprintf("mapping: Compose of %d and %d rows has more than 2^32 paths", n1, len(map2.sim)))
		}
		off[i] = uint32(paths)
	}
	// meets returns map1 row i's slice of by2.
	meets := func(i int) []par.KeyRow { return by2[start[i] : start[i]+off[i+1]-off[i]] }

	// Emit every path at its number p, keyed by its output pair.
	keys := bufs.get(int(paths))
	pathSim := make([]float64, paths)
	par.Split(n1, workers).Run(func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			d, s1, p := map1.dom[i], map1.sim[i], off[i]
			for _, r2 := range meets(i) {
				keys[p] = par.KeyRow{Key: ordKey(d, map2.rng[r2.Row]), Row: p}
				pathSim[p] = pathCombine(f, s1, map2.sim[r2.Row])
				p++
			}
		}
	})

	// Fold each output pair's paths in path order. agg[p] is the aggregate
	// of the pair whose first path is p — before the Relative family's
	// division by fan-outs — and 0 on every other path.
	sorted := bufs.sort(keys)
	agg := make([]float64, paths)
	eachRun(sorted, workers, func() func(lo, hi int) {
		return func(lo, hi int) {
			first := sorted[lo].Row
			sum, low, high := 0.0, pathSim[first], pathSim[first]
			for _, r := range sorted[lo:hi] {
				ps := pathSim[r.Row]
				sum += ps
				if ps < low {
					low = ps
				} else if ps > high {
					high = ps
				}
			}
			switch g {
			case AggAvg:
				agg[first] = sum / float64(hi-lo)
			case AggMin:
				agg[first] = low
			case AggMax:
				agg[first] = high
			default:
				agg[first] = sum
			}
		}
	})
	bufs.put(sorted)

	var n1a, n2b []uint32 // fan-outs per map1 row's domain and per map2 row's range
	if g == AggRelativeLeft || g == AggRelative {
		n1a = bufs.groupSizes(map1.dom)
	}
	if g == AggRelativeRight || g == AggRelative {
		n2b = bufs.groupSizes(map2.rng)
	}
	final := func(v float64, i int, i2 uint32) float64 {
		switch g {
		case AggRelativeLeft:
			return v / float64(n1a[i])
		case AggRelativeRight:
			return v / float64(n2b[i2])
		case AggRelative:
			return 2 * v / float64(int(n1a[i])+int(n2b[i2]))
		}
		return v
	}

	// Gather the pairs that score above 0, in the order of their first path.
	dom, rng, sim := gatherColumns(n1, workers, func(lo, hi int) int {
		kept := 0
		for i := lo; i < hi; i++ {
			for j, r2 := range meets(i) {
				p := off[i] + uint32(j)
				if agg[p] == 0 {
					continue
				}
				if s := final(agg[p], i, r2.Row); s > 0 {
					agg[p] = clampSim(s)
					kept++
				} else {
					agg[p] = 0
				}
			}
		}
		return kept
	}, func(lo, hi int, dom, rng []uint32, sim []float64) {
		k := 0
		for i := lo; i < hi; i++ {
			for j, r2 := range meets(i) {
				if s := agg[off[i]+uint32(j)]; s > 0 {
					dom[k], rng[k], sim[k] = map1.dom[i], map2.rng[r2.Row], s
					k++
				}
			}
		}
	})
	return newFromColumns(map1.Domain(), map2.Range(), outType, map1.dict, dom, rng, sim), nil
}

// ComposeChain composes a sequence of mappings left to right with the same
// f and g at every step, e.g. for multi-hop compose paths via a hub source
// (Figure 8).
func ComposeChain(f Combiner, g PathAgg, maps ...*Mapping) (*Mapping, error) {
	if len(maps) == 0 {
		return nil, fmt.Errorf("mapping: ComposeChain needs at least one mapping")
	}
	cur := maps[0]
	for _, next := range maps[1:] {
		var err error
		cur, err = Compose(cur, next, f, g)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// NumPaths returns, for one output pair (a, b) of Compose(map1, map2), the
// number of compose paths — the paper reports this alongside similarity in
// its duplicate-author analysis (Table 9, "number of shared co-authors").
// It walks map1's rows for a and counts the middles c with (c, b) in map2;
// pairs are distinct, so each middle is one path. Inputs over different
// dictionaries have no compose output and so no paths.
func NumPaths(map1, map2 *Mapping, a, b model.ID) int {
	aOrd, ok := map1.dict.Lookup(a)
	if !ok || map1.dict != map2.dict {
		return 0
	}
	bOrd, ok := map2.dict.Lookup(b)
	if !ok {
		return 0
	}
	n := 0
	for i, d := range map1.dom {
		if d == aOrd && map2.HasOrd(map1.rng[i], bOrd) {
			n++
		}
	}
	return n
}
