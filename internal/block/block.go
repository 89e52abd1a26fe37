// Package block provides candidate-pair generation (blocking) for attribute
// matchers. Comparing every instance of source A with every instance of
// source B is quadratic; blocking restricts the comparisons to likely pairs
// while preserving recall.
//
// Three strategies are provided: the exact cross product (small inputs),
// token blocking over an inverted index (pairs must share at least k tokens
// of the blocking attribute), and the classic sorted-neighborhood method
// (sort both inputs by a key and slide a window). The experiment harness
// uses token blocking for the large Google Scholar matching tasks, mirroring
// the paper's query-based candidate generation. Within restricts token
// blocking to the pairs of a mapping, for a workflow step that reads a
// matcher's result on those pairs only.
//
// Every Blocker is a row probe over ordinals (RangeProbe): it streams one
// A instance's candidates at a time, in A-major order, and PairsEach turns
// that stream into id pairs. The cross product and token blocking probe as
// they go; sorted neighborhood and Within list their pairs when the probe
// is built, since neither finds them in A order.
//
// Index is token blocking's inverted index, and the online resolver's: it
// keys postings by dense ordinals — an ObjectSet's insertion ordinals in
// TokenBlocking, a live Resolver's slot numbers online — and keeps the
// token rows it indexes, so it alone knows which tokens an ordinal is
// indexed under. Tokens are interned term IDs (sim.Dict): the caller
// tokenizes and interns once — batch blocking into the global sim.Terms, a
// live Resolver into its private dictionary — and every update and probe
// after that hashes uint32s instead of strings. NewIndex builds a whole
// column at once; candidate probes stream ordinals in ascending order,
// which is the producing set's insertion order. TokenBlocking keeps one
// index per set version in the set's column store and only reads it. Set
// writes the index's rows in place, so only the owner of those rows calls
// it: the live Resolver, which also rebuilds its index without the removed
// rows (Compact).
//
// Ranked keyword retrieval is not here: the one place that needs it, the
// Google Scholar simulation, carries its own weighted postings
// (sources.GSQuery).
package block

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/model"
	"repro/internal/sim"
)

// Pair is a candidate pair of instance ids (A from the domain input, B from
// the range input).
type Pair struct {
	A, B model.ID
}

// Blocker generates candidate pairs between two object sets as a row probe
// over ordinals. Its candidates are A-major: every pair of a's instance i
// comes before any pair of instance i+1, B ordinals ascend within one
// instance, no pair repeats and every ordinal names an instance of its input
// (model.ObjectSet.IndexOf). The candidates of a contiguous range of A's
// ordinals are then a contiguous piece of the whole, which lets the batch
// matchers score ranges in parallel and concatenate the results in order.
// A candidate set can be orders of magnitude larger than the kept
// correspondences; a probe streams it, so the match core's memory follows
// the output, not the candidates.
type Blocker interface {
	// Probe builds what every range shares — token columns, the index over
	// b, a sorted neighbourhood's pair lists — once, and returns the probe
	// the ranges run on.
	Probe(a, b *model.ObjectSet) RangeProbe
	// String names the strategy for reports.
	String() string
}

// RangeProbe streams a Blocker's candidates over ordinals only, one A
// ordinal (a row) at a time. It is read-only: goroutines may probe disjoint
// ranges at once.
type RangeProbe interface {
	// Cost bounds the candidate pairs behind A ordinal ordA from above, far
	// more cheaply than probing: the weight par.SplitBy balances ranges by.
	Cost(ordA int) int
	// Row streams the candidates of A ordinal ordA in ascending B order,
	// stopping early when yield returns false.
	Row(ordA int, yield func(ordB int) bool)
}

// PairsEach streams bl's candidates over a and b as id pairs, in probe
// order, stopping early when yield returns false.
func PairsEach(bl Blocker, a, b *model.ObjectSet, yield func(Pair) bool) {
	p, more := bl.Probe(a, b), true
	for ordA := 0; ordA < a.Len() && more; ordA++ {
		p.Row(ordA, func(ordB int) bool {
			more = yield(Pair{A: a.IDAt(ordA), B: b.IDAt(ordB)})
			return more
		})
	}
}

// Pairs materializes the candidate sequence PairsEach streams.
func Pairs(bl Blocker, a, b *model.ObjectSet) []Pair {
	var out []Pair
	PairsEach(bl, a, b, func(p Pair) bool {
		out = append(out, p)
		return true
	})
	return out
}

// listProbe is a probe over pairs listed up front: row ordA's candidates are
// ordB[off[ordA]:off[ordA+1]], ascending, and a row's cost is its length.
type listProbe struct {
	off  []int
	ordB []uint32
}

// newListProbe lists distinct pairs — each an A ordinal (of an input of nA
// instances) in the high 32 bits and a B ordinal in the low (pairKey) — by
// row, B ascending. It sorts pairs in place.
func newListProbe(nA int, pairs []uint64) listProbe {
	slices.Sort(pairs)
	p := listProbe{off: make([]int, nA+1), ordB: make([]uint32, len(pairs))}
	for i, pair := range pairs {
		p.off[pair>>32+1]++
		p.ordB[i] = uint32(pair)
	}
	for i := range nA {
		p.off[i+1] += p.off[i]
	}
	return p
}

func (p listProbe) Cost(ordA int) int { return p.off[ordA+1] - p.off[ordA] }

func (p listProbe) Row(ordA int, yield func(ordB int) bool) {
	for _, ordB := range p.ordB[p.off[ordA]:p.off[ordA+1]] {
		if !yield(int(ordB)) {
			return
		}
	}
}

// pairKey packs an ordinal pair for newListProbe.
func pairKey(ordA, ordB int) uint64 { return uint64(ordA)<<32 | uint64(ordB) }

// CrossProduct compares every instance of a with every instance of b.
type CrossProduct struct{}

// Probe implements Blocker.
func (CrossProduct) Probe(a, b *model.ObjectSet) RangeProbe { return crossProbe(b.Len()) }

// crossProbe is the cross product with a range input of that many instances.
type crossProbe int

func (n crossProbe) Cost(int) int { return int(n) }

func (n crossProbe) Row(_ int, yield func(ordB int) bool) {
	for ordB := range int(n) {
		if !yield(ordB) {
			return
		}
	}
}

func (CrossProduct) String() string { return "cross-product" }

// TokenBlocking pairs instances sharing at least MinShared tokens of the
// blocking attributes. It builds an inverted index over b and probes it
// with a's attribute values.
type TokenBlocking struct {
	AttrA     string
	AttrB     string
	MinShared int
}

// Tokens is the tokenization of one attribute column as a dense slice
// aligned with the producing ObjectSet's insertion ordinals
// (model.ObjectSet.IndexOf). Each entry holds the value's sim.Tokens
// sequence interned in the global sim.Terms dictionary — term IDs in token
// order, duplicates preserved — so the blocking index and candidate probes
// consume integers. Instances whose attribute is missing or empty have a nil
// entry. The slices are shared, not copied; consumers must treat them as
// read-only.
type Tokens [][]uint32

// colKey keys one of blocking's derivations of one attribute in a set's
// column store (model.Column).
type colKey struct {
	kind colKind
	attr string
}

type colKind int

const (
	colTokens colKind = iota // Tokens: the interned token column
	colNorm                  // []string: sim.Normalize of every value
	colIndex                 // *Index over the token column
)

// Invalidated counts a column the store dropped because its set changed.
func (colKey) Invalidated() { blockInvalidations.Inc() }

// column fetches one derivation from the set's store, counting hit or miss.
func column[T any](set *model.ObjectSet, kind colKind, attr string, build func() T) T {
	col, hit := model.Column(set, colKey{kind, attr}, build)
	if hit {
		blockHits[kind].Inc()
	} else {
		blockMisses[kind].Inc()
	}
	return col
}

// tokenColumn returns the set's interned token column of one attribute.
func tokenColumn(set *model.ObjectSet, attr string) Tokens {
	return column(set, colTokens, attr, func() Tokens {
		return sim.Terms.TokenColumn(set.Len(), func(ord int) string { return set.Attr(ord, attr) })
	})
}

// PairsEach is PairsEach(t, a, b, yield) as a method.
func (t TokenBlocking) PairsEach(a, b *model.ObjectSet, yield func(Pair) bool) {
	PairsEach(t, a, b, yield)
}

// Probe implements Blocker: a's token column probes an ordinal inverted
// index over b's. Columns and index live in the sets' column stores, so
// matchers sharing a blocking attribute tokenize and index once per set
// version, not once per match.
func (t TokenBlocking) Probe(a, b *model.ObjectSet) RangeProbe {
	colA, colB := tokenColumn(a, t.AttrA), tokenColumn(b, t.AttrB)
	return tokenProbe{
		colA:      colA,
		ix:        column(b, colIndex, t.AttrB, func() *Index { return NewIndex(colB) }),
		minShared: max(t.MinShared, 1),
	}
}

type tokenProbe struct {
	colA      Tokens
	ix        *Index
	minShared int
}

// Cost is the number of posting entries the probe of ordA gathers at most:
// every candidate is among them, minShared times or more.
func (p tokenProbe) Cost(ordA int) int {
	cost := 0
	for _, tok := range p.colA[ordA] {
		cost += p.ix.PostingLen(tok)
	}
	return cost
}

func (p tokenProbe) Row(ordA int, yield func(ordB int) bool) {
	if toks := p.colA[ordA]; len(toks) > 0 {
		p.ix.EachCandidate(toks, p.minShared, yield)
	}
}

func (t TokenBlocking) String() string {
	return fmt.Sprintf("token-blocking(%s~%s, shared>=%d)", t.AttrA, t.AttrB, t.MinShared)
}

// Within is token blocking restricted to the pairs of a mapping. It lists
// the correspondences whose ids both inputs hold and whose values share at
// least Tokens.MinShared distinct tokens: exactly the pairs Tokens streams
// that Pairs holds, in the same order. A matcher whose result is read only
// on the pairs of another mapping scores those pairs and no others. Its
// probe holds at most one entry per correspondence of Pairs.
type Within struct {
	// Pairs is a *mapping.Mapping; naming only the two methods read keeps
	// blocking from importing the mapping layer it feeds.
	Pairs interface {
		Dict() *model.IDDict
		EachOrd(fn func(dom, rng uint32, sim float64) bool)
	}
	Tokens TokenBlocking
}

// Probe implements Blocker. It reads the token columns Tokens.Probe reads
// and tests each pair by merging its two values' distinct tokens.
func (w Within) Probe(a, b *model.ObjectSet) RangeProbe {
	colA, colB := tokenColumn(a, w.Tokens.AttrA), tokenColumn(b, w.Tokens.AttrB)
	minShared := max(w.Tokens.MinShared, 1)
	ids := w.Pairs.Dict().All()
	var x, y []uint32
	var pairs []uint64
	w.Pairs.EachOrd(func(dom, rng uint32, _ float64) bool {
		ordA, ordB := a.IndexOf(ids[dom]), b.IndexOf(ids[rng])
		if ordA < 0 || ordB < 0 {
			return true
		}
		x, y = distinct(x, colA[ordA]), distinct(y, colB[ordB])
		if shared(x, y) >= minShared {
			pairs = append(pairs, pairKey(ordA, ordB))
		}
		return true
	})
	return newListProbe(a.Len(), pairs)
}

// distinct returns toks' distinct values, sorted, in buf's storage.
func distinct(buf, toks []uint32) []uint32 {
	buf = append(buf[:0], toks...)
	slices.Sort(buf)
	return slices.Compact(buf)
}

// shared counts the values two sorted, duplicate-free lists have in common.
func shared(x, y []uint32) int {
	n := 0
	for len(x) > 0 && len(y) > 0 {
		switch {
		case x[0] < y[0]:
			x = x[1:]
		case x[0] > y[0]:
			y = y[1:]
		default:
			n++
			x, y = x[1:], y[1:]
		}
	}
	return n
}

// String renders Pairs by identity: its rows are data, not configuration.
func (w Within) String() string {
	return fmt.Sprintf("within(%p, %s)", w.Pairs, w.Tokens)
}

// SortedNeighborhood sorts the union of both inputs by a normalized key
// derived from the blocking attributes and pairs instances from different
// inputs within a sliding window of the given size. Its probe lists every
// pair up front: at most (|a|+|b|)·(w−1) of them for a window of w =
// max(Window, 2).
type SortedNeighborhood struct {
	AttrA  string
	AttrB  string
	Window int
}

// Probe implements Blocker: every pair of positions of the sorted union
// from different inputs and less than Window apart (at least 2), listed
// once under its A ordinal. Instances whose blocking attribute is missing
// or normalizes to the empty string are skipped entirely: an empty sort key
// carries no evidence of similarity, yet it would cluster all
// attribute-less instances at the front of the sort and pair them with each
// other inside the window, producing spurious candidates.
//
// Sort keys come from normalized-key columns kept in the sets' column
// stores: repeated matches over the same inputs — a workflow running several
// sorted-neighborhood matchers, or re-matching a stored set — sort
// precomputed keys instead of re-normalizing every raw attribute value per
// match.
func (s SortedNeighborhood) Probe(a, b *model.ObjectSet) RangeProbe {
	w := max(s.Window, 2)
	type entry struct {
		key  string
		id   model.ID
		ord  int
		from int // 0 = a, 1 = b
	}
	keysA := normColumn(a, s.AttrA)
	keysB := normColumn(b, s.AttrB)
	entries := make([]entry, 0, len(keysA)+len(keysB))
	for ord, key := range keysA {
		if key != "" {
			entries = append(entries, entry{key: key, id: a.IDAt(ord), ord: ord, from: 0})
		}
	}
	for ord, key := range keysB {
		if key != "" {
			entries = append(entries, entry{key: key, id: b.IDAt(ord), ord: ord, from: 1})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].key != entries[j].key {
			return entries[i].key < entries[j].key
		}
		if entries[i].from != entries[j].from {
			return entries[i].from < entries[j].from
		}
		return entries[i].id < entries[j].id
	})
	var pairs []uint64
	for i, x := range entries {
		for _, y := range entries[i+1 : i+min(w, len(entries)-i)] {
			switch {
			case x.from == y.from: // one input: not a candidate
			case x.from == 0:
				pairs = append(pairs, pairKey(x.ord, y.ord))
			default:
				pairs = append(pairs, pairKey(y.ord, x.ord))
			}
		}
	}
	return newListProbe(a.Len(), pairs)
}

// normColumn returns the set's sort-key column: entry i is sim.Normalize of
// instance i's attribute value.
func normColumn(set *model.ObjectSet, attr string) []string {
	return column(set, colNorm, attr, func() []string {
		col := make([]string, set.Len())
		for i := range col {
			col[i] = sim.Normalize(set.Attr(i, attr))
		}
		return col
	})
}

func (s SortedNeighborhood) String() string {
	return fmt.Sprintf("sorted-neighborhood(%s~%s, w=%d)", s.AttrA, s.AttrB, s.Window)
}

// ReductionRatio reports how much of the cross product a candidate set of
// the given size avoids: 1 - pairs / (|a|*|b|). Zero-sized inputs give 0.
func ReductionRatio(pairs int, a, b *model.ObjectSet) float64 {
	total := a.Len() * b.Len()
	if total == 0 {
		return 0
	}
	r := 1 - float64(pairs)/float64(total)
	if r < 0 {
		return 0
	}
	return r
}

// PairCompleteness reports the fraction of the true pairs a candidate set
// retains, given how many of them it holds. It is the blocking-quality
// counterpart of recall.
func PairCompleteness(hits, truth int) float64 {
	if truth == 0 {
		return 1
	}
	return float64(hits) / float64(truth)
}
