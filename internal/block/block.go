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
// the paper's query-based candidate generation.
package block

import (
	"fmt"
	"sort"

	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/sim"
)

// Pair is a candidate pair of instance ids (A from the domain input, B from
// the range input). OrdA and OrdB carry the insertion-order ordinals of A
// and B in the two match inputs (model.ObjectSet.IndexOf) so the scoring
// layer can read its dense profile columns by array index without a per-pair
// map lookup. The built-in blockers always fill them; hand-built pairs leave
// them zero, which is a valid-looking but wrong ordinal — consumers must
// trust ordinals only when the producing blocker implements OrdinalPairer.
type Pair struct {
	A, B       model.ID
	OrdA, OrdB int
}

// Blocker generates candidate pairs between two object sets.
type Blocker interface {
	// PairsEach streams deduplicated candidate pairs in deterministic order
	// to yield, one pair at a time, without materializing the full candidate
	// set. Iteration stops early when yield returns false. A candidate set
	// can be orders of magnitude larger than the kept correspondences, so
	// streaming keeps the match core's memory proportional to the output,
	// not to the candidates.
	PairsEach(a, b *model.ObjectSet, yield func(Pair) bool)
	// String names the strategy for reports.
	String() string
}

// OrdinalPairer marks blockers whose emitted pairs carry valid OrdA/OrdB
// ordinals into the match inputs. All built-in blockers do; third-party
// blockers that construct Pair values by hand typically do not, and the
// match layer falls back to id lookups for them.
type OrdinalPairer interface {
	Blocker
	// PairsCarryOrdinals reports whether every emitted Pair has OrdA/OrdB
	// set to the instances' ObjectSet ordinals.
	PairsCarryOrdinals() bool
}

// Pairs materializes the candidate sequence bl.PairsEach streams.
func Pairs(bl Blocker, a, b *model.ObjectSet) []Pair {
	var out []Pair
	bl.PairsEach(a, b, func(p Pair) bool {
		out = append(out, p)
		return true
	})
	return out
}

// CrossProduct compares every instance of a with every instance of b.
type CrossProduct struct{}

// PairsEach implements Blocker.
func (CrossProduct) PairsEach(a, b *model.ObjectSet, yield func(Pair) bool) {
	stopped := false
	ordA := 0
	a.Each(func(ina *model.Instance) bool {
		ordB := 0
		b.Each(func(inb *model.Instance) bool {
			if !yield(Pair{A: ina.ID, B: inb.ID, OrdA: ordA, OrdB: ordB}) {
				stopped = true
			}
			ordB++
			return !stopped
		})
		ordA++
		return !stopped
	})
}

// PairsCarryOrdinals implements OrdinalPairer.
func (CrossProduct) PairsCarryOrdinals() bool { return true }

func (CrossProduct) String() string { return "cross-product" }

// TokenBlocking pairs instances sharing at least MinShared tokens of the
// blocking attributes. It builds an inverted index over b and probes it
// with a's attribute values.
type TokenBlocking struct {
	AttrA     string
	AttrB     string
	MinShared int
}

var _ OrdinalPairer = TokenBlocking{}

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
	colIndex                 // *index.Ords over the token column
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
		col := make(Tokens, 0, set.Len())
		set.Each(func(in *model.Instance) bool {
			var toks []uint32
			if v := in.Attr(attr); v != "" {
				toks = sim.Terms.TokenIDs(v)
			}
			col = append(col, toks)
			return true
		})
		return col
	})
}

// PairsEach implements Blocker, probing an ordinal inverted index over b's
// token column with a's. Columns and index live in the sets' column stores,
// so matchers sharing a blocking attribute tokenize and index once per set
// version, not once per match. Candidates stream in ascending B-ordinal
// order (the range set's insertion order) within each A instance.
func (t TokenBlocking) PairsEach(a, b *model.ObjectSet, yield func(Pair) bool) {
	minShared := t.MinShared
	if minShared < 1 {
		minShared = 1
	}
	colA, colB := tokenColumn(a, t.AttrA), tokenColumn(b, t.AttrB)
	ix := column(b, colIndex, t.AttrB, func() *index.Ords {
		built := index.NewOrds()
		for ord, toks := range colB {
			if len(toks) > 0 {
				built.Add(ord, toks)
			}
		}
		return built
	})
	stopped := false
	for ordA := 0; ordA < len(colA) && !stopped; ordA++ {
		toks := colA[ordA]
		if len(toks) == 0 {
			continue
		}
		ida := a.IDAt(ordA)
		ix.EachCandidate(toks, minShared, func(ordB int) bool {
			if !yield(Pair{A: ida, B: b.IDAt(ordB), OrdA: ordA, OrdB: ordB}) {
				stopped = true
			}
			return !stopped
		})
	}
}

// PairsCarryOrdinals implements OrdinalPairer.
func (TokenBlocking) PairsCarryOrdinals() bool { return true }

func (t TokenBlocking) String() string {
	return fmt.Sprintf("token-blocking(%s~%s, shared>=%d)", t.AttrA, t.AttrB, t.MinShared)
}

// SortedNeighborhood sorts the union of both inputs by a normalized key
// derived from the blocking attributes and pairs instances from different
// inputs within a sliding window of the given size.
type SortedNeighborhood struct {
	AttrA  string
	AttrB  string
	Window int
}

// PairsEach implements Blocker. Instances whose blocking attribute is
// missing or normalizes to the empty string are skipped entirely: an empty
// sort key carries no evidence of similarity, yet it would cluster all
// attribute-less instances at the front of the sort and pair them with each
// other inside the window, producing spurious candidates.
//
// Sort keys come from normalized-key columns kept in the sets' column
// stores: repeated matches over the same inputs — a workflow running several
// sorted-neighborhood matchers, or re-matching a stored set — sort
// precomputed keys instead of re-normalizing every raw attribute value per
// match.
func (s SortedNeighborhood) PairsEach(a, b *model.ObjectSet, yield func(Pair) bool) {
	w := s.Window
	if w < 2 {
		w = 2
	}
	type entry struct {
		key  string
		id   model.ID
		ord  int // ObjectSet ordinal within its input
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
	// No dedup set is needed: every instance contributes exactly one entry,
	// so a cross-set pair corresponds to one position pair (x, y) and is
	// emitted only at anchor x — the stream is duplicate-free by
	// construction and holds no per-pair state.
	for i := range entries {
		hi := i + w
		if hi > len(entries) {
			hi = len(entries)
		}
		for j := i + 1; j < hi; j++ {
			if entries[i].from == entries[j].from {
				continue
			}
			p := Pair{A: entries[i].id, B: entries[j].id, OrdA: entries[i].ord, OrdB: entries[j].ord}
			if entries[i].from == 1 {
				p = Pair{A: entries[j].id, B: entries[i].id, OrdA: entries[j].ord, OrdB: entries[i].ord}
			}
			if !yield(p) {
				return
			}
		}
	}
}

// normColumn returns the set's sort-key column: entry i is sim.Normalize of
// instance i's attribute value.
func normColumn(set *model.ObjectSet, attr string) []string {
	return column(set, colNorm, attr, func() []string {
		col := make([]string, 0, set.Len())
		set.Each(func(in *model.Instance) bool {
			col = append(col, sim.Normalize(in.Attr(attr)))
			return true
		})
		return col
	})
}

// PairsCarryOrdinals implements OrdinalPairer.
func (SortedNeighborhood) PairsCarryOrdinals() bool { return true }

func (s SortedNeighborhood) String() string {
	return fmt.Sprintf("sorted-neighborhood(%s~%s, w=%d)", s.AttrA, s.AttrB, s.Window)
}

// idPair keys pair sets by instance ids alone: two Pairs naming the same
// instances are the same candidate regardless of ordinal provenance.
type idPair struct{ a, b model.ID }

// Dedup removes duplicate pairs (same A and B ids) preserving first
// occurrence.
func Dedup(pairs []Pair) []Pair {
	seen := make(map[idPair]bool, len(pairs))
	out := pairs[:0:0]
	for _, p := range pairs {
		k := idPair{p.A, p.B}
		if !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	return out
}

// ReductionRatio reports how much of the cross product a candidate set
// avoids: 1 - |pairs| / (|a|*|b|). Zero-sized inputs give 0.
func ReductionRatio(pairs []Pair, a, b *model.ObjectSet) float64 {
	total := a.Len() * b.Len()
	if total == 0 {
		return 0
	}
	r := 1 - float64(len(pairs))/float64(total)
	if r < 0 {
		return 0
	}
	return r
}

// PairCompleteness reports the fraction of true pairs retained by the
// candidate set, given the ground-truth pairs. It is the blocking-quality
// counterpart of recall.
func PairCompleteness(pairs []Pair, truth []Pair) float64 {
	if len(truth) == 0 {
		return 1
	}
	set := make(map[idPair]bool, len(pairs))
	for _, p := range pairs {
		set[idPair{p.A, p.B}] = true
	}
	hit := 0
	for _, p := range truth {
		if set[idPair{p.A, p.B}] {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}
