// Package mapping implements MOMA's core abstraction: instance-level
// mappings and the operators that combine them (§2.1 and §3 of the paper).
//
// A mapping between two logical data sources LDSA and LDSB is a set of
// correspondences {(a, b, s)} with a ∈ LDSA, b ∈ LDSB and similarity
// s ∈ [0,1] (Definition 1). Same-mappings connect instances of the same
// object type and express semantic equality; every other mapping is an
// association mapping (publications of an author, venue of a publication,
// ...). Mappings are represented as three-column mapping tables.
//
// # Columnar ordinal representation
//
// A Mapping stores its table as parallel columns — dom and rng hold uint32
// ordinals interned in a model.IDDict, sim holds the similarities — rather
// than as a slice of ID-carrying structs. Operators then move integers and
// group rows by radix-sorting them on ordinal keys: compose joins middle
// ordinals through two sorted row lists and groups its paths by packed
// (domain, range) pair, merge groups all inputs' rows by that pair key (a
// merge under a threshold that leaves inputs out streams them against its
// drivers' rows instead, see MergeAbove), and selections group row
// indices by domain or range ordinal. Besides the three columns a mapping
// holds one structure, the per-pair dedup index: a map[uint64]int32 keyed
// by the packed ordinal pair, built lazily by the first point lookup or
// Add. The per-object reads (ForDomain, Touches, RemoveTouching) scan the
// ordinal columns.
//
// Every mapping the program builds interns through the process-global
// model.IDs dictionary — matcher results, operator outputs, workflow
// intermediates and the mappings a durable repository replays — so all of
// them share one ordinal space and no operator translates ordinals.
// Operators take inputs over one dictionary: Compose and Merge return an
// error for inputs over different ones, and Equal reports false. The
// ID-level API (Add, Correspondences, ForDomain, ...) sits on top.
//
// The package provides the paper's three combination operators:
//
//   - Merge (§3.1): n-ary union of same-type mappings under a combination
//     function (Avg, Min, Max, Weighted, PreferMap) with configurable
//     treatment of missing correspondences.
//   - Compose (§3.2): relational composition of two mappings with a path
//     combination function f and a path aggregation function g (Avg, Min,
//     Max, RelativeLeft, RelativeRight, Relative).
//   - Selection (§3.3): Threshold, Best-n, Best-1+Delta and object-value
//     constraints.
package mapping

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/model"
)

// Correspondence relates a domain object to a range object with a
// similarity (confidence) value in [0,1].
type Correspondence struct {
	Domain model.ID
	Range  model.ID
	Sim    float64
}

// ordKey packs an ordinal pair into the uint64 the dedup index keys by.
func ordKey(d, r uint32) uint64 { return uint64(d)<<32 | uint64(r) }

// Mapping is a fuzzy instance-level mapping between two logical data
// sources, stored as a columnar mapping table. The zero value is not
// usable; create mappings with New, NewSame or NewWithDict.
type Mapping struct {
	domLDS model.LDS
	rngLDS model.LDS
	mtype  model.MappingType

	dict *model.IDDict

	// Parallel columns: row i is the correspondence
	// (dict.IDOf(dom[i]), dict.IDOf(rng[i]), sim[i]), in insertion order.
	dom []uint32
	rng []uint32
	sim []float64

	// index maps ordKey(dom, rng) to its row for dedup and point lookups.
	// It is built lazily (pairIndex): bulk-loaded mappings (newFromColumns)
	// carry pre-deduped columns, so operator outputs only pay for the map
	// when somebody actually probes pairs. New/NewWithDict arm it eagerly
	// because Add needs it from row one. idxOnce makes the lazy build safe
	// under concurrent readers: any number of goroutines may read a built
	// mapping (writers still require external exclusion, as always).
	idxOnce sync.Once
	index   map[uint64]int32
}

// New returns an empty mapping of the given semantic type between the two
// logical sources, interning through the process-global model.IDs.
func New(domain, rng model.LDS, mtype model.MappingType) *Mapping {
	return NewWithDict(domain, rng, mtype, model.IDs)
}

// NewWithDict is New with an explicit ID dictionary. The program builds
// every mapping over model.IDs; a mapping over another dictionary combines
// only with mappings over that same dictionary (see the package comment).
func NewWithDict(domain, rng model.LDS, mtype model.MappingType, dict *model.IDDict) *Mapping {
	m := &Mapping{
		domLDS: domain,
		rngLDS: rng,
		mtype:  mtype,
		dict:   dict,
	}
	m.idxOnce.Do(func() { m.index = make(map[uint64]int32) })
	return m
}

// newFromColumns bulk-loads a mapping from pre-deduped parallel columns,
// taking ownership of the slices. This is the constructor operator cores
// use for their outputs: no per-row Add, no map insert per row — the pair
// index stays lazy and is built in one pre-sized pass on first use. The
// caller guarantees the (dom, rng) pairs are distinct and sims are already
// clamped; feeding duplicates here corrupts the dedup invariant that Add
// maintains.
func newFromColumns(domain, rng model.LDS, mtype model.MappingType, dict *model.IDDict, dom, rngCol []uint32, sim []float64) *Mapping {
	return &Mapping{
		domLDS: domain,
		rngLDS: rng,
		mtype:  mtype,
		dict:   dict,
		dom:    dom,
		rng:    rngCol,
		sim:    sim,
	}
}

// FromColumns is newFromColumns for producers outside this package that
// assemble their result as columns — the batch matchers' kernel, whose
// ranges each append (dom, rng, sim) and are concatenated once — over the
// process-global model.IDs. The contract is newFromColumns': the mapping
// takes ownership of the slices, the (dom, rng) pairs are distinct ordinals
// of model.IDs (Dict().SetOrds translates an ObjectSet's) and the sims lie
// in [0,1]. Columns of unequal length panic.
func FromColumns(domain, rng model.LDS, mtype model.MappingType, dom, rngCol []uint32, sim []float64) *Mapping {
	if len(dom) != len(sim) || len(rngCol) != len(sim) {
		panic(fmt.Sprintf("mapping: FromColumns needs columns of one length, got %d, %d and %d", len(dom), len(rngCol), len(sim)))
	}
	return newFromColumns(domain, rng, mtype, model.IDs, dom, rngCol, sim)
}

// FromOrdinals builds a mapping from rows of ordinals of model.IDs — pairs
// holds each row's domain and range ordinal interleaved, d₀, r₀, d₁, r₁, …,
// beside one similarity per row — added in order with Add's semantics: a
// repeated pair keeps its first position and last similarity, sims are
// clamped. The pair index is built once, pre-sized. Any other len(pairs)
// panics. A durable repository's replay builds its mappings this way.
func FromOrdinals(domain, rng model.LDS, mtype model.MappingType, pairs []uint32, sims []float64) *Mapping {
	if len(pairs) != 2*len(sims) {
		panic(fmt.Sprintf("mapping: FromOrdinals needs two ordinals per similarity, got %d and %d", len(pairs), len(sims)))
	}
	m := newFromColumns(domain, rng, mtype, model.IDs, make([]uint32, 0, len(sims)), make([]uint32, 0, len(sims)), make([]float64, 0, len(sims)))
	m.idxOnce.Do(func() { m.index = make(map[uint64]int32, len(sims)) })
	for i, s := range sims {
		m.AddOrd(pairs[2*i], pairs[2*i+1], s)
	}
	return m
}

// NewSame returns an empty same-mapping between two sources of the same
// object type. It panics if the object types differ, which is a programming
// error by Definition 1.
func NewSame(domain, rng model.LDS) *Mapping {
	if !domain.SameType(rng) {
		panic(fmt.Sprintf("mapping: same-mapping requires equal object types, got %s and %s", domain, rng))
	}
	return New(domain, rng, model.SameMappingType)
}

// Domain returns the domain LDS.
func (m *Mapping) Domain() model.LDS { return m.domLDS }

// Range returns the range LDS.
func (m *Mapping) Range() model.LDS { return m.rngLDS }

// Type returns the semantic mapping type.
func (m *Mapping) Type() model.MappingType { return m.mtype }

// IsSame reports whether this is a same-mapping.
func (m *Mapping) IsSame() bool { return m.mtype == model.SameMappingType }

// Len returns the number of correspondences.
func (m *Mapping) Len() int { return len(m.sim) }

// Dict returns the ID dictionary this mapping's ordinals index into.
// Producers that can pre-intern their IDs (matchers translate ObjectSet
// ordinals once per input) use it with AddOrd/AddMaxOrd.
func (m *Mapping) Dict() *model.IDDict { return m.dict }

// errMixedDicts is what Compose and Merge return for inputs over different
// ID dictionaries (see the package comment).
var errMixedDicts = errors.New("inputs intern through different ID dictionaries")

// clampSim forces s into [0,1]; NaN becomes 0.
func clampSim(s float64) float64 {
	if s < 0 || s != s {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// Add inserts the correspondence (a, b, s), replacing the similarity of an
// existing (a, b) pair. Similarities are clamped to [0,1], and NaN is 0.
func (m *Mapping) Add(a, b model.ID, s float64) {
	m.AddOrd(m.dict.Ord(a), m.dict.Ord(b), s)
}

// AddOrd is Add over ordinals of this mapping's dictionary. Passing
// ordinals from another dictionary is a bug the type system cannot catch;
// producers obtain valid columns via Dict().SetOrds or Dict().Ord.
func (m *Mapping) AddOrd(d, r uint32, s float64) {
	s = clampSim(s)
	key := ordKey(d, r)
	idx := m.pairIndex()
	if i, ok := idx[key]; ok {
		m.sim[i] = s
		return
	}
	m.appendRow(idx, key, d, r, s)
}

// AddMax inserts (a, b, s) keeping the maximum similarity if the pair
// already exists. Useful when several evidence paths produce the same pair.
func (m *Mapping) AddMax(a, b model.ID, s float64) {
	m.AddMaxOrd(m.dict.Ord(a), m.dict.Ord(b), s)
}

// AddMaxOrd is AddMax over ordinals of this mapping's dictionary.
func (m *Mapping) AddMaxOrd(d, r uint32, s float64) {
	s = clampSim(s)
	key := ordKey(d, r)
	idx := m.pairIndex()
	if i, ok := idx[key]; ok {
		if s > m.sim[i] {
			m.sim[i] = s
		}
		return
	}
	m.appendRow(idx, key, d, r, s)
}

// appendRow appends a row known to be absent from the index.
func (m *Mapping) appendRow(idx map[uint64]int32, key uint64, d, r uint32, s float64) {
	i := int32(len(m.sim))
	m.dom = append(m.dom, d)
	m.rng = append(m.rng, r)
	m.sim = append(m.sim, s)
	idx[key] = i
}

// pairIndex builds (once) and returns the pair dedup index. Bulk-loaded
// mappings defer it until the first point lookup or Add; the build is a
// single pre-sized pass over the columns.
func (m *Mapping) pairIndex() map[uint64]int32 {
	m.idxOnce.Do(func() {
		idx := make(map[uint64]int32, len(m.sim))
		for i := range m.sim {
			idx[ordKey(m.dom[i], m.rng[i])] = int32(i)
		}
		m.index = idx
	})
	return m.index
}

// Sim returns the similarity of (a, b) and whether the pair is present.
func (m *Mapping) Sim(a, b model.ID) (float64, bool) {
	d, ok := m.dict.Lookup(a)
	if !ok {
		return 0, false
	}
	r, ok := m.dict.Lookup(b)
	if !ok {
		return 0, false
	}
	return m.SimOrd(d, r)
}

// SimOrd is Sim over ordinals of this mapping's dictionary.
func (m *Mapping) SimOrd(d, r uint32) (float64, bool) {
	if i, ok := m.pairIndex()[ordKey(d, r)]; ok {
		return m.sim[i], true
	}
	return 0, false
}

// Has reports whether the pair (a, b) is present.
func (m *Mapping) Has(a, b model.ID) bool {
	_, ok := m.Sim(a, b)
	return ok
}

// HasOrd is Has over ordinals of this mapping's dictionary.
func (m *Mapping) HasOrd(d, r uint32) bool {
	_, ok := m.pairIndex()[ordKey(d, r)]
	return ok
}

// At returns the correspondence at row i in insertion order. It panics when
// i is out of [0, Len()), mirroring slice indexing.
func (m *Mapping) At(i int) Correspondence {
	return Correspondence{Domain: m.dict.IDOf(m.dom[i]), Range: m.dict.IDOf(m.rng[i]), Sim: m.sim[i]}
}

// Correspondences returns a copy of all correspondences in insertion order.
func (m *Mapping) Correspondences() []Correspondence {
	out := make([]Correspondence, len(m.sim))
	ids := m.dict.All()
	for i := range m.sim {
		out[i] = Correspondence{Domain: ids[m.dom[i]], Range: ids[m.rng[i]], Sim: m.sim[i]}
	}
	return out
}

// Each calls fn for every correspondence in insertion order.
func (m *Mapping) Each(fn func(Correspondence)) {
	ids := m.dict.All()
	for i := range m.sim {
		fn(Correspondence{Domain: ids[m.dom[i]], Range: ids[m.rng[i]], Sim: m.sim[i]})
	}
}

// EachOrd calls fn for every row in insertion order with the raw column
// values — ordinals of Dict() — stopping early when fn returns false. It is
// the no-copy iteration consumers on hot paths use; resolve ordinals
// through Dict().All().
func (m *Mapping) EachOrd(fn func(dom, rng uint32, sim float64) bool) {
	for i := range m.sim {
		if !fn(m.dom[i], m.rng[i], m.sim[i]) {
			return
		}
	}
}

// ForDomain returns the correspondences of domain object a in insertion
// order, scanning the domain column.
func (m *Mapping) ForDomain(a model.ID) []Correspondence {
	d, ok := m.dict.Lookup(a)
	if !ok {
		return nil
	}
	ids := m.dict.All()
	var out []Correspondence
	for i, o := range m.dom {
		if o == d {
			out = append(out, Correspondence{Domain: a, Range: ids[m.rng[i]], Sim: m.sim[i]})
		}
	}
	return out
}

// Touches reports whether id appears as a domain or range object of any
// correspondence, scanning the two ordinal columns up to the first hit.
func (m *Mapping) Touches(id model.ID) bool {
	ord, ok := m.dict.Lookup(id)
	if !ok {
		return false
	}
	return slices.Contains(m.dom, ord) || slices.Contains(m.rng, ord)
}

// DomainIDs returns the distinct domain ids in first-seen order.
func (m *Mapping) DomainIDs() []model.ID {
	seen := make(map[uint32]bool)
	ids := m.dict.All()
	var out []model.ID
	for _, o := range m.dom {
		if !seen[o] {
			seen[o] = true
			out = append(out, ids[o])
		}
	}
	return out
}

// Inverse returns the mapping with domain and range swapped. The semantic
// type is preserved; callers give the inverse its own name in the
// repository (e.g. VenuePub vs PubVenue).
func (m *Mapping) Inverse() *Mapping {
	return newFromColumns(m.rngLDS, m.domLDS, m.mtype, m.dict,
		append([]uint32(nil), m.rng...),
		append([]uint32(nil), m.dom...),
		append([]float64(nil), m.sim...))
}

// Clone returns a deep copy sharing the dictionary. The copy keeps the
// pair index lazy regardless of the source's state.
func (m *Mapping) Clone() *Mapping {
	return newFromColumns(m.domLDS, m.rngLDS, m.mtype, m.dict,
		append([]uint32(nil), m.dom...),
		append([]uint32(nil), m.rng...),
		append([]float64(nil), m.sim...))
}

// Filter returns a new mapping keeping only correspondences for which keep
// returns true.
func (m *Mapping) Filter(keep func(Correspondence) bool) *Mapping {
	ids := m.dict.All()
	return m.filterRows(func(i int) bool {
		return keep(Correspondence{Domain: ids[m.dom[i]], Range: ids[m.rng[i]], Sim: m.sim[i]})
	})
}

// filterRows is Filter over row indices: no Correspondence materialization
// for predicates that only need the columns. Surviving rows are distinct
// pairs already, so the output bulk-loads without per-row index inserts.
func (m *Mapping) filterRows(keep func(row int) bool) *Mapping {
	var dom, rng []uint32
	var sim []float64
	for i := range m.sim {
		if keep(i) {
			dom = append(dom, m.dom[i])
			rng = append(rng, m.rng[i])
			sim = append(sim, m.sim[i])
		}
	}
	return newFromColumns(m.domLDS, m.rngLDS, m.mtype, m.dict, dom, rng, sim)
}

// WithoutDiagonal drops correspondences whose domain and range ids are
// equal — the paper's select($Merged, "[domain.id]<>[range.id]") step that
// removes trivial duplicates from self-mappings (§4.3). Dictionaries are
// injective, so ordinal equality is id equality.
func (m *Mapping) WithoutDiagonal() *Mapping {
	return m.filterRows(func(i int) bool { return m.dom[i] != m.rng[i] })
}

// RemoveTouching deletes, in place, every correspondence whose domain or
// range object is id, and reports how many rows went. One ascending scan of
// the two ordinal columns finds the touched rows (a self-loop once); each
// is then swap-removed, descending, with the current last row moving into
// the vacated slot, so the rows are not rewritten as a Filter would. Row
// order is permuted deterministically by the swaps; the pair index is
// repaired incrementally and stays consistent.
func (m *Mapping) RemoveTouching(id model.ID) int {
	ord, ok := m.dict.Lookup(id)
	if !ok {
		return 0
	}
	var rows []int32
	for i, d := range m.dom {
		if d == ord || m.rng[i] == ord {
			rows = append(rows, int32(i))
		}
	}
	if len(rows) == 0 {
		return 0
	}
	idx := m.pairIndex()
	// Walk the doomed rows descending so the row swapped in from the end
	// is never itself doomed: every doomed row above i is already gone.
	for k := len(rows) - 1; k >= 0; k-- {
		i := rows[k]
		last := int32(len(m.sim) - 1)
		delete(idx, ordKey(m.dom[i], m.rng[i]))
		if i != last {
			m.dom[i], m.rng[i], m.sim[i] = m.dom[last], m.rng[last], m.sim[last]
			idx[ordKey(m.dom[i], m.rng[i])] = i
		}
		m.dom = m.dom[:last]
		m.rng = m.rng[:last]
		m.sim = m.sim[:last]
	}
	return len(rows)
}

// Sorted returns the correspondences sorted canonically: domain ascending,
// similarity descending, range ascending. It does not mutate the mapping.
func (m *Mapping) Sorted() []Correspondence {
	out := m.Correspondences()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Domain != out[j].Domain {
			return out[i].Domain < out[j].Domain
		}
		if out[i].Sim != out[j].Sim {
			return out[i].Sim > out[j].Sim
		}
		return out[i].Range < out[j].Range
	})
	return out
}

// Identity returns the identity same-mapping over the ids of the given
// object set: every instance corresponds to itself with similarity 1. The
// paper uses it as the trivial same-mapping for single-source neighborhood
// matching (§4.3).
func Identity(set *model.ObjectSet) *Mapping {
	m := NewSame(set.LDS(), set.LDS())
	for _, o := range m.dict.SetOrds(set) {
		m.AddOrd(o, o, 1)
	}
	return m
}

// Equal reports whether two mappings have the same endpoints, type and the
// same correspondence set with similarities equal within eps, row order
// aside. Mappings over different dictionaries are never equal: the program
// builds every mapping over model.IDs, so such a pair is a programming error.
func (m *Mapping) Equal(o *Mapping, eps float64) bool {
	if m.dict != o.dict || m.domLDS != o.domLDS || m.rngLDS != o.rngLDS || m.mtype != o.mtype || len(m.sim) != len(o.sim) {
		return false
	}
	for i := range m.sim {
		s, ok := o.SimOrd(m.dom[i], m.rng[i])
		if !ok {
			return false
		}
		d := m.sim[i] - s
		if d < -eps || d > eps {
			return false
		}
	}
	return true
}

// String renders the mapping table (sorted canonically), capped at 20 rows.
func (m *Mapping) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s -> %s (%s), %d correspondences\n", m.domLDS, m.rngLDS, m.mtype, len(m.sim))
	for i, c := range m.Sorted() {
		if i == 20 {
			fmt.Fprintf(&b, "  ... %d more\n", len(m.sim)-20)
			break
		}
		fmt.Fprintf(&b, "  %-28s %-28s %.3f\n", c.Domain, c.Range, c.Sim)
	}
	return b.String()
}
