package match

import (
	"fmt"
	"reflect"

	"repro/internal/block"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/sim"
)

// Attribute is the paper's generic attribute matcher (§2.2): it is
// "provided with a pair of attributes to be matched, a similarity function
// to be evaluated (e.g. n-gram, TF/IDF or affix) and a similarity threshold
// to be exceeded by result correspondences".
type Attribute struct {
	// AttrA and AttrB name the attributes on the two inputs.
	AttrA, AttrB string
	// Sim names the measure by its string function; the matcher scores
	// through sim.ProfiledOf(Sim), which for a built-in preprocesses each
	// attribute value once instead of once per pair.
	Sim sim.Func
	// Threshold is the minimum similarity for a correspondence.
	Threshold float64
	// Blocker generates candidate pairs; nil means the full cross product.
	Blocker block.Blocker
	// SkipMissing drops pairs where either attribute is absent or empty
	// instead of scoring them (they would usually score 0 anyway).
	SkipMissing bool
}

// String implements Matcher.
func (m *Attribute) String() string {
	return fmt.Sprintf("attr(%s~%s, %s, t=%v, %v, skipMissing=%t)", m.AttrA, m.AttrB, sim.Name(m.Sim), m.Threshold, m.Blocker, m.SkipMissing)
}

// Match implements Matcher. Each attribute value is preprocessed once
// (O(n+m)) into read-only dense profile columns; the kernel (blockScore)
// scores the blocker's candidates over them and keeps only those that reach
// the threshold, so memory is proportional to the result, not to the
// candidate count.
func (m *Attribute) Match(a, b *model.ObjectSet) (*mapping.Mapping, error) {
	if m.Sim == nil {
		return nil, fmt.Errorf("match: %s has no similarity function", m)
	}
	return m.match(a, b, sim.ProfiledOf(m.Sim))
}

// match is Match under the measure ps: the one behind Sim, or a
// TFIDFAttribute's corpus cosine.
func (m *Attribute) match(a, b *model.ObjectSet, ps sim.ProfiledSim) (*mapping.Mapping, error) {
	if err := requireSameType(a, b); err != nil {
		return nil, err
	}
	col := newScoreColumn(a, b, m.AttrA, m.AttrB, ps)
	keyed, _ := ps.(sim.Keyed)
	var filter sim.RowFilter
	if keyed != nil {
		filter = keyed.RowFilter(m.Threshold)
	}
	var missingA, missingB []bool
	if m.SkipMissing {
		missingA, missingB = missingValues(a, m.AttrA), missingValues(b, m.AttrB)
	}
	return blockScore(a, b, m.Blocker, func(ia, ib int) (float64, bool) {
		if m.SkipMissing && (missingA[ia] || missingB[ib]) {
			return 0, false
		}
		pa, pb := col.at(ia, ib)
		// A set measure's keys have passed the scan's filter: what is left
		// is the merge.
		var s float64
		if keyed != nil {
			s = keyed.Merge(pa, pb, m.Threshold)
		} else {
			s = ps.Compare(pa, pb, m.Threshold)
		}
		return s, s >= m.Threshold
	}, filter, &col), nil
}

// missingValues flags the ordinals of set whose attr is absent or empty.
func missingValues(set *model.ObjectSet, attr string) []bool {
	flags := make([]bool, set.Len())
	for i := range flags {
		flags[i] = set.Attr(i, attr) == ""
	}
	return flags
}

// scoreColumn is one attribute comparison ready to score: the measure's
// profile columns of both inputs, aligned with ObjectSet ordinals.
type scoreColumn struct {
	colA, colB sim.ProfileColumn
}

func newScoreColumn(a, b *model.ObjectSet, attrA, attrB string, ps sim.ProfiledSim) scoreColumn {
	return scoreColumn{colA: profileColumn(a, attrA, ps), colB: profileColumn(b, attrB, ps)}
}

// at returns the slots at the two ordinals.
func (c *scoreColumn) at(ia, ib int) (a, b sim.Ref) { return c.colA.At(ia), c.colB.At(ib) }

// profilesKey keys a similarity-profile column in a set's column store
// (model.Column). The measure is part of the key because a profile's content
// depends on it. Built-in measures are comparable values (sim.ProfiledOf)
// and share columns across matchers.
type profilesKey struct {
	attr    string
	measure sim.ProfiledSim
}

// Invalidated counts a column the store dropped because its set changed.
func (profilesKey) Invalidated() { profileCacheInvalidations.Inc() }

// profileColumn returns the per-instance profiles of one attribute column —
// the O(n+m) preprocessing the profiled scoring path reads from — as a
// dense array aligned with ObjectSet ordinals (IndexOf), which is what the
// kernel names its candidates by, with a set measure's filter keys beside
// it. Columns are kept in the set's column store, profiles and keys in one
// entry, so matchers sharing inputs build each once per set version.
// Measures whose dynamic type is not comparable cannot key the store and
// build per match: an opaque Func's adapter, a TF-IDF corpus cosine (whose
// profiles go stale as the corpus changes), structs holding slices.
func profileColumn(set *model.ObjectSet, attr string, ps sim.ProfiledSim) sim.ProfileColumn {
	build := func() sim.ProfileColumn { return buildProfileColumn(set, attr, ps) }
	if !reflect.TypeOf(ps).Comparable() {
		return build()
	}
	col, hit := model.Column(set, profilesKey{attr: attr, measure: ps}, build)
	if hit {
		profileCacheHits.Inc()
	} else {
		profileCacheMisses.Inc()
	}
	return col
}

// buildProfileColumn does the actual profile build. The column is never
// mutated after this returns, so readers need no locks.
func buildProfileColumn(set *model.ObjectSet, attr string, ps sim.ProfiledSim) sim.ProfileColumn {
	return sim.BuildProfileColumn(ps, set.Len(), func(i int) string { return set.Attr(i, attr) })
}

// AttrPair configures one attribute comparison of the multi-attribute
// matcher.
type AttrPair struct {
	AttrA, AttrB string
	// Sim names the measure (see Attribute).
	Sim    sim.Func
	Weight float64
}

// String renders the comparison.
func (p AttrPair) String() string {
	return fmt.Sprintf("{%s~%s %s w=%v}", p.AttrA, p.AttrB, sim.Name(p.Sim), p.Weight)
}

// MultiAttribute is the paper's multi-attribute matcher: it "directly
// evaluates and combines the similarity for multiple attribute pairs, e.g.,
// for publication title and publication year" (§2.2). Per-pair similarities
// are combined as a weighted average.
type MultiAttribute struct {
	Pairs     []AttrPair
	Threshold float64
	Blocker   block.Blocker
}

// String implements Matcher.
func (m *MultiAttribute) String() string {
	return fmt.Sprintf("multiattr(%v, t=%v, %v)", m.Pairs, m.Threshold, m.Blocker)
}

// Match implements Matcher.
func (m *MultiAttribute) Match(a, b *model.ObjectSet) (*mapping.Mapping, error) {
	if err := requireSameType(a, b); err != nil {
		return nil, err
	}
	if len(m.Pairs) == 0 {
		return nil, fmt.Errorf("match: %s has no attribute pairs", m)
	}
	var totalWeight float64
	for i, p := range m.Pairs {
		if p.Sim == nil {
			return nil, fmt.Errorf("match: %s pair %d has no similarity function", m, i)
		}
		w := p.Weight
		if w < 0 {
			return nil, fmt.Errorf("match: %s pair %d has negative weight", m, i)
		}
		totalWeight += w
	}
	if totalWeight == 0 {
		return nil, fmt.Errorf("match: %s has zero total weight", m)
	}
	// One pair of profile columns per attribute pair: dense arrays aligned
	// with ObjectSet ordinals, so each candidate reads k columns by index.
	cols := make([]scoreColumn, len(m.Pairs))
	measures := make([]sim.ProfiledSim, len(m.Pairs))
	weights := make([]float64, len(m.Pairs))
	for i, ap := range m.Pairs {
		measures[i], weights[i] = sim.ProfiledOf(ap.Sim), ap.Weight
		cols[i] = newScoreColumn(a, b, ap.AttrA, ap.AttrB, measures[i])
	}
	weighted := sim.NewWeighted(measures, weights, m.Threshold)
	return blockScore(a, b, m.Blocker, func(ia, ib int) (float64, bool) {
		s := weighted.Score(func(i int) (pa, pb sim.Ref) { return cols[i].at(ia, ib) })
		return s, s >= m.Threshold
	}, weighted.RowFilter(), &cols[0]), nil
}

// TFIDFAttribute matches one attribute pair under TF-IDF cosine similarity,
// building the corpus from the attribute values of both inputs at match
// time (document statistics depend on the data being matched).
type TFIDFAttribute struct {
	AttrA, AttrB string
	Threshold    float64
	Blocker      block.Blocker
}

// String implements Matcher.
func (m *TFIDFAttribute) String() string {
	return fmt.Sprintf("tfidf(%s~%s, t=%v, %v)", m.AttrA, m.AttrB, m.Threshold, m.Blocker)
}

// Match implements Matcher.
func (m *TFIDFAttribute) Match(a, b *model.ObjectSet) (*mapping.Mapping, error) {
	corpus := sim.NewTFIDF()
	corpus.AddAll(sortedAttrValues(a, m.AttrA))
	corpus.AddAll(sortedAttrValues(b, m.AttrB))
	inner := &Attribute{AttrA: m.AttrA, AttrB: m.AttrB, Threshold: m.Threshold, Blocker: m.Blocker}
	return inner.match(a, b, corpus.Profiled())
}

// ExistingMapping exposes a pre-existing mapping as a matcher; the paper
// re-uses mappings that "already exist in data sources" (e.g. Google
// Scholar's links to ACM, §5.3). Match restricts the stored mapping to the
// ids present in the inputs.
type ExistingMapping struct {
	M *mapping.Mapping
}

// String implements Matcher. The mapping renders by identity.
func (m *ExistingMapping) String() string { return fmt.Sprintf("existing(%p)", m.M) }

// Match implements Matcher.
func (m *ExistingMapping) Match(a, b *model.ObjectSet) (*mapping.Mapping, error) {
	if m.M == nil {
		return nil, fmt.Errorf("match: %s has no mapping", m)
	}
	if m.M.Domain() != a.LDS() || m.M.Range() != b.LDS() {
		return nil, fmt.Errorf("match: %s connects %s->%s, inputs are %s->%s",
			m, m.M.Domain(), m.M.Range(), a.LDS(), b.LDS())
	}
	return m.M.Filter(func(c mapping.Correspondence) bool {
		return a.Has(c.Domain) && b.Has(c.Range)
	}), nil
}

// Identity maps each object of a set to itself with similarity 1 (the
// identity mapping of §4.3's DBLP.AuthorAuthor); its two inputs must be
// one set.
type Identity struct{}

// String implements Matcher.
func (Identity) String() string { return "identity" }

// Match implements Matcher.
func (Identity) Match(a, b *model.ObjectSet) (*mapping.Mapping, error) {
	if a != b {
		return nil, fmt.Errorf("match: identity needs one set, got %s and %s", a.LDS(), b.LDS())
	}
	return mapping.Identity(a), nil
}
