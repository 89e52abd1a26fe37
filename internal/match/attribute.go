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
	// MatcherName identifies the configuration, e.g. "title-trigram".
	MatcherName string
	// AttrA and AttrB name the attributes on the two inputs.
	AttrA, AttrB string
	// Sim names the measure by its string function; the matcher scores
	// through sim.ProfiledOf(Sim), which for a built-in preprocesses each
	// attribute value once instead of once per pair.
	Sim sim.Func
	// Profiled, when set, is the measure itself and Sim is ignored — the way
	// to pass one that no Func names (e.g. (*sim.TFIDF).Profiled).
	Profiled sim.ProfiledSim
	// Threshold is the minimum similarity for a correspondence.
	Threshold float64
	// Blocker generates candidate pairs; nil means the full cross product.
	Blocker block.Blocker
	// SkipMissing drops pairs where either attribute is absent or empty
	// instead of scoring them (they would usually score 0 anyway).
	SkipMissing bool
}

// Name implements Matcher.
func (m *Attribute) Name() string {
	if m.MatcherName != "" {
		return m.MatcherName
	}
	return fmt.Sprintf("attr(%s~%s)", m.AttrA, m.AttrB)
}

// Match implements Matcher. Each attribute value is preprocessed once
// (O(n+m)) into read-only dense profile columns; the kernel (blockScore)
// scores the blocker's candidates over them and keeps only those that reach
// the threshold, so memory is proportional to the result, not to the
// candidate count.
func (m *Attribute) Match(a, b *model.ObjectSet) (*mapping.Mapping, error) {
	if err := requireSameType(a, b); err != nil {
		return nil, err
	}
	if m.Sim == nil && m.Profiled == nil {
		return nil, fmt.Errorf("match: %s has no similarity function", m.Name())
	}
	ps := measure(m.Sim, m.Profiled)
	col := newScoreColumn(a, b, m.AttrA, m.AttrB, ps)
	keyed, _ := ps.(sim.Keyed)
	var filter sim.RowFilter
	if keyed != nil {
		filter = keyed.RowFilter(m.Threshold)
	}
	return blockScore(a, b, m.Blocker, func(ia, ib int) (float64, bool) {
		pa, pb, ka, kb := col.at(ia, ib)
		if m.SkipMissing && (pa.Raw == "" || pb.Raw == "") {
			return 0, false
		}
		// A set measure's keys have passed the scan's filter: what is left
		// is the merge.
		var s float64
		if keyed != nil {
			s = keyed.Merge(pa, pb, ka, kb, m.Threshold)
		} else {
			s = ps.Compare(pa, pb, m.Threshold)
		}
		return s, s >= m.Threshold
	}, filter, &col), nil
}

// measure resolves a matcher configuration's measure: the explicit Profiled
// value if set, otherwise the measure behind Sim.
func measure(fn sim.Func, explicit sim.ProfiledSim) sim.ProfiledSim {
	if explicit != nil {
		return explicit
	}
	return sim.ProfiledOf(fn)
}

// scoreColumn is one attribute comparison ready to score: the measure's
// profile columns of both inputs, aligned with ObjectSet ordinals.
type scoreColumn struct {
	colA, colB sim.ProfileColumn
	// empty stands in for ids absent from the inputs, which blockers may
	// emit: they score as the empty value.
	empty    *sim.Profile
	emptyKey sim.Key
}

func newScoreColumn(a, b *model.ObjectSet, attrA, attrB string, ps sim.ProfiledSim) scoreColumn {
	c := scoreColumn{
		colA:  profileColumn(a, attrA, ps),
		colB:  profileColumn(b, attrB, ps),
		empty: sim.NewProfile(ps, ""),
	}
	c.emptyKey = c.colA.KeyOf(c.empty)
	return c
}

// at returns the profiles at the two ordinals and their keys (nil for a
// measure without keys); a negative ordinal (IndexOf of an id absent from
// the input) reads as the empty value.
func (c *scoreColumn) at(ia, ib int) (pa, pb *sim.Profile, ka, kb *sim.Key) {
	pa, pb, ka, kb = c.empty, c.empty, &c.emptyKey, &c.emptyKey
	if ia >= 0 {
		pa, ka = c.colA.At(ia)
	}
	if ib >= 0 {
		pb, kb = c.colB.At(ib)
	}
	return pa, pb, ka, kb
}

// profilesKey keys a similarity-profile column in a set's column store
// (model.Column). The measure is part of the key because a profile's content
// depends on it. Built-in measures are comparable singletons
// (sim.ProfiledOf) and share columns across matchers; corpus-backed measures
// compare by corpus pointer and by measureVer, the corpus generation
// (sim.ProfileVersioner; 0 for pure measures), so a mutated corpus never
// serves stale vectors and a fresh TFIDFAttribute corpus — rebuilt per match
// by design — keys a new column that ages out of the store.
type profilesKey struct {
	attr       string
	measure    sim.ProfiledSim
	measureVer uint64
}

// Invalidated counts a column the store dropped because its set changed.
func (profilesKey) Invalidated() { profileCacheInvalidations.Inc() }

// profileColumn returns the per-instance profiles of one attribute column —
// the O(n+m) preprocessing the profiled scoring path reads from — as a
// dense array aligned with ObjectSet ordinals (IndexOf), which is what the
// kernel names its candidates by, with a set measure's filter keys beside
// it. Columns are kept in the set's column store, profiles and keys in one
// entry, so matchers sharing inputs build each once per set version.
// Measures whose dynamic type is not comparable (structs holding slices,
// say) cannot key the store and build per match.
func profileColumn(set *model.ObjectSet, attr string, ps sim.ProfiledSim) sim.ProfileColumn {
	build := func() sim.ProfileColumn { return buildProfileColumn(set, attr, ps) }
	if !reflect.TypeOf(ps).Comparable() {
		return build()
	}
	key := profilesKey{attr: attr, measure: ps}
	if pv, ok := ps.(sim.ProfileVersioner); ok {
		key.measureVer = pv.ProfileVersion()
	}
	col, hit := model.Column(set, key, build)
	if hit {
		profileCacheHits.Inc()
	} else {
		profileCacheMisses.Inc()
	}
	return col
}

// buildProfileColumn does the actual profile build: one scratch and one
// backing array of profiles per column. The column is never mutated after
// this returns, so readers need no locks.
func buildProfileColumn(set *model.ObjectSet, attr string, ps sim.ProfiledSim) sim.ProfileColumn {
	profs := make([]sim.Profile, set.Len())
	out := sim.NewProfileColumn(ps, len(profs))
	var sc sim.Scratch
	set.Each(func(in *model.Instance) bool {
		p := &profs[len(out.Profs)]
		ps.ProfileInto(in.Attr(attr), p, &sc)
		out.Append(p)
		return true
	})
	return out
}

// AttrPair configures one attribute comparison of the multi-attribute
// matcher.
type AttrPair struct {
	AttrA, AttrB string
	// Sim names the measure; Profiled, when set, is the measure itself (see
	// Attribute).
	Sim      sim.Func
	Profiled sim.ProfiledSim
	Weight   float64
}

// MultiAttribute is the paper's multi-attribute matcher: it "directly
// evaluates and combines the similarity for multiple attribute pairs, e.g.,
// for publication title and publication year" (§2.2). Per-pair similarities
// are combined as a weighted average.
type MultiAttribute struct {
	MatcherName string
	Pairs       []AttrPair
	Threshold   float64
	Blocker     block.Blocker
}

// Name implements Matcher.
func (m *MultiAttribute) Name() string {
	if m.MatcherName != "" {
		return m.MatcherName
	}
	return fmt.Sprintf("multiattr(%d pairs)", len(m.Pairs))
}

// Match implements Matcher.
func (m *MultiAttribute) Match(a, b *model.ObjectSet) (*mapping.Mapping, error) {
	if err := requireSameType(a, b); err != nil {
		return nil, err
	}
	if len(m.Pairs) == 0 {
		return nil, fmt.Errorf("match: %s has no attribute pairs", m.Name())
	}
	var totalWeight float64
	for i, p := range m.Pairs {
		if p.Sim == nil && p.Profiled == nil {
			return nil, fmt.Errorf("match: %s pair %d has no similarity function", m.Name(), i)
		}
		w := p.Weight
		if w < 0 {
			return nil, fmt.Errorf("match: %s pair %d has negative weight", m.Name(), i)
		}
		totalWeight += w
	}
	if totalWeight == 0 {
		return nil, fmt.Errorf("match: %s has zero total weight", m.Name())
	}
	// One pair of profile columns per attribute pair: dense arrays aligned
	// with ObjectSet ordinals, so each candidate reads k columns by index.
	cols := make([]scoreColumn, len(m.Pairs))
	measures := make([]sim.ProfiledSim, len(m.Pairs))
	weights := make([]float64, len(m.Pairs))
	for i, ap := range m.Pairs {
		measures[i], weights[i] = measure(ap.Sim, ap.Profiled), ap.Weight
		cols[i] = newScoreColumn(a, b, ap.AttrA, ap.AttrB, measures[i])
	}
	weighted := sim.NewWeighted(measures, weights, m.Threshold)
	return blockScore(a, b, m.Blocker, func(ia, ib int) (float64, bool) {
		s := weighted.Score(func(i int) (pa, pb *sim.Profile, ka, kb *sim.Key) { return cols[i].at(ia, ib) })
		return s, s >= m.Threshold
	}, weighted.RowFilter(), &cols[0]), nil
}

// TFIDFAttribute matches one attribute pair under TF-IDF cosine similarity,
// building the corpus from the attribute values of both inputs at match
// time (document statistics depend on the data being matched).
type TFIDFAttribute struct {
	MatcherName  string
	AttrA, AttrB string
	Threshold    float64
	Blocker      block.Blocker
}

// Name implements Matcher.
func (m *TFIDFAttribute) Name() string {
	if m.MatcherName != "" {
		return m.MatcherName
	}
	return fmt.Sprintf("tfidf(%s~%s)", m.AttrA, m.AttrB)
}

// Match implements Matcher.
func (m *TFIDFAttribute) Match(a, b *model.ObjectSet) (*mapping.Mapping, error) {
	corpus := sim.NewTFIDF()
	corpus.AddAll(sortedAttrValues(a, m.AttrA))
	corpus.AddAll(sortedAttrValues(b, m.AttrB))
	inner := &Attribute{
		MatcherName: m.Name(),
		AttrA:       m.AttrA,
		AttrB:       m.AttrB,
		Profiled:    corpus.Profiled(),
		Threshold:   m.Threshold,
		Blocker:     m.Blocker,
	}
	return inner.Match(a, b)
}

// ExistingMapping exposes a pre-existing mapping as a matcher; the paper
// re-uses mappings that "already exist in data sources" (e.g. Google
// Scholar's links to ACM, §5.3). Match restricts the stored mapping to the
// ids present in the inputs.
type ExistingMapping struct {
	MatcherName string
	M           *mapping.Mapping
}

// Name implements Matcher.
func (m *ExistingMapping) Name() string {
	if m.MatcherName != "" {
		return m.MatcherName
	}
	return "existing"
}

// Match implements Matcher.
func (m *ExistingMapping) Match(a, b *model.ObjectSet) (*mapping.Mapping, error) {
	if m.M == nil {
		return nil, fmt.Errorf("match: %s has no mapping", m.Name())
	}
	if m.M.Domain() != a.LDS() || m.M.Range() != b.LDS() {
		return nil, fmt.Errorf("match: %s connects %s->%s, inputs are %s->%s",
			m.Name(), m.M.Domain(), m.M.Range(), a.LDS(), b.LDS())
	}
	return m.M.Filter(func(c mapping.Correspondence) bool {
		return a.Has(c.Domain) && b.Has(c.Range)
	}), nil
}
