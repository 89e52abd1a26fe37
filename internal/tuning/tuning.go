// Package tuning implements MOMA's self-tuning capabilities (§2.2): given
// training data (a partial perfect mapping), it searches matcher
// configurations — which attributes to match, which similarity function,
// which threshold — for the best F-measure, and learns a decision-tree
// match classifier over similarity feature vectors ("for suitable training
// data these parameters can be optimized by standard machine learning
// schemes, e.g. using decision trees").
package tuning

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/block"
	"repro/internal/eval"
	"repro/internal/mapping"
	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/sim"
)

// Candidate is one attribute-matcher configuration in the search space.
type Candidate struct {
	AttrA, AttrB string
	Sim          sim.Func
	Threshold    float64
}

// String renders the configuration.
func (c Candidate) String() string {
	return fmt.Sprintf("attr(%s~%s, %s, t=%.2f)", c.AttrA, c.AttrB, sim.Name(c.Sim), c.Threshold)
}

// Space enumerates candidate configurations: the cross product of
// attribute pairs, similarity functions and thresholds.
type Space struct {
	AttrPairs  [][2]string
	SimNames   []string // built-in measures by name (sim.Lookup)
	Thresholds []float64
}

// Candidates expands the space.
func (s Space) Candidates() ([]Candidate, error) {
	var out []Candidate
	for _, pair := range s.AttrPairs {
		for _, name := range s.SimNames {
			fn, ok := sim.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("tuning: unknown similarity function %q", name)
			}
			for _, t := range s.Thresholds {
				out = append(out, Candidate{AttrA: pair[0], AttrB: pair[1], Sim: fn, Threshold: t})
			}
		}
	}
	return out, nil
}

// Outcome pairs a candidate with its evaluation result.
type Outcome struct {
	Candidate Candidate
	Result    eval.Result
}

// GridSearch evaluates every candidate on (a, b) against the training
// mapping and returns all outcomes sorted by descending F-measure (ties:
// higher precision, then the candidate order). The training mapping may be
// a subset of the full perfect mapping — only pairs whose domain object is
// covered by training count, which models a hand-labelled sample.
func GridSearch(space Space, a, b *model.ObjectSet, training *mapping.Mapping) ([]Outcome, error) {
	cands, err := space.Candidates()
	if err != nil {
		return nil, err
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("tuning: empty search space")
	}
	covered := make(map[model.ID]bool)
	for _, id := range training.DomainIDs() {
		covered[id] = true
	}
	// Candidates that differ only in threshold share one scoring of the
	// cross product, made at the grid's lowest threshold: similarities at or
	// above a matcher's threshold are exact (sim.ProfiledSim.Compare), so
	// selecting the kept rows at a higher threshold gives the rows, in the
	// order, a match at that threshold keeps.
	type scoring struct{ attrA, attrB, sim string }
	lowest := slices.Min(space.Thresholds)
	scored := make(map[scoring]*mapping.Mapping)
	outcomes := make([]Outcome, 0, len(cands))
	for _, c := range cands {
		k := scoring{c.AttrA, c.AttrB, sim.Name(c.Sim)}
		kept, ok := scored[k]
		if !ok {
			m := &match.Attribute{
				AttrA: c.AttrA, AttrB: c.AttrB, Sim: c.Sim, Threshold: lowest,
			}
			got, err := m.Match(a, b)
			if err != nil {
				return nil, fmt.Errorf("tuning: %s: %w", c, err)
			}
			kept = got.Filter(func(corr mapping.Correspondence) bool {
				return covered[corr.Domain]
			})
			scored[k] = kept
		}
		outcomes = append(outcomes, Outcome{Candidate: c, Result: eval.Compare(mapping.Threshold{T: c.Threshold}.Apply(kept), training)})
	}
	sort.SliceStable(outcomes, func(i, j int) bool {
		if outcomes[i].Result.F1 != outcomes[j].Result.F1 {
			return outcomes[i].Result.F1 > outcomes[j].Result.F1
		}
		return outcomes[i].Result.Precision > outcomes[j].Result.Precision
	})
	return outcomes, nil
}

// Best returns the winning configuration of a grid search.
func Best(outcomes []Outcome) (Outcome, error) {
	if len(outcomes) == 0 {
		return Outcome{}, fmt.Errorf("tuning: no outcomes")
	}
	return outcomes[0], nil
}

// Example is one training example for the decision tree: a feature vector
// of similarity values plus the match label.
type Example struct {
	Features []float64
	Match    bool
}

// FeatureExtractor computes the similarity feature vector of an instance
// pair under several measures — one feature per configured comparison.
type FeatureExtractor struct {
	Names []string
	fns   []featureFn
}

type featureFn struct {
	attrA, attrB string
	ps           sim.ProfiledSim
}

// NewFeatureExtractor builds an extractor; comparisons are given as
// (attrA, attrB, simName) triples naming built-in measures (sim.Lookup).
func NewFeatureExtractor(comparisons [][3]string) (*FeatureExtractor, error) {
	fe := &FeatureExtractor{}
	for _, c := range comparisons {
		fn, ok := sim.Lookup(c[2])
		if !ok {
			return nil, fmt.Errorf("tuning: unknown similarity function %q", c[2])
		}
		fe.Names = append(fe.Names, fmt.Sprintf("%s~%s:%s", c[0], c[1], c[2]))
		fe.fns = append(fe.fns, featureFn{attrA: c[0], attrB: c[1], ps: sim.ProfiledOf(fn)})
	}
	return fe, nil
}

// Extract computes the feature vector for one pair.
func (fe *FeatureExtractor) Extract(a, b *model.Instance) []float64 {
	return fe.compare(fe.profiles(a.Attr, true), fe.profiles(b.Attr, false))
}

// profiles returns the profiles of one record's values on the domain or
// the range side, one per comparison; attr reads the record.
func (fe *FeatureExtractor) profiles(attr func(string) string, domain bool) []*sim.Profile {
	ps := make([]*sim.Profile, len(fe.fns))
	for i, f := range fe.fns {
		name := f.attrB
		if domain {
			name = f.attrA
		}
		ps[i] = sim.NewProfile(f.ps, attr(name))
	}
	return ps
}

// compare scores every pair of profiles in full (floor 0).
func (fe *FeatureExtractor) compare(pa, pb []*sim.Profile) []float64 {
	out := make([]float64, len(fe.fns))
	for i, f := range fe.fns {
		out[i] = f.ps.Compare(pa[i].Ref(), pb[i].Ref(), 0)
	}
	return out
}

// scorer returns a pairScorer over a and b with nothing profiled yet.
func (fe *FeatureExtractor) scorer(a, b *model.ObjectSet) *pairScorer {
	return &pairScorer{fe: fe, a: a, b: b, domain: make([][]*sim.Profile, a.Len()), rng: make([][]*sim.Profile, b.Len())}
}

// pairScorer computes feature vectors of the pairs of one call: it profiles
// a member's attribute values once, the first time its ordinal appears on
// a side.
type pairScorer struct {
	fe          *FeatureExtractor
	a, b        *model.ObjectSet
	domain, rng [][]*sim.Profile // by ordinal, nil until profiled
}

// features returns the feature vector of the pair of ids.
func (s *pairScorer) features(ida, idb model.ID) []float64 {
	ia, ib := s.a.IndexOf(ida), s.b.IndexOf(idb)
	if s.domain[ia] == nil {
		s.domain[ia] = s.fe.profiles(func(name string) string { return s.a.Attr(ia, name) }, true)
	}
	if s.rng[ib] == nil {
		s.rng[ib] = s.fe.profiles(func(name string) string { return s.b.Attr(ib, name) }, false)
	}
	return s.fe.compare(s.domain[ia], s.rng[ib])
}

// BuildExamples labels the blocker's candidate pairs (nil means the cross
// product) against the training mapping. Negative examples are all
// candidate pairs absent from training whose domain object is covered by
// training.
func BuildExamples(fe *FeatureExtractor, a, b *model.ObjectSet, bl block.Blocker, training *mapping.Mapping) []Example {
	covered := make(map[model.ID]bool)
	for _, id := range training.DomainIDs() {
		covered[id] = true
	}
	sc := fe.scorer(a, b)
	var out []Example
	block.PairsEach(candidates(bl), a, b, func(p block.Pair) bool {
		if covered[p.A] {
			out = append(out, Example{
				Features: sc.features(p.A, p.B),
				Match:    training.Has(p.A, p.B),
			})
		}
		return true
	})
	return out
}

// candidates returns bl, or the cross product for nil.
func candidates(bl block.Blocker) block.Blocker {
	if bl == nil {
		return block.CrossProduct{}
	}
	return bl
}

// Tree is a binary CART decision tree over similarity features.
type Tree struct {
	// Leaf fields.
	IsLeaf bool
	Match  bool
	// Split fields.
	Feature   int
	Threshold float64
	Left      *Tree // feature < threshold
	Right     *Tree // feature >= threshold
}

// TreeConfig bounds tree growth.
type TreeConfig struct {
	MaxDepth    int
	MinExamples int
}

// LearnTree grows a CART tree with Gini-impurity splits.
func LearnTree(examples []Example, cfg TreeConfig) *Tree {
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 4
	}
	if cfg.MinExamples <= 0 {
		cfg.MinExamples = 2
	}
	return growTree(examples, cfg, 0)
}

func majority(examples []Example) bool {
	pos := 0
	for _, e := range examples {
		if e.Match {
			pos++
		}
	}
	return pos*2 >= len(examples) && pos > 0
}

func gini(pos, total int) float64 {
	if total == 0 {
		return 0
	}
	p := float64(pos) / float64(total)
	return 2 * p * (1 - p)
}

func growTree(examples []Example, cfg TreeConfig, depth int) *Tree {
	if len(examples) == 0 {
		return &Tree{IsLeaf: true, Match: false}
	}
	pos := 0
	for _, e := range examples {
		if e.Match {
			pos++
		}
	}
	if pos == 0 || pos == len(examples) || depth >= cfg.MaxDepth || len(examples) < cfg.MinExamples {
		return &Tree{IsLeaf: true, Match: majority(examples)}
	}
	nFeatures := len(examples[0].Features)
	bestFeature, bestThreshold, bestScore := -1, 0.0, math.Inf(1)
	for f := 0; f < nFeatures; f++ {
		values := make([]float64, 0, len(examples))
		for _, e := range examples {
			values = append(values, e.Features[f])
		}
		sort.Float64s(values)
		for i := 1; i < len(values); i++ {
			if values[i] == values[i-1] {
				continue
			}
			thr := (values[i] + values[i-1]) / 2
			lp, lt, rp, rt := 0, 0, 0, 0
			for _, e := range examples {
				if e.Features[f] < thr {
					lt++
					if e.Match {
						lp++
					}
				} else {
					rt++
					if e.Match {
						rp++
					}
				}
			}
			score := (float64(lt)*gini(lp, lt) + float64(rt)*gini(rp, rt)) / float64(len(examples))
			if score < bestScore {
				bestScore, bestFeature, bestThreshold = score, f, thr
			}
		}
	}
	if bestFeature < 0 {
		return &Tree{IsLeaf: true, Match: majority(examples)}
	}
	var left, right []Example
	for _, e := range examples {
		if e.Features[bestFeature] < bestThreshold {
			left = append(left, e)
		} else {
			right = append(right, e)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return &Tree{IsLeaf: true, Match: majority(examples)}
	}
	return &Tree{
		Feature:   bestFeature,
		Threshold: bestThreshold,
		Left:      growTree(left, cfg, depth+1),
		Right:     growTree(right, cfg, depth+1),
	}
}

// Predict classifies a feature vector.
func (t *Tree) Predict(features []float64) bool {
	node := t
	for !node.IsLeaf {
		if node.Feature < len(features) && features[node.Feature] < node.Threshold {
			node = node.Left
		} else {
			node = node.Right
		}
	}
	return node.Match
}

// Depth returns the tree depth (leaf = 0).
func (t *Tree) Depth() int {
	if t.IsLeaf {
		return 0
	}
	l, r := t.Left.Depth(), t.Right.Depth()
	if l > r {
		return l + 1
	}
	return r + 1
}

// TreeMatcher wraps a learned tree as a Matcher: pairs predicted positive
// become correspondences, with the mean feature similarity as confidence.
type TreeMatcher struct {
	Extractor *FeatureExtractor
	Tree      *Tree
	// Blocker generates candidate pairs; nil means the full cross product.
	Blocker block.Blocker
}

// String implements match.Matcher; the extractor and tree render by identity.
func (tm *TreeMatcher) String() string {
	return fmt.Sprintf("tree(%p, %p, %v)", tm.Extractor, tm.Tree, tm.Blocker)
}

// Match implements match.Matcher.
func (tm *TreeMatcher) Match(a, b *model.ObjectSet) (*mapping.Mapping, error) {
	if tm.Extractor == nil || tm.Tree == nil {
		return nil, fmt.Errorf("tuning: %s is not trained", tm)
	}
	out := mapping.NewSame(a.LDS(), b.LDS())
	sc := tm.Extractor.scorer(a, b)
	block.PairsEach(candidates(tm.Blocker), a, b, func(p block.Pair) bool {
		feats := sc.features(p.A, p.B)
		if tm.Tree.Predict(feats) {
			var sum float64
			for _, f := range feats {
				sum += f
			}
			out.Add(p.A, p.B, sum/float64(len(feats)))
		}
		return true
	})
	return out, nil
}
