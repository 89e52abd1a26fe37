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

	"repro/internal/eval"
	"repro/internal/mapping"
	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/sim"
)

// Candidate is one attribute-matcher configuration in the search space.
type Candidate struct {
	AttrA, AttrB string
	SimName      string
	Sim          sim.Func
	Threshold    float64
}

// String renders the configuration.
func (c Candidate) String() string {
	return fmt.Sprintf("attr(%s~%s, %s, t=%.2f)", c.AttrA, c.AttrB, c.SimName, c.Threshold)
}

// Space enumerates candidate configurations: the cross product of
// attribute pairs, similarity functions and thresholds.
type Space struct {
	AttrPairs  [][2]string
	SimNames   []string
	Thresholds []float64
	Registry   *sim.Registry
}

// Candidates expands the space.
func (s Space) Candidates() ([]Candidate, error) {
	reg := s.Registry
	if reg == nil {
		reg = sim.NewRegistry()
	}
	var out []Candidate
	for _, pair := range s.AttrPairs {
		for _, name := range s.SimNames {
			fn, ok := reg.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("tuning: unknown similarity function %q", name)
			}
			for _, t := range s.Thresholds {
				out = append(out, Candidate{AttrA: pair[0], AttrB: pair[1], SimName: name, Sim: fn, Threshold: t})
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
	type scoring struct{ attrA, attrB, simName string }
	lowest := slices.Min(space.Thresholds)
	scored := make(map[scoring]*mapping.Mapping)
	outcomes := make([]Outcome, 0, len(cands))
	for _, c := range cands {
		k := scoring{c.AttrA, c.AttrB, c.SimName}
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
	fn           sim.Func
}

// NewFeatureExtractor builds an extractor; comparisons are given as
// (attrA, attrB, simName) triples resolved against the registry.
func NewFeatureExtractor(reg *sim.Registry, comparisons [][3]string) (*FeatureExtractor, error) {
	if reg == nil {
		reg = sim.NewRegistry()
	}
	fe := &FeatureExtractor{}
	for _, c := range comparisons {
		fn, ok := reg.Lookup(c[2])
		if !ok {
			return nil, fmt.Errorf("tuning: unknown similarity function %q", c[2])
		}
		fe.Names = append(fe.Names, fmt.Sprintf("%s~%s:%s", c[0], c[1], c[2]))
		fe.fns = append(fe.fns, featureFn{attrA: c[0], attrB: c[1], fn: fn})
	}
	return fe, nil
}

// Extract computes the feature vector for one pair.
func (fe *FeatureExtractor) Extract(a, b *model.Instance) []float64 {
	out := make([]float64, len(fe.fns))
	for i, f := range fe.fns {
		out[i] = f.fn(a.Attr(f.attrA), b.Attr(f.attrB))
	}
	return out
}

// BuildExamples labels candidate pairs against the training mapping.
// Negative examples are all candidate pairs absent from training whose
// domain object is covered by training.
func BuildExamples(fe *FeatureExtractor, a, b *model.ObjectSet, pairs [][2]model.ID, training *mapping.Mapping) []Example {
	covered := make(map[model.ID]bool)
	for _, id := range training.DomainIDs() {
		covered[id] = true
	}
	var out []Example
	for _, p := range pairs {
		ia, ib := a.Get(p[0]), b.Get(p[1])
		if ia == nil || ib == nil || !covered[p[0]] {
			continue
		}
		out = append(out, Example{
			Features: fe.Extract(ia, ib),
			Match:    training.Has(p[0], p[1]),
		})
	}
	return out
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
	MatcherName string
	Extractor   *FeatureExtractor
	Tree        *Tree
	Pairs       func(a, b *model.ObjectSet) [][2]model.ID
}

// Name implements match.Matcher.
func (tm *TreeMatcher) Name() string {
	if tm.MatcherName != "" {
		return tm.MatcherName
	}
	return "decision-tree"
}

// Match implements match.Matcher.
func (tm *TreeMatcher) Match(a, b *model.ObjectSet) (*mapping.Mapping, error) {
	if tm.Extractor == nil || tm.Tree == nil {
		return nil, fmt.Errorf("tuning: %s is not trained", tm.Name())
	}
	pairsFn := tm.Pairs
	if pairsFn == nil {
		pairsFn = func(a, b *model.ObjectSet) [][2]model.ID {
			var out [][2]model.ID
			for _, ida := range a.IDs() {
				for _, idb := range b.IDs() {
					out = append(out, [2]model.ID{ida, idb})
				}
			}
			return out
		}
	}
	out := mapping.NewSame(a.LDS(), b.LDS())
	for _, p := range pairsFn(a, b) {
		ia, ib := a.Get(p[0]), b.Get(p[1])
		if ia == nil || ib == nil {
			continue
		}
		feats := tm.Extractor.Extract(ia, ib)
		if tm.Tree.Predict(feats) {
			var sum float64
			for _, f := range feats {
				sum += f
			}
			out.Add(p[0], p[1], sum/float64(len(feats)))
		}
	}
	return out, nil
}
