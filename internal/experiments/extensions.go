package experiments

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/cluster"
	"repro/internal/eval"
	"repro/internal/mapping"
	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/tuning"
	"repro/internal/workflow"
)

// Extensions implement what the paper announces as future work:
//
//   - E1 (§5.6): determine the duplicates WITHIN Google Scholar first,
//     represent them as a self-mapping, and compose it with cross-source
//     same-mappings "to find more correspondences".
//   - E2 (§2.2/§7): self-tuning — automatically choosing attributes,
//     similarity functions and thresholds from training data, including a
//     decision-tree match classifier.

// ExtensionGSSelfMapping implements the §5.6 outlook: duplicate GS entries
// are clustered into a transitively-closed self-mapping, which is then
// composed with the DBLP-GS title mapping so that every entry of a matched
// cluster is reached — lifting recall under the strict all-duplicates
// evaluation.
func ExtensionGSSelfMapping(s *Setting) (*TableResult, error) {
	if _, err := s.run(s.D.DBLP.Pubs, s.GSWork, pubTitleDBLPGS); err != nil {
		return nil, err
	}
	// Duplicate detection within GS: title and author-list evidence
	// combined, exactly the §4.3 recipe applied to a dirty web source.
	self, err := s.run(s.GSWork, s.GSWork, matchStep("pub-self-gs", &match.MultiAttribute{
		Pairs: []match.AttrPair{
			{AttrA: "title", AttrB: "title", Sim: sim.Trigram, Weight: 2},
			{AttrA: "authors", AttrB: "authors", Sim: sim.Trigram, Weight: 1},
		},
		Threshold: 0.82,
		Blocker:   block.TokenBlocking{AttrA: "title", AttrB: "title", MinShared: 3},
	}, mapping.NotEqualIDs{}))
	if err != nil {
		return nil, err
	}
	rawSelf := self[0]
	// Clusters of duplicate entries, closed under transitivity, built once:
	// the step holds them by identity.
	if s.gsClusters == nil {
		s.gsClusters = cluster.TransitiveClosure(rawSelf, 0.82)
	}
	if _, err := s.run(s.GSWork, s.GSWork, matchStep("pub-clusters-gs", &match.ExistingMapping{M: s.gsClusters})); err != nil {
		return nil, err
	}
	// Compose: a DBLP publication matched to one entry of a cluster now
	// reaches every entry of that cluster. "To find more correspondences"
	// (§5.6), the composition contributes only entries the title mapping
	// left uncovered; covered entries keep their direct evidence, so
	// cluster errors cannot overwrite them.
	ms, err := s.run(s.D.DBLP.Pubs, s.GSWork, append([]workflow.Step{pubTitleDBLPGS,
		composeStep("pub-dblp-gs-via-clusters", mapping.AggMax, "pub-title-dblp-gs", "pub-clusters-gs"),
	}, preferPerRange("pub-merged-clusters-dblp-gs", "pub-title-dblp-gs", "pub-dblp-gs-via-clusters")...)...)
	if err != nil {
		return nil, err
	}
	title, improved := ms[0], ms[len(ms)-1]

	perfect := s.perfectDBLPGSWorking()
	metrics := map[string]eval.Result{
		"Title only":         eval.Compare(title, perfect),
		"With self-mapping":  eval.Compare(improved, perfect),
		"Self-mapping pairs": {},
	}
	clusters := cluster.FromMapping(rawSelf, 0.82)
	t := &TableResult{
		ID:      "Extension E1",
		Title:   "GS self-mapping composition (§5.6 future work)",
		Columns: []string{"Strategy", "Precision", "Recall", "F-Measure"},
		Metrics: metrics,
	}
	for _, k := range []string{"Title only", "With self-mapping"} {
		r := metrics[k]
		t.Rows = append(t.Rows, []string{k, eval.Pct(r.Precision), eval.Pct(r.Recall), eval.Pct(r.F1)})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("GS dedup found %d duplicate clusters covering %d entries",
			len(clusters), countClusterMembers(clusters)))
	return t, nil
}

func countClusterMembers(cs []cluster.Cluster) int {
	n := 0
	for _, c := range cs {
		n += len(c)
	}
	return n
}

// ExtensionSelfTuning demonstrates the self-tuning loop of §2.2: grid
// search over attribute/similarity/threshold configurations against a
// labelled training sample, plus a CART decision tree over similarity
// feature vectors used as a matcher. Both run on a publication sample to
// keep the grid tractable.
func ExtensionSelfTuning(s *Setting) (*TableResult, error) {
	// Training sample ("suitable training data", §2.2): every kth DBLP
	// publication, its true ACM counterparts, and an equal helping of
	// distractor ACM publications. Sampling both sides independently would
	// leave almost no labelled pairs.
	kA := s.D.DBLP.Pubs.Len() / 120
	if kA < 2 {
		kA = 2
	}
	sampleA := sampleSet(s.D.DBLP.Pubs, kA)
	var idsB []model.ID
	for i := range sampleA.Len() {
		for _, c := range s.D.Perfect.PubDBLPACM.ForDomain(sampleA.IDAt(i)) {
			idsB = append(idsB, c.Range)
		}
	}
	idsB = append(idsB, sampleSet(s.D.ACM.Pubs, kA).IDs()...)
	sampleB := s.D.ACM.Pubs.Subset(idsB)
	training := s.D.Perfect.PubDBLPACM.Filter(func(c mapping.Correspondence) bool {
		return sampleA.Has(c.Domain) && sampleB.Has(c.Range)
	})

	space := tuning.Space{
		AttrPairs:  [][2]string{{"title", "name"}, {"authors", "authors"}, {"year", "year"}},
		SimNames:   []string{"Trigram", "Levenshtein", "TokenJaccard"},
		Thresholds: []float64{0.6, 0.7, 0.8, 0.9},
	}
	outcomes, err := tuning.GridSearch(space, sampleA, sampleB, training)
	if err != nil {
		return nil, err
	}
	best, err := tuning.Best(outcomes)
	if err != nil {
		return nil, err
	}

	// Decision tree: features from three measures over blocked candidate
	// pairs, trained on the sample, applied to the sample.
	fe, err := tuning.NewFeatureExtractor([][3]string{
		{"title", "name", "Trigram"},
		{"authors", "authors", "Trigram"},
		{"year", "year", "YearExact"},
	})
	if err != nil {
		return nil, err
	}
	blocker := block.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 2}
	examples := tuning.BuildExamples(fe, sampleA, sampleB, blocker, training)
	tree := tuning.LearnTree(examples, tuning.TreeConfig{MaxDepth: 5, MinExamples: 4})
	tm := &tuning.TreeMatcher{Extractor: fe, Tree: tree, Blocker: blocker}
	treeResult, err := tm.Match(sampleA, sampleB)
	if err != nil {
		return nil, err
	}

	metrics := map[string]eval.Result{
		"Grid best":     best.Result,
		"Decision tree": eval.Compare(treeResult, training),
	}
	t := &TableResult{
		ID:      "Extension E2",
		Title:   "Self-tuning: grid search and decision tree (§2.2/§7)",
		Columns: []string{"Strategy", "Configuration", "Precision", "Recall", "F-Measure"},
		Metrics: metrics,
	}
	t.Rows = append(t.Rows, []string{
		"Grid best", best.Candidate.String(),
		eval.Pct(best.Result.Precision), eval.Pct(best.Result.Recall), eval.Pct(best.Result.F1),
	})
	for i, o := range outcomes {
		if i == 0 || i > 2 {
			continue
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("Grid #%d", i+1), o.Candidate.String(),
			eval.Pct(o.Result.Precision), eval.Pct(o.Result.Recall), eval.Pct(o.Result.F1),
		})
	}
	tr := metrics["Decision tree"]
	t.Rows = append(t.Rows, []string{
		"Decision tree", fmt.Sprintf("depth %d, %d examples", tree.Depth(), len(examples)),
		eval.Pct(tr.Precision), eval.Pct(tr.Recall), eval.Pct(tr.F1),
	})
	t.Notes = append(t.Notes, fmt.Sprintf("grid evaluated %d configurations on a 1/4 sample", len(outcomes)))
	return t, nil
}

// sampleSet keeps every kth instance of a set.
func sampleSet(set *model.ObjectSet, k int) *model.ObjectSet {
	var ids []model.ID
	for i := 0; i < set.Len(); i += k {
		ids = append(ids, set.IDAt(i))
	}
	return set.Subset(ids)
}
