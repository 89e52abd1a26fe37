package experiments

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/eval"
	"repro/internal/mapping"
	"repro/internal/match"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// Ablations for the design choices DESIGN.md calls out. They are not paper
// tables but quantify the decisions the paper discusses qualitatively.

// AblationMergeMissing compares the treatments of missing correspondences
// in the Table 2 merge (§3.1: ignore vs assume-zero vs weighted).
func AblationMergeMissing(s *Setting) (*TableResult, error) {
	perfect := s.D.Perfect.PubDBLPACM
	variants := []struct {
		label string
		comb  mapping.Combiner
		thr   float64
	}{
		{"Avg (ignore missing)", mapping.AvgCombiner, 0.8},
		{"Avg-0 (missing=0)", mapping.Avg0Combiner, 0.55},
		{"Min-0 (intersection)", mapping.Min0Combiner, 0.5},
		{"Weighted-0 3:1:1", mapping.Combiner{Kind: mapping.Weighted, Weights: []float64{3, 1, 1}, MissingAsZero: true}, 0.8},
	}
	t := &TableResult{
		ID:      "Ablation A1",
		Title:   "Merge missing-value handling (Table 2 inputs)",
		Columns: []string{"Variant", "Precision", "Recall", "F-Measure"},
		Metrics: map[string]eval.Result{},
	}
	steps := []workflow.Step{pubTitleDBLPACM, pubAuthorDBLPACM, pubYearDBLPACM}
	for _, v := range variants {
		steps = append(steps, workflow.Step{Name: "pub-merged-dblp-acm " + v.label, Use: pubMergedDBLPACM.Use,
			F: v.comb, Select: []mapping.Selection{mapping.Threshold{T: v.thr}}})
	}
	ms, err := s.run(s.D.DBLP.Pubs, s.D.ACM.Pubs, steps...)
	if err != nil {
		return nil, err
	}
	for i, v := range variants {
		r := eval.Compare(ms[3+i], perfect)
		t.Metrics[v.label] = r
		t.Rows = append(t.Rows, []string{v.label, eval.Pct(r.Precision), eval.Pct(r.Recall), eval.Pct(r.F1)})
	}
	return t, nil
}

// AblationComposeAgg compares the path-aggregation functions of the
// author-based neighborhood matcher on dirty GS data (§5.4.3 motivates
// RelativeLeft over the symmetric Relative when the right association is
// incomplete).
func AblationComposeAgg(s *Setting) (*TableResult, error) {
	if _, err := s.run(s.D.DBLP.Authors, s.D.GS.Authors, authorSameDBLPGS); err != nil {
		return nil, err
	}
	aggs := []mapping.PathAgg{mapping.AggRelative, mapping.AggRelativeLeft, mapping.AggRelativeRight, mapping.AggMax}
	var steps []workflow.Step
	for _, g := range aggs {
		steps = append(steps, workflow.NhMatch("nh-pub-dblp-gs "+g.String(), "DBLP.PubAuthor", "author-same-dblp-gs", "GS.AuthorPub", g,
			mapping.Where(func(c mapping.Correspondence) bool { return s.GSWork.Has(c.Range) }), mapping.Threshold{T: 0.75})...)
	}
	ms, err := s.run(s.D.DBLP.Pubs, s.GSWork, steps...)
	if err != nil {
		return nil, err
	}
	perfect := s.perfectDBLPGSWorking()
	t := &TableResult{
		ID:      "Ablation A2",
		Title:   "Neighborhood path aggregation on incomplete GS author lists",
		Columns: []string{"g", "Precision", "Recall", "F-Measure"},
		Metrics: map[string]eval.Result{},
	}
	for i, g := range aggs {
		r := eval.Compare(ms[2*i+1], perfect)
		t.Metrics[g.String()] = r
		t.Rows = append(t.Rows, []string{g.String(), eval.Pct(r.Precision), eval.Pct(r.Recall), eval.Pct(r.F1)})
	}
	return t, nil
}

// AblationBlocking compares candidate-generation strategies for the
// DBLP-ACM title matcher: pair counts, reduction ratio, completeness and
// resulting match quality.
func AblationBlocking(s *Setting) (*TableResult, error) {
	perfect := s.D.Perfect.PubDBLPACM
	truth := make(map[block.Pair]bool, perfect.Len())
	perfect.Each(func(c mapping.Correspondence) {
		truth[block.Pair{A: c.Domain, B: c.Range}] = true
	})
	blockers := []block.Blocker{
		block.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 2},
		block.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 3},
		block.SortedNeighborhood{AttrA: "title", AttrB: "name", Window: 10},
	}
	// The full cross product is included only at small scale; at paper
	// scale it is the quadratic baseline the others avoid.
	if s.D.DBLP.Pubs.Len() <= 500 {
		blockers = append([]block.Blocker{block.CrossProduct{}}, blockers...)
	}
	t := &TableResult{
		ID:      "Ablation A3",
		Title:   "Blocking strategies for the DBLP-ACM title matcher",
		Columns: []string{"Blocker", "Pairs", "Reduction", "Completeness", "F-Measure"},
		Metrics: map[string]eval.Result{},
	}
	for _, b := range blockers {
		// Candidate sets run to hundreds of thousands of pairs: count them
		// and the true pairs among them off the stream.
		pairs, hits := 0, 0
		block.PairsEach(b, s.D.DBLP.Pubs, s.D.ACM.Pubs, func(p block.Pair) bool {
			pairs++
			if truth[p] {
				hits++
			}
			return true
		})
		m := &match.Attribute{
			AttrA: "title", AttrB: "name", Sim: sim.Trigram, Threshold: titleThreshold, Blocker: b,
		}
		got, err := m.Match(s.D.DBLP.Pubs, s.D.ACM.Pubs)
		if err != nil {
			return nil, err
		}
		r := eval.Compare(got, perfect)
		t.Metrics[b.String()] = r
		t.Rows = append(t.Rows, []string{
			b.String(),
			fmt.Sprint(pairs),
			fmt.Sprintf("%.3f", block.ReductionRatio(pairs, s.D.DBLP.Pubs, s.D.ACM.Pubs)),
			fmt.Sprintf("%.3f", block.PairCompleteness(hits, len(truth))),
			eval.Pct(r.F1),
		})
	}
	return t, nil
}

// AblationHubChoice quantifies Figure 8's hub argument: composing GS-ACM
// via the curated DBLP hub versus composing DBLP-ACM via the dirty GS
// source.
func AblationHubChoice(s *Setting) (*TableResult, error) {
	t3, err := Table3(s)
	if err != nil {
		return nil, err
	}
	t := &TableResult{
		ID:      "Ablation A4",
		Title:   "Hub choice for compose paths",
		Columns: []string{"Path", "F-Measure", "Assessment"},
		Metrics: map[string]eval.Result{
			"via clean hub (DBLP)": t3.Metrics["GS-ACM compose"],
			"via dirty hub (GS)":   t3.Metrics["DBLP-ACM compose"],
		},
	}
	clean := t3.Metrics["GS-ACM compose"]
	dirty := t3.Metrics["DBLP-ACM compose"]
	assess := func(f float64) string {
		if f >= 0.8 {
			return "good"
		}
		if f >= 0.5 {
			return "degraded"
		}
		return "poor"
	}
	t.Rows = append(t.Rows,
		[]string{"GS-ACM via DBLP (clean hub)", eval.Pct(clean.F1), assess(clean.F1)},
		[]string{"DBLP-ACM via GS (dirty hub)", eval.Pct(dirty.F1), assess(dirty.F1)},
	)
	return t, nil
}
