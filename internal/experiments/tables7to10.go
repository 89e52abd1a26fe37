package experiments

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/block"
	"repro/internal/eval"
	"repro/internal/mapping"
	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/script"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// Table7 reproduces "Matching DBLP-GS publications with the help of
// neighborhood matcher based on author same-mapping (n:m)". The merge
// prefers the title mapping and lets the neighborhood matcher contribute
// correspondences only for publications the title matcher left uncovered —
// raising recall while precision stays put, exactly the effect §5.4.3
// reports.
func Table7(s *Setting) (*TableResult, error) {
	if _, err := s.run(s.D.DBLP.Pubs, s.GSWork, pubTitleDBLPGS); err != nil {
		return nil, err
	}
	if _, err := s.run(s.D.DBLP.Authors, s.D.GS.Authors, authorSameDBLPGS); err != nil {
		return nil, err
	}
	// The n:m neighborhood matcher over the author same-mapping, with
	// RelativeLeft because the GS author lists are incomplete (§5.4.3),
	// restricted to the query-collected working set, keeping only
	// well-supported pairs. In the merge the title mapping is preferred;
	// the neighborhood matcher contributes its best correspondence only for
	// GS entries the title matcher left uncovered (truncated/garbled
	// titles). This is PreferMap applied per GS entry — recall rises while
	// precision stays at the title matcher's level, exactly the §5.4.3
	// effect.
	ms, err := s.run(s.D.DBLP.Pubs, s.GSWork, slices.Concat([]workflow.Step{pubTitleDBLPGS},
		workflow.NhMatch("nh-pub-dblp-gs", "DBLP.PubAuthor", "author-same-dblp-gs", "GS.AuthorPub", mapping.AggRelativeLeft,
			mapping.Where(func(c mapping.Correspondence) bool { return s.GSWork.Has(c.Range) }), mapping.Threshold{T: 0.6}),
		[]workflow.Step{selectStep("nh-best-dblp-gs", "nh-pub-dblp-gs",
			mapping.BestN{N: 1, Side: mapping.RangeSide}, mapping.Threshold{T: 0.8})},
		preferPerRange("pub-merged-dblp-gs", "pub-title-dblp-gs", "nh-best-dblp-gs"))...)
	if err != nil {
		return nil, err
	}
	title, nh, merged := ms[0], ms[2], ms[len(ms)-1]
	perfect := s.perfectDBLPGSWorking()
	metrics := map[string]eval.Result{
		"Attribute (Title)":     eval.Compare(title, perfect),
		"Neighborhood (Author)": eval.Compare(nh, perfect),
		"Merge":                 eval.Compare(merged, perfect),
	}
	names := []string{"Attribute (Title)", "Neighborhood (Author)", "Merge"}
	t := &TableResult{
		ID:      "Table 7",
		Title:   "Matching DBLP-GS publications with the help of neighborhood matcher (n:m)",
		Columns: append([]string{"Metric"}, names...),
		Metrics: metrics,
	}
	addMetricRows(t, names, metrics)
	full := eval.Compare(merged, s.D.Perfect.PubDBLPGS)
	t.Notes = append(t.Notes,
		fmt.Sprintf("against the full perfect mapping (incl. never-retrieved GS entries): F=%s", eval.Pct(full.F1)))
	return t, nil
}

// Table8 reproduces the same strategy for GS-ACM publications.
func Table8(s *Setting) (*TableResult, error) {
	gsPubs, acmPubs := s.GSWork, s.D.ACM.Pubs
	// Direct title matcher GS->ACM over the working set.
	direct, err := s.run(gsPubs, acmPubs, matchStep("pub-title-gs-acm", &match.Attribute{
		AttrA: "title", AttrB: "name", Sim: sim.Trigram, Threshold: gsTitleThreshold,
		Blocker: block.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 2},
	}))
	if err != nil {
		return nil, err
	}
	// Author same-mapping GS->ACM.
	if _, err := s.run(s.D.GS.Authors, s.D.ACM.Authors, matchStep("author-same-gs-acm", &match.Attribute{
		AttrA: "name", AttrB: "name", Sim: sim.PersonName, Threshold: 0.85,
		Blocker: block.TokenBlocking{AttrA: "name", AttrB: "name", MinShared: 1},
	})); err != nil {
		return nil, err
	}
	// n:m neighborhood, RelativeRight this time: the INCOMPLETE author
	// lists sit on the left (GS), so normalizing by the ACM side keeps the
	// same asymmetry §5.4.3 motivates. Its best pick per GS entry follows.
	ms, err := s.run(gsPubs, acmPubs, append(
		workflow.NhMatch("nh-pub-gs-acm", "GS.PubAuthor", "author-same-gs-acm", "ACM.AuthorPub", mapping.AggRelativeRight,
			mapping.Where(func(c mapping.Correspondence) bool { return s.GSWork.Has(c.Domain) }), mapping.Threshold{T: 0.6}),
		selectStep("nh-best-gs-acm", "nh-pub-gs-acm", mapping.BestN{N: 1, Side: mapping.DomainSide}, mapping.Threshold{T: 0.8}))...)
	if err != nil {
		return nil, err
	}
	nh, nhBest := ms[1], ms[2]

	// Merge as in Table 7; here the GS entries are the domain side, so the
	// plain PreferMap combiner already has per-entry semantics.
	// Additions require corroboration: the neighborhood's best pick per GS
	// entry must also show at least weak title evidence, killing the
	// single-author name coincidences of noise entries while keeping the
	// truncated-title entries the author evidence recovers. The weak title
	// matcher is read on those picks only, so it scores only them (Within):
	// the same verdicts as matching every token-blocked pair and looking the
	// picks up, at a fraction of the pairs.
	weak, err := s.run(gsPubs, acmPubs, matchStep("pub-title-weak-gs-acm", &match.Attribute{
		AttrA: "title", AttrB: "name", Sim: sim.Trigram, Threshold: 0.35,
		Blocker: block.Within{Pairs: nhBest,
			Tokens: block.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 1}},
	}))
	if err != nil {
		return nil, err
	}
	ms, err = s.run(gsPubs, acmPubs,
		selectStep("nh-corroborated-gs-acm", "nh-best-gs-acm",
			mapping.Where(func(c mapping.Correspondence) bool { return weak[0].Has(c.Domain, c.Range) })),
		workflow.Step{Name: "pub-merged-gs-acm", Use: []string{"pub-title-gs-acm", "nh-corroborated-gs-acm"}, F: mapping.PreferCombiner(0)})
	if err != nil {
		return nil, err
	}
	title, merged := direct[0], ms[1]
	perfect := s.perfectGSACMWorking()
	metrics := map[string]eval.Result{
		"Attribute (Title)":     eval.Compare(title, perfect),
		"Neighborhood (Author)": eval.Compare(nh, perfect),
		"Merge":                 eval.Compare(merged, perfect),
	}
	names := []string{"Attribute (Title)", "Neighborhood (Author)", "Merge"}
	t := &TableResult{
		ID:      "Table 8",
		Title:   "Matching GS-ACM publications with the help of neighborhood matcher (n:m)",
		Columns: append([]string{"Metric"}, names...),
		Metrics: metrics,
	}
	addMetricRows(t, names, metrics)
	return t, nil
}

// DuplicateCandidate is one row of Table 9.
type DuplicateCandidate struct {
	A, B          model.ID
	NameA, NameB  string
	CoAuthorSim   float64
	SharedCoAuths int
	NameSim       float64
	MergedSim     float64
	TrueDuplicate bool
}

// Table9 reproduces "Top-5 author duplicate candidates within DBLP" by
// executing the §4.3 script verbatim through the script interpreter:
// co-author neighborhood matching merged with trigram name similarity,
// trivial duplicates removed.
func Table9(s *Setting) (*TableResult, error) {
	result, cands, err := s.duplicateCandidates(5)
	if err != nil {
		return nil, err
	}
	t := &TableResult{
		ID:      "Table 9",
		Title:   "Top-5 author duplicate candidates within DBLP",
		Columns: []string{"Author", "Author'", "Co-Author", "(paths)", "Name", "Merge", "True dup?"},
		Metrics: map[string]eval.Result{},
	}
	for _, c := range cands {
		t.Rows = append(t.Rows, []string{
			c.NameA, c.NameB,
			eval.Pct(c.CoAuthorSim), fmt.Sprintf("(%d)", c.SharedCoAuths),
			eval.Pct(c.NameSim), eval.Pct(c.MergedSim),
			fmt.Sprintf("%v", c.TrueDuplicate),
		})
	}
	// Quality of the whole candidate ranking against the known duplicates.
	t.Metrics["dedup"] = eval.Compare(result, s.D.Perfect.AuthorDupsDBLP)
	t.Notes = append(t.Notes, fmt.Sprintf("ground truth: %d duplicate pairs (directed)", s.D.Perfect.AuthorDupsDBLP.Len()))
	return t, nil
}

// duplicateCandidates runs the dedup script on the Setting's engine (its
// steps run once per Setting), reads its Cache.CoAuthSim and Cache.NameSim
// steps there, and extracts the top-k ranked candidate pairs (undirected,
// deduplicated).
func (s *Setting) duplicateCandidates(k int) (*mapping.Mapping, []DuplicateCandidate, error) {
	src := `
$CoAuthSim = nhMatch (DBLP.CoAuthor, DBLP.AuthorAuthor, DBLP.CoAuthor)
$NameSim = attrMatch (DBLP.Author, DBLP.Author, Trigram, 0.5, "[name]", "[name]")
$Merged = merge ($CoAuthSim, $NameSim, Average)
$Result = select ($Merged, "[domain.id]<>[range.id]")
RETURN $Result
`
	v, err := script.New(s.engine).RunSource(src)
	if err != nil {
		return nil, nil, err
	}
	result := v.Mapping
	coAuthSim, _ := s.engine.Mapping("Cache.CoAuthSim")
	nameSim, _ := s.engine.Mapping("Cache.NameSim")

	// Rank merged candidates that have BOTH kinds of evidence (the paper's
	// table reports co-author overlap and name similarity together).
	type scored struct {
		c   mapping.Correspondence
		key [2]model.ID
	}
	seen := make(map[[2]model.ID]bool)
	var ranked []scored
	result.Each(func(c mapping.Correspondence) {
		if _, hasCo := coAuthSim.Sim(c.Domain, c.Range); !hasCo {
			return
		}
		if _, hasName := nameSim.Sim(c.Domain, c.Range); !hasName {
			return
		}
		key := [2]model.ID{c.Domain, c.Range}
		if c.Range < c.Domain {
			key = [2]model.ID{c.Range, c.Domain}
		}
		if seen[key] {
			return
		}
		seen[key] = true
		ranked = append(ranked, scored{c: c, key: key})
	})
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].c.Sim != ranked[j].c.Sim {
			return ranked[i].c.Sim > ranked[j].c.Sim
		}
		return ranked[i].key[0] < ranked[j].key[0]
	})
	if len(ranked) > k {
		ranked = ranked[:k]
	}
	var out []DuplicateCandidate
	authors := s.D.DBLP.Authors
	for _, r := range ranked {
		co, _ := coAuthSim.Sim(r.c.Domain, r.c.Range)
		name, _ := nameSim.Sim(r.c.Domain, r.c.Range)
		paths := mapping.NumPaths(s.D.DBLP.CoAuthor, s.D.DBLP.CoAuthor, r.c.Domain, r.c.Range)
		out = append(out, DuplicateCandidate{
			A: r.c.Domain, B: r.c.Range,
			NameA:         authors.Attr(authors.IndexOf(r.c.Domain), "name"),
			NameB:         authors.Attr(authors.IndexOf(r.c.Range), "name"),
			CoAuthorSim:   co,
			SharedCoAuths: paths,
			NameSim:       name,
			MergedSim:     r.c.Sim,
			TrueDuplicate: s.D.Perfect.AuthorDupsDBLP.Has(r.c.Domain, r.c.Range),
		})
	}
	return result, out, nil
}

// Table10 summarizes the best achieved F-measures per match task, like the
// paper's closing summary table.
func Table10(s *Setting) (*TableResult, error) {
	t2, err := Table2(s)
	if err != nil {
		return nil, err
	}
	t4, err := Table4(s)
	if err != nil {
		return nil, err
	}
	t5, err := Table5(s)
	if err != nil {
		return nil, err
	}
	t6, err := Table6(s)
	if err != nil {
		return nil, err
	}
	t7, err := Table7(s)
	if err != nil {
		return nil, err
	}
	t8, err := Table8(s)
	if err != nil {
		return nil, err
	}
	t := &TableResult{
		ID:      "Table 10",
		Title:   "Summary of matching results (F-Measure)",
		Columns: []string{"Pair", "Venues", "Publications", "Authors"},
		Metrics: map[string]eval.Result{
			"venues":           t4.Metrics["overall/Best-1"],
			"pubs DBLP-ACM":    t5.Metrics["overall/Merge"],
			"pubs DBLP-GS":     t7.Metrics["Merge"],
			"pubs GS-ACM":      t8.Metrics["Merge"],
			"authors DBLP-ACM": t6.Metrics["Merge"],
			"pubs table2":      t2.Metrics["Merge"],
		},
	}
	t.Rows = append(t.Rows,
		[]string{"DBLP - ACM",
			eval.Pct(t4.Metrics["overall/Best-1"].F1),
			eval.Pct(t5.Metrics["overall/Merge"].F1),
			eval.Pct(t6.Metrics["Merge"].F1)},
		[]string{"DBLP - GS", "-", eval.Pct(t7.Metrics["Merge"].F1), "-"},
		[]string{"GS - ACM", "-", eval.Pct(t8.Metrics["Merge"].F1), "-"},
	)
	return t, nil
}
