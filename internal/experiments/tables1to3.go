package experiments

import (
	"fmt"
	"slices"

	"repro/internal/eval"
	"repro/internal/mapping"
	"repro/internal/workflow"
)

// Table1 reports the instance counts of the three sources (paper Table 1:
// DBLP 130 venues / 2 616 publications / 3 319 authors; ACM 128 / 2 294 /
// 3 547; Google Scholar 64 263 publications, author count in parentheses
// because GS authors are extracted reference strings).
func Table1(s *Setting) (*TableResult, error) {
	t := &TableResult{
		ID:      "Table 1",
		Title:   "Number of instances for the considered data sources",
		Columns: []string{"Source", "Venues", "Publications", "Authors"},
		Metrics: map[string]eval.Result{},
	}
	t.Rows = append(t.Rows,
		[]string{"DBLP", fmt.Sprint(s.D.DBLP.Venues.Len()), fmt.Sprint(s.D.DBLP.Pubs.Len()), fmt.Sprint(s.D.DBLP.Authors.Len())},
		[]string{"ACM DL", fmt.Sprint(s.D.ACM.Venues.Len()), fmt.Sprint(s.D.ACM.Pubs.Len()), fmt.Sprint(s.D.ACM.Authors.Len())},
		[]string{"Google Scholar", "-", fmt.Sprint(s.D.GS.Pubs.Len()), fmt.Sprintf("(%d)", s.D.GS.Authors.Len())},
	)
	t.Notes = append(t.Notes,
		fmt.Sprintf("GS working set collected via %d title queries: %d entries", s.D.DBLP.Pubs.Len(), s.GSWork.Len()))
	return t, nil
}

// Table2 reproduces "Matching DBLP-ACM publications using attribute
// matchers": Title, Author and Year matchers individually plus their merge
// (weighted, missing-as-zero, 80% threshold).
func Table2(s *Setting) (*TableResult, error) {
	ms, err := s.run(s.D.DBLP.Pubs, s.D.ACM.Pubs, pubTitleDBLPACM, pubAuthorDBLPACM, pubYearDBLPACM, pubMergedDBLPACM)
	if err != nil {
		return nil, err
	}
	title, author, year, merged := ms[0], ms[1], ms[2], ms[3]
	perfect := s.D.Perfect.PubDBLPACM
	metrics := map[string]eval.Result{
		"Title":  eval.Compare(title, perfect),
		"Author": eval.Compare(author, perfect),
		"Year":   eval.Compare(year, perfect),
		"Merge":  eval.Compare(merged, perfect),
	}
	names := []string{"Title", "Author", "Year", "Merge"}
	t := &TableResult{
		ID:      "Table 2",
		Title:   "Matching DBLP-ACM publications using attribute matchers",
		Columns: append([]string{"Metric"}, names...),
		Metrics: metrics,
	}
	addMetricRows(t, names, metrics)
	return t, nil
}

// addMetricRows appends the Precision/Recall/F-Measure rows in the paper's
// matrix layout, each led by the cells of lead.
func addMetricRows(t *TableResult, names []string, metrics map[string]eval.Result, lead ...string) {
	row := func(label string, get func(eval.Result) float64) {
		cells := append(slices.Clone(lead), label)
		for _, n := range names {
			cells = append(cells, eval.Pct(get(metrics[n])))
		}
		t.Rows = append(t.Rows, cells)
	}
	row("Precision", func(r eval.Result) float64 { return r.Precision })
	row("Recall", func(r eval.Result) float64 { return r.Recall })
	row("F-Measure", func(r eval.Result) float64 { return r.F1 })
}

// addGroupedRows is the grouped layout of Tables 4 and 5: each mapping,
// named by the label at its index, is evaluated per group, every group's
// result is kept in Metrics as "group/label", and the conference, journal
// and overall metric rows follow, each led by its group.
func addGroupedRows(t *TableResult, labels []string, maps []*mapping.Mapping, perfect *mapping.Mapping, group eval.GroupFunc) {
	for i, m := range maps {
		for g, r := range eval.CompareGrouped(m, perfect, group) {
			t.Metrics[g+"/"+labels[i]] = r
		}
	}
	for _, g := range []string{"conference", "journal", "overall"} {
		keys := make([]string, len(labels))
		for i, label := range labels {
			keys[i] = g + "/" + label
		}
		addMetricRows(t, keys, t.Metrics, g)
	}
}

// Table3 reproduces "Matching publications via different compose paths":
// for each source pair the direct mapping, the mapping composed via the
// third source, and their merge.
func Table3(s *Setting) (*TableResult, error) {
	dblpPubs, acmPubs := s.D.DBLP.Pubs, s.D.ACM.Pubs
	if _, err := s.run(dblpPubs, acmPubs, pubTitleDBLPACM); err != nil {
		return nil, err
	}
	if _, err := s.run(dblpPubs, s.GSWork, pubTitleDBLPGS); err != nil {
		return nil, err
	}
	// Per source pair: the direct mapping, the composed alternative (f=Min
	// per path, Max over paths — same-mapping composition should stay
	// 1:1-ish, §4.1.2) and their merge. The merge prefers the direct
	// mapping; the composed path only contributes correspondences for
	// uncovered objects, so the merged result "retains the match quality
	// level of the best alternative" (§5.3). GS-ACM via DBLP is the hub
	// path, and there the composition is preferred over the sparse links.
	gsACM, err := s.run(s.GSWork, acmPubs, slices.Concat([]workflow.Step{s.linksGSACM()}, gsACMViaDBLP, []workflow.Step{
		{Name: "pub-merged-paths-gs-acm", Use: []string{"pub-gs-acm-via-dblp", "pub-links-gs-acm"}, F: mapping.PreferCombiner(0)},
	})...)
	if err != nil {
		return nil, err
	}
	// DBLP-GS via ACM: DBLP-ACM ∘ inverse(GS-ACM links).
	dblpGS, err := s.run(dblpPubs, s.GSWork, pubTitleDBLPGS, inverse("pub-links-gs-acm"),
		composeStep("pub-dblp-gs-via-acm", mapping.AggMax, "pub-title-dblp-acm", "inverse pub-links-gs-acm"),
		workflow.Step{Name: "pub-merged-paths-dblp-gs", Use: []string{"pub-title-dblp-gs", "pub-dblp-gs-via-acm"}, F: mapping.PreferCombiner(0)})
	if err != nil {
		return nil, err
	}
	// DBLP-ACM via GS: DBLP-GS ∘ GS-ACM links.
	dblpACM, err := s.run(dblpPubs, acmPubs, pubTitleDBLPACM,
		composeStep("pub-dblp-acm-via-gs", mapping.AggMax, "pub-title-dblp-gs", "pub-links-gs-acm"),
		workflow.Step{Name: "pub-merged-paths-dblp-acm", Use: []string{"pub-title-dblp-acm", "pub-dblp-acm-via-gs"}, F: mapping.PreferCombiner(0)})
	if err != nil {
		return nil, err
	}

	perfDBLPGS := s.perfectDBLPGSWorking()
	perfGSACM := s.perfectGSACMWorking()
	perfDBLPACM := s.D.Perfect.PubDBLPACM
	metrics := map[string]eval.Result{
		"DBLP-GS direct":   eval.Compare(dblpGS[0], perfDBLPGS),
		"DBLP-GS compose":  eval.Compare(dblpGS[2], perfDBLPGS),
		"DBLP-GS merge":    eval.Compare(dblpGS[3], perfDBLPGS),
		"DBLP-ACM direct":  eval.Compare(dblpACM[0], perfDBLPACM),
		"DBLP-ACM compose": eval.Compare(dblpACM[1], perfDBLPACM),
		"DBLP-ACM merge":   eval.Compare(dblpACM[2], perfDBLPACM),
		"GS-ACM direct":    eval.Compare(gsACM[0], perfGSACM),
		"GS-ACM compose":   eval.Compare(gsACM[2], perfGSACM),
		"GS-ACM merge":     eval.Compare(gsACM[3], perfGSACM),
	}
	t := &TableResult{
		ID:      "Table 3",
		Title:   "Matching publications via different compose paths (F-Measure)",
		Columns: []string{"Matcher", "DBLP - GS (via ACM)", "DBLP - ACM (via GS)", "GS - ACM (via DBLP)"},
		Metrics: metrics,
	}
	row := func(label string, keys ...string) {
		cells := []string{label}
		for _, k := range keys {
			cells = append(cells, eval.Pct(metrics[k].F1))
		}
		t.Rows = append(t.Rows, cells)
	}
	row("Direct", "DBLP-GS direct", "DBLP-ACM direct", "GS-ACM direct")
	row("Compose", "DBLP-GS compose", "DBLP-ACM compose", "GS-ACM compose")
	row("Merge", "DBLP-GS merge", "DBLP-ACM merge", "GS-ACM merge")
	t.Notes = append(t.Notes,
		"GS evaluation is strict: every duplicate GS entry of a publication must be matched (§5.6)",
		fmt.Sprintf("existing GS-ACM links: %d of %d true pairs (recall %s)",
			gsACM[0].Len(), perfGSACM.Len(), eval.Pct(metrics["GS-ACM direct"].Recall)))
	return t, nil
}
