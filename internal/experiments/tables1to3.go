package experiments

import (
	"fmt"

	"repro/internal/eval"
	"repro/internal/mapping"
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
	title, err := s.PubSameTitleDBLPACM()
	if err != nil {
		return nil, err
	}
	author, err := s.pubSameAuthorDBLPACM()
	if err != nil {
		return nil, err
	}
	year, err := s.pubSameYearDBLPACM()
	if err != nil {
		return nil, err
	}
	merged, err := s.PubSameMergedDBLPACM()
	if err != nil {
		return nil, err
	}
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
// matrix layout.
func addMetricRows(t *TableResult, names []string, metrics map[string]eval.Result) {
	row := func(label string, get func(eval.Result) float64) {
		cells := []string{label}
		for _, n := range names {
			cells = append(cells, eval.Pct(get(metrics[n])))
		}
		t.Rows = append(t.Rows, cells)
	}
	row("Precision", func(r eval.Result) float64 { return r.Precision })
	row("Recall", func(r eval.Result) float64 { return r.Recall })
	row("F-Measure", func(r eval.Result) float64 { return r.F1 })
}

// Table3 reproduces "Matching publications via different compose paths":
// for each source pair the direct mapping, the mapping composed via the
// third source, and their merge.
func Table3(s *Setting) (*TableResult, error) {
	dblpACM, err := s.PubSameTitleDBLPACM()
	if err != nil {
		return nil, err
	}
	dblpGS, err := s.DBLPGSTitle()
	if err != nil {
		return nil, err
	}
	gsACM, err := s.GSACMDirect()
	if err != nil {
		return nil, err
	}

	// Composed alternatives (f=Min per path, Max over paths — same-mapping
	// composition should stay 1:1-ish, §4.1.2).
	composeF, composeG := mapping.MinCombiner, mapping.AggMax
	// DBLP-GS via ACM: DBLP-ACM ∘ inverse(GS-ACM links).
	dblpGSviaACM, err := mapping.Compose(dblpACM, gsACM.Inverse(), composeF, composeG)
	if err != nil {
		return nil, err
	}
	// DBLP-ACM via GS: DBLP-GS ∘ GS-ACM links.
	dblpACMviaGS, err := mapping.Compose(dblpGS, gsACM, composeF, composeG)
	if err != nil {
		return nil, err
	}
	// GS-ACM via DBLP (the hub path): inverse(DBLP-GS) ∘ DBLP-ACM.
	gsACMviaDBLP, err := mapping.Compose(dblpGS.Inverse(), dblpACM, composeF, composeG)
	if err != nil {
		return nil, err
	}

	// Merge prefers the direct mapping; the composed path only contributes
	// correspondences for uncovered objects, so the merged result "retains
	// the match quality level of the best alternative" (§5.3).
	mergePrefer := func(a, b *mapping.Mapping) (*mapping.Mapping, error) {
		return mapping.Merge(mapping.PreferCombiner(0), a, b)
	}
	dblpGSMerged, err := mergePrefer(dblpGS, dblpGSviaACM)
	if err != nil {
		return nil, err
	}
	dblpACMMerged, err := mergePrefer(dblpACM, dblpACMviaGS)
	if err != nil {
		return nil, err
	}
	gsACMMerged, err := mergePrefer(gsACMviaDBLP, gsACM)
	if err != nil {
		return nil, err
	}

	perfDBLPGS := s.perfectDBLPGSWorking()
	perfGSACM := s.perfectGSACMWorking()
	perfDBLPACM := s.D.Perfect.PubDBLPACM

	metrics := map[string]eval.Result{
		"DBLP-GS direct":   eval.Compare(dblpGS, perfDBLPGS),
		"DBLP-GS compose":  eval.Compare(dblpGSviaACM, perfDBLPGS),
		"DBLP-GS merge":    eval.Compare(dblpGSMerged, perfDBLPGS),
		"DBLP-ACM direct":  eval.Compare(dblpACM, perfDBLPACM),
		"DBLP-ACM compose": eval.Compare(dblpACMviaGS, perfDBLPACM),
		"DBLP-ACM merge":   eval.Compare(dblpACMMerged, perfDBLPACM),
		"GS-ACM direct":    eval.Compare(gsACM, perfGSACM),
		"GS-ACM compose":   eval.Compare(gsACMviaDBLP, perfGSACM),
		"GS-ACM merge":     eval.Compare(gsACMMerged, perfGSACM),
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
			gsACM.Len(), perfGSACM.Len(), eval.Pct(metrics["GS-ACM direct"].Recall)))
	return t, nil
}
