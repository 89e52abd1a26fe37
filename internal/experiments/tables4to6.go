package experiments

import (
	"repro/internal/block"
	"repro/internal/eval"
	"repro/internal/mapping"
	"repro/internal/match"
	"repro/internal/sim"
)

// Table4 reproduces "Matching DBLP-ACM venues using neighborhood matcher
// based on publication same-mapping (1:n)": the nhMatch procedure over
// venue-publication associations, evaluated under three selection
// strategies (50% and 80% thresholds, Best-1) with the paper's
// conference/journal breakdown.
func Table4(s *Setting) (*TableResult, error) {
	pubSame, err := s.PubSameTitleDBLPACM()
	if err != nil {
		return nil, err
	}
	nh, err := match.NhMatch(s.D.DBLP.VenuePub, pubSame, s.D.ACM.PubVenue)
	if err != nil {
		return nil, err
	}
	selections := []struct {
		label string
		sel   mapping.Selection
	}{
		{"50%", mapping.Threshold{T: 0.5}},
		{"80%", mapping.Threshold{T: 0.8}},
		{"Best-1", mapping.BestN{N: 1, Side: mapping.DomainSide}},
	}
	perfect := s.D.Perfect.VenueDBLPACM
	group := s.venueKindGroup()

	t := &TableResult{
		ID:      "Table 4",
		Title:   "Matching DBLP-ACM venues using neighborhood matcher (1:n)",
		Columns: []string{"Group", "Metric", "50%", "80%", "Best-1"},
		Metrics: map[string]eval.Result{},
	}
	grouped := make(map[string]map[string]eval.Result) // selection -> group -> result
	for _, sc := range selections {
		res := eval.CompareGrouped(sc.sel.Apply(nh), perfect, group)
		grouped[sc.label] = res
		for g, r := range res {
			t.Metrics[g+"/"+sc.label] = r
		}
	}
	for _, g := range []string{"conference", "journal", "overall"} {
		for _, metric := range []struct {
			name string
			get  func(eval.Result) float64
		}{
			{"Precision", func(r eval.Result) float64 { return r.Precision }},
			{"Recall", func(r eval.Result) float64 { return r.Recall }},
			{"F-Measure", func(r eval.Result) float64 { return r.F1 }},
		} {
			cells := []string{g, metric.name}
			for _, sc := range selections {
				cells = append(cells, eval.Pct(metric.get(grouped[sc.label][g])))
			}
			t.Rows = append(t.Rows, cells)
		}
	}
	return t, nil
}

// Table5 reproduces "Matching DBLP-ACM publications using neighborhood
// matcher based on venue same-mapping (n:1)": the venue mapping from Table
// 4 confines publication match candidates to corresponding venues; merging
// that evidence with the title matcher lifts precision dramatically,
// especially for journals with recurring column titles (§5.4.2).
func Table5(s *Setting) (*TableResult, error) {
	title, err := s.PubSameTitleDBLPACM()
	if err != nil {
		return nil, err
	}
	venueSame, err := s.VenueSameDBLPACM()
	if err != nil {
		return nil, err
	}
	// n:1 neighborhood: publications of corresponding venues.
	nh, err := match.NhMatch(s.D.DBLP.PubVenue, venueSame, s.D.ACM.VenuePub)
	if err != nil {
		return nil, err
	}
	// Merge: title evidence averaged with the venue-neighborhood evidence
	// under missing-as-zero; pairs lacking either kind of support drop
	// below the threshold.
	merged, err := mapping.Merge(mapping.Avg0Combiner, title, nh)
	if err != nil {
		return nil, err
	}
	merged = mapping.Threshold{T: 0.75}.Apply(merged)

	perfect := s.D.Perfect.PubDBLPACM
	group := s.pubKindGroup()
	strategies := []struct {
		label string
		m     *mapping.Mapping
	}{
		{"Attribute (Title)", title},
		{"Neighborhood (Venue)", nh},
		{"Merge", merged},
	}
	t := &TableResult{
		ID:      "Table 5",
		Title:   "Matching DBLP-ACM publications using neighborhood matcher based on venue same-mapping (n:1)",
		Columns: []string{"Group", "Metric", "Attribute (Title)", "Neighborhood (Venue)", "Merge"},
		Metrics: map[string]eval.Result{},
	}
	grouped := make(map[string]map[string]eval.Result)
	for _, st := range strategies {
		res := eval.CompareGrouped(st.m, perfect, group)
		grouped[st.label] = res
		for g, r := range res {
			t.Metrics[g+"/"+st.label] = r
		}
	}
	for _, g := range []string{"conference", "journal", "overall"} {
		for _, metric := range []struct {
			name string
			get  func(eval.Result) float64
		}{
			{"Precision", func(r eval.Result) float64 { return r.Precision }},
			{"Recall", func(r eval.Result) float64 { return r.Recall }},
			{"F-Measure", func(r eval.Result) float64 { return r.F1 }},
		} {
			cells := []string{g, metric.name}
			for _, st := range strategies {
				cells = append(cells, eval.Pct(metric.get(grouped[st.label][g])))
			}
			t.Rows = append(t.Rows, cells)
		}
	}
	return t, nil
}

// Table6 reproduces "Matching DBLP-ACM authors with the help of the
// neighborhood matcher based on publication same-mapping (n:m)". The
// attribute matcher uses name trigram at a high threshold; the
// neighborhood matcher scores authors by the overlap of their matched
// publications; the combination intersects a permissive name matcher with
// the neighborhood evidence (Figure 11's workflow) — refinding name
// variants the strict attribute matcher misses while the name requirement
// kills the frequent-co-author false positives.
func Table6(s *Setting) (*TableResult, error) {
	pubSame, err := s.PubSameMergedDBLPACM()
	if err != nil {
		return nil, err
	}
	attrStrict, err := s.matched("author-name-dblp-acm", &match.Attribute{
		MatcherName: "Author name",
		AttrA:       "name", AttrB: "name",
		Sim:       sim.Trigram,
		Threshold: nameThreshold,
		Blocker:   blockAuthors(),
	}, s.D.DBLP.Authors, s.D.ACM.Authors)
	if err != nil {
		return nil, err
	}
	nh, err := match.NhMatch(s.D.DBLP.AuthorPub, pubSame, s.D.ACM.PubAuthor)
	if err != nil {
		return nil, err
	}
	// Permissive name matcher for the combination (initial-aware).
	lowNames, err := s.matched("author-name-low-dblp-acm", &match.Attribute{
		MatcherName: "Author name (low)",
		AttrA:       "name", AttrB: "name",
		Sim:       sim.PersonName,
		Threshold: nameLowThreshold,
		Blocker:   blockAuthors(),
	}, s.D.DBLP.Authors, s.D.ACM.Authors)
	if err != nil {
		return nil, err
	}
	inner, err := mapping.Merge(mapping.Min0Combiner, lowNames, nh)
	if err != nil {
		return nil, err
	}
	inner = mapping.Threshold{T: 0.45}.Apply(inner)
	// Figure 11's merge: strict name evidence unioned with the
	// (permissive-name ∧ shared-publication) evidence.
	merged, err := mapping.Merge(mapping.MaxCombiner, attrStrict, inner)
	if err != nil {
		return nil, err
	}

	perfect := s.D.Perfect.AuthorDBLPACM
	metrics := map[string]eval.Result{
		"Attribute (Name)":           eval.Compare(attrStrict, perfect),
		"Neighborhood (Publication)": eval.Compare(nh, perfect),
		"Merge":                      eval.Compare(merged, perfect),
	}
	names := []string{"Attribute (Name)", "Neighborhood (Publication)", "Merge"}
	t := &TableResult{
		ID:      "Table 6",
		Title:   "Matching DBLP-ACM authors with the help of neighborhood matcher (n:m)",
		Columns: append([]string{"Metric"}, names...),
		Metrics: metrics,
	}
	addMetricRows(t, names, metrics)
	return t, nil
}

// blockAuthors blocks author-name comparisons on a shared name token
// (surname or given name), keeping the quadratic name comparison tractable
// at paper scale.
func blockAuthors() block.Blocker {
	return block.TokenBlocking{AttrA: "name", AttrB: "name", MinShared: 1}
}
