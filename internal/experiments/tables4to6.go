package experiments

import (
	"slices"

	"repro/internal/block"
	"repro/internal/eval"
	"repro/internal/mapping"
	"repro/internal/match"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// Table4 reproduces "Matching DBLP-ACM venues using neighborhood matcher
// based on publication same-mapping (1:n)": the nhMatch procedure over
// venue-publication associations, evaluated under three selection
// strategies (50% and 80% thresholds, Best-1) with the paper's
// conference/journal breakdown.
func Table4(s *Setting) (*TableResult, error) {
	if _, err := s.run(s.D.DBLP.Pubs, s.D.ACM.Pubs, pubTitleDBLPACM); err != nil {
		return nil, err
	}
	ms, err := s.run(s.D.DBLP.Venues, s.D.ACM.Venues, slices.Concat(venueSameDBLPACM, []workflow.Step{
		selectStep("venue-nh-50-dblp-acm", "venue-nh-dblp-acm", mapping.Threshold{T: 0.5}),
		selectStep("venue-nh-80-dblp-acm", "venue-nh-dblp-acm", mapping.Threshold{T: 0.8}),
	})...)
	if err != nil {
		return nil, err
	}
	labels := []string{"50%", "80%", "Best-1"}
	selected := []*mapping.Mapping{ms[3], ms[4], ms[2]}
	t := &TableResult{
		ID:      "Table 4",
		Title:   "Matching DBLP-ACM venues using neighborhood matcher (1:n)",
		Columns: append([]string{"Group", "Metric"}, labels...),
		Metrics: map[string]eval.Result{},
	}
	addGroupedRows(t, labels, selected, s.D.Perfect.VenueDBLPACM, s.venueKindGroup())
	return t, nil
}

// Table5 reproduces "Matching DBLP-ACM publications using neighborhood
// matcher based on venue same-mapping (n:1)": the venue mapping from Table
// 4 confines publication match candidates to corresponding venues; merging
// that evidence with the title matcher lifts precision dramatically,
// especially for journals with recurring column titles (§5.4.2).
func Table5(s *Setting) (*TableResult, error) {
	if _, err := s.run(s.D.DBLP.Pubs, s.D.ACM.Pubs, pubTitleDBLPACM); err != nil {
		return nil, err
	}
	if _, err := s.run(s.D.DBLP.Venues, s.D.ACM.Venues, venueSameDBLPACM...); err != nil {
		return nil, err
	}
	// n:1 neighborhood: publications of corresponding venues, merged with
	// the title evidence (averaged under missing-as-zero; pairs lacking
	// either kind of support drop below the threshold).
	ms, err := s.run(s.D.DBLP.Pubs, s.D.ACM.Pubs, slices.Concat([]workflow.Step{pubTitleDBLPACM},
		workflow.NhMatch("pub-nh-venue-dblp-acm", "DBLP.PubVenue", "venue-same-dblp-acm", "ACM.VenuePub", mapping.AggRelative),
		[]workflow.Step{{Name: "pub-merged-venue-dblp-acm", Use: []string{"pub-title-dblp-acm", "pub-nh-venue-dblp-acm"},
			F: mapping.Avg0Combiner, Select: []mapping.Selection{mapping.Threshold{T: 0.75}}}})...)
	if err != nil {
		return nil, err
	}

	labels := []string{"Attribute (Title)", "Neighborhood (Venue)", "Merge"}
	t := &TableResult{
		ID:      "Table 5",
		Title:   "Matching DBLP-ACM publications using neighborhood matcher based on venue same-mapping (n:1)",
		Columns: append([]string{"Group", "Metric"}, labels...),
		Metrics: map[string]eval.Result{},
	}
	addGroupedRows(t, labels, []*mapping.Mapping{ms[0], ms[2], ms[3]}, s.D.Perfect.PubDBLPACM, s.pubKindGroup())
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
	if _, err := s.run(s.D.DBLP.Pubs, s.D.ACM.Pubs, pubTitleDBLPACM, pubAuthorDBLPACM, pubYearDBLPACM, pubMergedDBLPACM); err != nil {
		return nil, err
	}
	ms, err := s.run(s.D.DBLP.Authors, s.D.ACM.Authors, slices.Concat(
		[]workflow.Step{matchStep("author-name-dblp-acm", &match.Attribute{
			AttrA: "name", AttrB: "name", Sim: sim.Trigram, Threshold: nameThreshold,
			Blocker: blockAuthors(),
		})},
		workflow.NhMatch("author-nh-dblp-acm", "DBLP.AuthorPub", "pub-merged-dblp-acm", "ACM.PubAuthor", mapping.AggRelative),
		[]workflow.Step{
			// Permissive name matcher for the combination (initial-aware).
			matchStep("author-name-low-dblp-acm", &match.Attribute{
				AttrA: "name", AttrB: "name", Sim: sim.PersonName, Threshold: nameLowThreshold,
				Blocker: blockAuthors(),
			}),
			{Name: "author-name-low-nh-dblp-acm", Use: []string{"author-name-low-dblp-acm", "author-nh-dblp-acm"},
				F: mapping.Min0Combiner, Select: []mapping.Selection{mapping.Threshold{T: 0.45}}},
			// Figure 11's merge: strict name evidence unioned with the
			// (permissive-name ∧ shared-publication) evidence.
			{Name: "author-merged-dblp-acm", Use: []string{"author-name-dblp-acm", "author-name-low-nh-dblp-acm"},
				F: mapping.MaxCombiner},
		})...)
	if err != nil {
		return nil, err
	}
	attrStrict, nh, merged := ms[0], ms[2], ms[5]

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
