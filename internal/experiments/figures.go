package experiments

import (
	"fmt"

	"repro/internal/eval"
	"repro/internal/mapping"
	"repro/internal/match"
	"repro/internal/model"
)

// The figures with worked numeric examples (4, 6, 9) are reproduced
// exactly: the functions below rebuild the paper's inputs, run the
// operator, and render the outputs. Unit tests in the mapping and match
// packages additionally lock every value in; these renderings show them
// in the paper's layout.

// Figure4 renders the merge-operator example for all four combination
// functions.
func Figure4() (*TableResult, error) {
	dblp := model.LDS{Source: "A", Type: model.Publication}
	acm := model.LDS{Source: "B", Type: model.Publication}
	map1 := mapping.NewSame(dblp, acm)
	map1.Add("a1", "b1", 1)
	map1.Add("a2", "b2", 0.8)
	map2 := mapping.NewSame(dblp, acm)
	map2.Add("a1", "b1", 0.6)
	map2.Add("a1", "b5", 1)
	map2.Add("a3", "b3", 0.9)

	t := &TableResult{
		ID:      "Figure 4",
		Title:   "Example execution of merge operator",
		Columns: []string{"f", "Result"},
		Metrics: map[string]eval.Result{},
	}
	for _, f := range []struct {
		label string
		comb  mapping.Combiner
	}{
		{"Min-0", mapping.Min0Combiner},
		{"Avg", mapping.AvgCombiner},
		{"Avg-0", mapping.Avg0Combiner},
		{"Prefer map1", mapping.PreferCombiner(0)},
	} {
		got, err := mapping.Merge(f.comb, map1, map2)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{f.label, renderCorrs(got)})
	}
	return t, nil
}

// Figure6 renders the compose-operator example with f=Min and g=Relative.
func Figure6() (*TableResult, error) {
	map1 := mapping.New(model.LDS{Source: "DBLP", Type: model.Venue},
		model.LDS{Source: "ACM", Type: model.Publication}, "VenuePub")
	map1.Add("v1", "p1", 1)
	map1.Add("v1", "p2", 1)
	map1.Add("v1", "p3", 0.6)
	map1.Add("v2", "p2", 0.6)
	map1.Add("v2", "p3", 1)
	map2 := mapping.New(model.LDS{Source: "ACM", Type: model.Publication},
		model.LDS{Source: "ACM", Type: model.Venue}, "PubVenue")
	map2.Add("p1", "v'1", 1)
	map2.Add("p2", "v'1", 1)
	map2.Add("p3", "v'2", 1)

	got, err := mapping.Compose(map1, map2, mapping.MinCombiner, mapping.AggRelative)
	if err != nil {
		return nil, err
	}
	t := &TableResult{
		ID:      "Figure 6",
		Title:   "Example execution of compose operator (f=Min, g=Relative)",
		Columns: []string{"Domain", "Range", "Sim"},
		Metrics: map[string]eval.Result{},
	}
	for _, c := range got.Sorted() {
		t.Rows = append(t.Rows, []string{string(c.Domain), string(c.Range), fmt.Sprintf("%.3f", c.Sim)})
	}
	return t, nil
}

// Figure9 renders the full neighborhood-matcher execution for the DBLP
// venues of the paper's running example.
func Figure9() (*TableResult, error) {
	asso1 := mapping.New(model.LDS{Source: "DBLP", Type: model.Venue},
		model.LDS{Source: "DBLP", Type: model.Publication}, "VenuePub")
	asso1.Add("conf/VLDB/2001", "conf/VLDB/MadhavanBR01", 1)
	asso1.Add("conf/VLDB/2001", "conf/VLDB/ChirkovaHS01", 1)
	asso1.Add("journals/VLDB/2002", "journals/VLDB/ChirkovaHS02", 1)

	same := mapping.NewSame(model.LDS{Source: "DBLP", Type: model.Publication},
		model.LDS{Source: "ACM", Type: model.Publication})
	same.Add("conf/VLDB/MadhavanBR01", "P-672191", 1)
	same.Add("conf/VLDB/ChirkovaHS01", "P-672216", 1)
	same.Add("conf/VLDB/ChirkovaHS01", "P-641272", 0.6)
	same.Add("journals/VLDB/ChirkovaHS02", "P-641272", 1)
	same.Add("journals/VLDB/ChirkovaHS02", "P-672216", 0.6)

	asso2 := mapping.New(model.LDS{Source: "ACM", Type: model.Publication},
		model.LDS{Source: "ACM", Type: model.Venue}, "PubVenue")
	asso2.Add("P-672191", "V-645927", 1)
	asso2.Add("P-672216", "V-645927", 1)
	asso2.Add("P-641272", "V-641268", 1)

	got, err := match.NhMatch(asso1, same, asso2)
	if err != nil {
		return nil, err
	}
	t := &TableResult{
		ID:      "Figure 9",
		Title:   "Sample execution of neighborhood matcher for DBLP venues",
		Columns: []string{"Venue@DBLP", "Venue@ACM", "Sim"},
		Metrics: map[string]eval.Result{},
	}
	for _, c := range got.Sorted() {
		t.Rows = append(t.Rows, []string{string(c.Domain), string(c.Range), fmt.Sprintf("%.3f", c.Sim)})
	}
	return t, nil
}

// Figure8Hub evaluates the hub infrastructure of Figure 8 on the generated
// dataset: instead of matching GS and ACM directly, both connect to the
// hub DBLP and the GS-ACM mapping is derived by composing via the hub. The
// result compares the direct (existing links) approach with the hub
// composition — the paper's argument for routing mappings through a
// high-quality curated source.
func Figure8Hub(s *Setting) (*TableResult, error) {
	dblpGS, err := s.DBLPGSTitle()
	if err != nil {
		return nil, err
	}
	dblpACM, err := s.PubSameTitleDBLPACM()
	if err != nil {
		return nil, err
	}
	direct, err := s.GSACMDirect()
	if err != nil {
		return nil, err
	}
	viaHub, err := mapping.Compose(dblpGS.Inverse(), dblpACM, mapping.MinCombiner, mapping.AggMax)
	if err != nil {
		return nil, err
	}
	perfect := s.perfectGSACMWorking()
	metrics := map[string]eval.Result{
		"direct links": eval.Compare(direct, perfect),
		"via hub DBLP": eval.Compare(viaHub, perfect),
	}
	t := &TableResult{
		ID:      "Figure 8",
		Title:   "Hub infrastructure: GS-ACM directly vs composed via the DBLP hub",
		Columns: []string{"Strategy", "Precision", "Recall", "F-Measure"},
		Metrics: metrics,
	}
	for _, k := range []string{"direct links", "via hub DBLP"} {
		r := metrics[k]
		t.Rows = append(t.Rows, []string{k, eval.Pct(r.Precision), eval.Pct(r.Recall), eval.Pct(r.F1)})
	}
	return t, nil
}

// renderCorrs formats a small mapping compactly: (a1,b1,0.60) ...
func renderCorrs(m *mapping.Mapping) string {
	out := ""
	for i, c := range m.Sorted() {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("(%s,%s,%.2f)", c.Domain, c.Range, c.Sim)
	}
	if out == "" {
		out = "(empty)"
	}
	return out
}
