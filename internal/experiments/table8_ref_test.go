package experiments

import (
	"reflect"
	"testing"

	"repro/internal/block"
	"repro/internal/eval"
	"repro/internal/mapping"
	"repro/internal/match"
	"repro/internal/sim"
	"repro/internal/sources"
)

// table8FullMatch is Table 8 as it was before the weak title matcher scored
// only the neighbourhood picks: the matcher runs over every token-blocked
// pair of the working set and ACM, and the picks are looked up in its
// result. It is the oracle Table8 must reproduce exactly.
func table8FullMatch(s *Setting) (*TableResult, error) {
	title, err := (&match.Attribute{
		AttrA: "title", AttrB: "name",
		Sim:       sim.Trigram,
		Threshold: gsTitleThreshold,
		Blocker:   block.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 2},
	}).Match(s.GSWork, s.D.ACM.Pubs)
	if err != nil {
		return nil, err
	}
	authorSame, err := (&match.Attribute{
		AttrA: "name", AttrB: "name",
		Sim:       sim.PersonName,
		Threshold: 0.85,
		Blocker:   block.TokenBlocking{AttrA: "name", AttrB: "name", MinShared: 1},
	}).Match(s.D.GS.Authors, s.D.ACM.Authors)
	if err != nil {
		return nil, err
	}
	nh, err := match.NhMatchAgg(s.D.GS.PubAuthor, authorSame, s.D.ACM.AuthorPub, mapping.AggRelativeRight)
	if err != nil {
		return nil, err
	}
	nh = nh.Filter(func(c mapping.Correspondence) bool { return s.GSWork.Has(c.Domain) })
	nh = mapping.Threshold{T: 0.6}.Apply(nh)
	weakTitle, err := (&match.Attribute{
		AttrA: "title", AttrB: "name",
		Sim:       sim.Trigram,
		Threshold: 0.35,
		Blocker:   block.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 1},
	}).Match(s.GSWork, s.D.ACM.Pubs)
	if err != nil {
		return nil, err
	}
	nhBest := mapping.BestN{N: 1, Side: mapping.DomainSide}.Apply(nh)
	nhBest = nhBest.Filter(func(c mapping.Correspondence) bool {
		return c.Sim >= 0.8 && weakTitle.Has(c.Domain, c.Range)
	})
	merged, err := mapping.Merge(mapping.PreferCombiner(0), title, nhBest)
	if err != nil {
		return nil, err
	}
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

// TestTable8MatchesFullMatch holds Table 8, whose weak title matcher scores
// only the neighbourhood picks it corroborates, to the full-match-then-look-up
// oracle: identical rows and metrics on small worlds of several seeds.
func TestTable8MatchesFullMatch(t *testing.T) {
	for _, seed := range []int64{42, 1, 7} {
		cfg := sources.SmallConfig()
		cfg.Seed = seed
		s := NewSetting(cfg)
		got, err := Table8(s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := table8FullMatch(s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: Table 8\n got %+v\nwant %+v", seed, got, want)
		}
	}
}
