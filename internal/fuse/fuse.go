// Package fuse implements the iFuice-side payoff of object matching:
// using same-mappings to "fuse together and enhance information on equivalent objects for data analysis and query
// answering" (§1, §4). The canonical example from the paper: combine DBLP
// publications with their matching ACM DL and Google Scholar publications
// to obtain additional attribute values like citation counts.
package fuse

import (
	"fmt"
	"strconv"

	"repro/internal/mapping"
	"repro/internal/model"
)

// AggFunc folds the attribute values collected from matched instances.
type AggFunc func(values []string) (string, bool)

// Built-in aggregation functions for fusing attribute values.
var (
	// First takes the first non-empty value (source order = preference
	// order).
	First AggFunc = func(vs []string) (string, bool) {
		for _, v := range vs {
			if v != "" {
				return v, true
			}
		}
		return "", false
	}
	// MaxNumeric takes the largest numeric value — the right choice for
	// citation counts where sources undercount.
	MaxNumeric AggFunc = func(vs []string) (string, bool) {
		best, ok := 0.0, false
		for _, v := range vs {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				continue
			}
			if !ok || f > best {
				best, ok = f, true
			}
		}
		if !ok {
			return "", false
		}
		return strconv.FormatFloat(best, 'g', -1, 64), true
	}
	// SumNumeric adds numeric values (e.g. citation counts of duplicate GS
	// entries of one publication).
	SumNumeric AggFunc = func(vs []string) (string, bool) {
		sum, ok := 0.0, false
		for _, v := range vs {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				continue
			}
			sum += f
			ok = true
		}
		if !ok {
			return "", false
		}
		return strconv.FormatFloat(sum, 'g', -1, 64), true
	}
)

// Rule fuses one attribute: the values of FromAttr on matched range
// instances are aggregated with Agg and stored as ToAttr on the domain
// instance. MinSim filters which correspondences contribute.
type Rule struct {
	FromAttr string
	ToAttr   string
	Agg      AggFunc
	MinSim   float64
}

// Fuser enriches a base object set with attributes from matched instances
// in other sources, one (mapping, object set) pair at a time.
type Fuser struct {
	base    *model.ObjectSet
	sources []fuseSource
}

type fuseSource struct {
	m     *mapping.Mapping
	set   *model.ObjectSet
	rules []Rule
}

// NewFuser starts a fusion over the base set.
func NewFuser(base *model.ObjectSet) *Fuser { return &Fuser{base: base} }

// Add registers a matched source: m must map the base LDS to set's LDS.
func (f *Fuser) Add(m *mapping.Mapping, set *model.ObjectSet, rules ...Rule) error {
	if m.Domain() != f.base.LDS() {
		return fmt.Errorf("fuse: mapping domain %s does not match base %s", m.Domain(), f.base.LDS())
	}
	if m.Range() != set.LDS() {
		return fmt.Errorf("fuse: mapping range %s does not match source %s", m.Range(), set.LDS())
	}
	f.sources = append(f.sources, fuseSource{m: m, set: set, rules: rules})
	return nil
}

// Run produces a fused copy of the base set: every rule's aggregated value
// is attached to each base instance. The base set is not modified. An
// instance's matches contribute in a deterministic order, similarity
// descending, then range id: the order of the mapping's Sorted rows.
func (f *Fuser) Run() *model.ObjectSet {
	byDomain := make([]map[model.ID][]mapping.Correspondence, len(f.sources))
	for k, src := range f.sources {
		byDomain[k] = make(map[model.ID][]mapping.Correspondence)
		for _, c := range src.m.Sorted() {
			byDomain[k][c.Domain] = append(byDomain[k][c.Domain], c)
		}
	}
	out := f.base.Clone()
	for i := range out.Len() {
		for k, src := range f.sources {
			corrs := byDomain[k][out.IDAt(i)]
			for _, rule := range src.rules {
				var values []string
				for _, c := range corrs {
					if c.Sim < rule.MinSim {
						continue
					}
					if j := src.set.IndexOf(c.Range); j >= 0 {
						values = append(values, src.set.Attr(j, rule.FromAttr))
					}
				}
				if v, ok := rule.Agg(values); ok {
					out.SetAttr(i, rule.ToAttr, v)
				}
			}
		}
	}
	return out
}
