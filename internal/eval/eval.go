// Package eval measures match quality against manually-confirmed (here:
// generator-emitted) perfect mappings "with the standard metrics precision,
// recall and F-measure" (§5.1), and renders paper-style result tables.
//
// The evaluation is deliberately strict in the way §5.6 describes for
// Google Scholar: the perfect mapping enumerates every duplicate entry, so
// a match workflow is only fully rewarded when it finds all duplicate GS
// entries of a publication, not just one.
package eval

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/mapping"
	"repro/internal/model"
)

// Result holds the three standard quality metrics plus the raw counts they
// derive from.
type Result struct {
	Precision float64
	Recall    float64
	F1        float64
	TruePos   int
	FalsePos  int
	FalseNeg  int
}

// eachMembership visits every correspondence of m and reports whether
// other also contains its (domain, range) pair. Mappings sharing an ID
// dictionary — every pair produced in-process without a private dictionary
// — probe ordinal-to-ordinal over the columns: one integer-keyed map hit
// per row, no id strings resolved or hashed except the domain id handed to
// fn for grouping. Mixed-dictionary pairs fall back to id-level probes.
func eachMembership(m, other *mapping.Mapping, fn func(domain model.ID, hit bool)) {
	if m.Dict() == other.Dict() {
		ids := m.Dict().All()
		m.EachOrd(func(d, rng uint32, _ float64) bool {
			fn(ids[d], other.HasOrd(d, rng))
			return true
		})
		return
	}
	m.Each(func(c mapping.Correspondence) {
		fn(c.Domain, other.Has(c.Domain, c.Range))
	})
}

// Compare evaluates got against the perfect mapping. Similarity values are
// ignored; membership decides. An empty perfect mapping yields recall 1;
// an empty result yields precision 1 (nothing wrong was claimed).
func Compare(got, perfect *mapping.Mapping) Result {
	var r Result
	eachMembership(got, perfect, func(_ model.ID, hit bool) {
		if hit {
			r.TruePos++
		} else {
			r.FalsePos++
		}
	})
	eachMembership(perfect, got, func(_ model.ID, hit bool) {
		if !hit {
			r.FalseNeg++
		}
	})
	r.Precision = safeDiv(r.TruePos, r.TruePos+r.FalsePos)
	r.Recall = safeDiv(r.TruePos, r.TruePos+r.FalseNeg)
	if r.Precision+r.Recall > 0 {
		r.F1 = 2 * r.Precision * r.Recall / (r.Precision + r.Recall)
	}
	return r
}

func safeDiv(num, den int) float64 {
	if den == 0 {
		return 1
	}
	return float64(num) / float64(den)
}

// String renders the result in the paper's percentage style.
func (r Result) String() string {
	return fmt.Sprintf("P=%5.1f%% R=%5.1f%% F=%5.1f%%", 100*r.Precision, 100*r.Recall, 100*r.F1)
}

// Pct formats a ratio as a paper-style percentage.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// GroupFunc assigns a correspondence to a named group (e.g. "conference"
// vs "journal"), or "" to skip it. Grouping follows the domain instance.
type GroupFunc func(domain model.ID) string

// CompareGrouped evaluates got against perfect within each group. A
// correspondence belongs to the group of its domain object; pairs mapping
// to "" are ignored. Returns group name -> result, plus the overall result
// under the key "overall".
func CompareGrouped(got, perfect *mapping.Mapping, group GroupFunc) map[string]Result {
	type counts struct{ tp, fp, fn int }
	byGroup := make(map[string]*counts)
	touch := func(g string) *counts {
		c, ok := byGroup[g]
		if !ok {
			c = &counts{}
			byGroup[g] = c
		}
		return c
	}
	eachMembership(got, perfect, func(dom model.ID, hit bool) {
		g := group(dom)
		if g == "" {
			return
		}
		if hit {
			touch(g).tp++
		} else {
			touch(g).fp++
		}
	})
	eachMembership(perfect, got, func(dom model.ID, hit bool) {
		g := group(dom)
		if g == "" {
			return
		}
		if !hit {
			touch(g).fn++
		}
	})
	out := make(map[string]Result, len(byGroup)+1)
	var total counts
	for g, c := range byGroup {
		r := Result{TruePos: c.tp, FalsePos: c.fp, FalseNeg: c.fn}
		r.Precision = safeDiv(c.tp, c.tp+c.fp)
		r.Recall = safeDiv(c.tp, c.tp+c.fn)
		if r.Precision+r.Recall > 0 {
			r.F1 = 2 * r.Precision * r.Recall / (r.Precision + r.Recall)
		}
		out[g] = r
		total.tp += c.tp
		total.fp += c.fp
		total.fn += c.fn
	}
	overall := Result{TruePos: total.tp, FalsePos: total.fp, FalseNeg: total.fn}
	overall.Precision = safeDiv(total.tp, total.tp+total.fp)
	overall.Recall = safeDiv(total.tp, total.tp+total.fn)
	if overall.Precision+overall.Recall > 0 {
		overall.F1 = 2 * overall.Precision * overall.Recall / (overall.Precision + overall.Recall)
	}
	out["overall"] = overall
	return out
}

// AttrGroup builds a GroupFunc that groups domain ids by an attribute of
// the given object set (e.g. venue kind).
func AttrGroup(set *model.ObjectSet, attr string) GroupFunc {
	return func(id model.ID) string {
		return set.Get(id).Attr(attr)
	}
}

// Table renders aligned text tables in the style of the paper's evaluation
// section; experiments.TableResult.Render prints through it.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers. The
// first column is the row label.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells beyond the column count are dropped, missing
// cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddResultRow appends a row with label and the three metrics.
func (t *Table) AddResultRow(label string, r Result) {
	t.AddRow(label, Pct(r.Precision), Pct(r.Recall), Pct(r.F1))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// ResultMatrix renders a metric-by-strategy table like the paper's Tables
// 2 and 5-8: one column per named strategy, rows Precision / Recall /
// F-Measure. Strategies render in the order given.
func ResultMatrix(title string, names []string, results map[string]Result) *Table {
	t := NewTable(title, append([]string{"Matcher"}, names...)...)
	metric := func(label string, get func(Result) float64) {
		cells := []string{label}
		for _, n := range names {
			cells = append(cells, Pct(get(results[n])))
		}
		t.AddRow(cells...)
	}
	metric("Precision", func(r Result) float64 { return r.Precision })
	metric("Recall", func(r Result) float64 { return r.Recall })
	metric("F-Measure", func(r Result) float64 { return r.F1 })
	return t
}

// SortedKeys returns map keys sorted, for deterministic report rendering.
func SortedKeys(results map[string]Result) []string {
	keys := make([]string, 0, len(results))
	for k := range results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
