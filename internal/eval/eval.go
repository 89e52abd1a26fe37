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
// other also contains its (domain, range) pair. The two share an ID
// dictionary, as every mapping the program builds does, so the probe is
// ordinal-to-ordinal over the columns: one integer-keyed map hit per row,
// no id strings resolved or hashed except the domain id handed to fn for
// grouping. Mappings over different dictionaries are a programming error
// and panic, as mapping.FromColumns does on bad columns.
func eachMembership(m, other *mapping.Mapping, fn func(domain model.ID, hit bool)) {
	if m.Dict() != other.Dict() {
		panic("eval: the result and the perfect mapping intern through different ID dictionaries")
	}
	ids := m.Dict().All()
	m.EachOrd(func(d, rng uint32, _ float64) bool {
		fn(ids[d], other.HasOrd(d, rng))
		return true
	})
}

// Compare evaluates got against the perfect mapping. Similarity values are
// ignored; membership decides. An empty perfect mapping yields recall 1;
// an empty result yields precision 1 (nothing wrong was claimed). The two
// must share an ID dictionary; mappings over different ones panic.
//
// A mapping holds each pair once, so the perfect pairs got misses are the
// perfect ones less those it hits: one membership pass, over got, probes
// the perfect mapping's pair index and leaves got's unbuilt.
func Compare(got, perfect *mapping.Mapping) Result {
	var tp, fp int
	eachMembership(got, perfect, func(_ model.ID, hit bool) {
		if hit {
			tp++
		} else {
			fp++
		}
	})
	return result(tp, fp, perfect.Len()-tp)
}

// result derives the metrics from the counts.
func result(tp, fp, fn int) Result {
	r := Result{TruePos: tp, FalsePos: fp, FalseNeg: fn}
	r.Precision = safeDiv(tp, tp+fp)
	r.Recall = safeDiv(tp, tp+fn)
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
// under the key "overall". As in Compare, a group's false negatives are its
// perfect pairs less its true positives, and mappings over different ID
// dictionaries panic.
func CompareGrouped(got, perfect *mapping.Mapping, group GroupFunc) map[string]Result {
	type counts struct{ tp, fp, perfect int }
	byGroup := make(map[string]*counts)
	touch := func(dom model.ID) *counts {
		g := group(dom)
		if g == "" {
			return nil
		}
		c, ok := byGroup[g]
		if !ok {
			c = &counts{}
			byGroup[g] = c
		}
		return c
	}
	eachMembership(got, perfect, func(dom model.ID, hit bool) {
		switch c := touch(dom); {
		case c == nil:
		case hit:
			c.tp++
		default:
			c.fp++
		}
	})
	ids := perfect.Dict().All()
	perfect.EachOrd(func(d, _ uint32, _ float64) bool {
		if c := touch(ids[d]); c != nil {
			c.perfect++
		}
		return true
	})
	out := make(map[string]Result, len(byGroup)+1)
	var total counts
	for g, c := range byGroup {
		out[g] = result(c.tp, c.fp, c.perfect-c.tp)
		total.tp += c.tp
		total.fp += c.fp
		total.perfect += c.perfect
	}
	out["overall"] = result(total.tp, total.fp, total.perfect-total.tp)
	return out
}

// AttrGroup builds a GroupFunc that groups domain ids by an attribute of
// the given object set (e.g. venue kind).
func AttrGroup(set *model.ObjectSet, attr string) GroupFunc {
	return func(id model.ID) string {
		if i := set.IndexOf(id); i >= 0 {
			return set.Attr(i, attr)
		}
		return ""
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
