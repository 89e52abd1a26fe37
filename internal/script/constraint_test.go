package script

import (
	"fmt"
	"testing"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/race"
)

func evalConstraint(t *testing.T, src string, corr mapping.Correspondence, d, r *model.Instance) bool {
	t.Helper()
	c, err := ParseConstraint(src)
	if err != nil {
		t.Fatalf("ParseConstraint(%q): %v", src, err)
	}
	got, err := c.Eval(corr, d, r)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return got
}

func TestConstraintIDInequality(t *testing.T) {
	corr := mapping.Correspondence{Domain: "a", Range: "b", Sim: 0.9}
	if !evalConstraint(t, "[domain.id]<>[range.id]", corr, nil, nil) {
		t.Error("a <> b should hold")
	}
	same := mapping.Correspondence{Domain: "a", Range: "a", Sim: 1}
	if evalConstraint(t, "[domain.id]<>[range.id]", same, nil, nil) {
		t.Error("a <> a should not hold")
	}
}

func TestConstraintYearDifference(t *testing.T) {
	d := model.NewInstance("p", map[string]string{"year": "2001"})
	r1 := model.NewInstance("q", map[string]string{"year": "2002"})
	r2 := model.NewInstance("q", map[string]string{"year": "2005"})
	corr := mapping.Correspondence{Domain: "p", Range: "q", Sim: 1}
	src := "abs([domain.year]-[range.year])<=1"
	if !evalConstraint(t, src, corr, d, r1) {
		t.Error("diff 1 should pass")
	}
	if evalConstraint(t, src, corr, d, r2) {
		t.Error("diff 4 should fail")
	}
}

func TestConstraintStringComparison(t *testing.T) {
	d := model.NewInstance("p", map[string]string{"kind": "conference"})
	corr := mapping.Correspondence{Domain: "p", Range: "q"}
	if !evalConstraint(t, "[domain.kind]='conference'", corr, d, nil) {
		t.Error("string equality failed")
	}
	if evalConstraint(t, "[domain.kind]='journal'", corr, d, nil) {
		t.Error("string inequality failed")
	}
}

func TestConstraintAndOr(t *testing.T) {
	d := model.NewInstance("p", map[string]string{"year": "2001", "kind": "conference"})
	r := model.NewInstance("q", map[string]string{"year": "2001"})
	corr := mapping.Correspondence{Domain: "p", Range: "q"}
	if !evalConstraint(t, "[domain.kind]='conference' AND [domain.year]=[range.year]", corr, d, r) {
		t.Error("AND failed")
	}
	if !evalConstraint(t, "[domain.kind]='journal' OR [domain.year]=2001", corr, d, r) {
		t.Error("OR failed")
	}
	if evalConstraint(t, "[domain.kind]='journal' AND [domain.year]=2001", corr, d, r) {
		t.Error("AND short-circuit failed")
	}
}

func TestConstraintSimReference(t *testing.T) {
	corr := mapping.Correspondence{Domain: "a", Range: "b", Sim: 0.75}
	if !evalConstraint(t, "[domain.sim]>=0.5", corr, nil, nil) {
		t.Error("sim reference failed")
	}
	if evalConstraint(t, "[range.sim]>0.8", corr, nil, nil) {
		t.Error("sim threshold failed")
	}
}

func TestConstraintParenthesesAndArithmetic(t *testing.T) {
	d := model.NewInstance("p", map[string]string{"a": "5"})
	r := model.NewInstance("q", map[string]string{"b": "3"})
	corr := mapping.Correspondence{Domain: "p", Range: "q"}
	if !evalConstraint(t, "([domain.a]-[range.b])+1=3", corr, d, r) {
		t.Error("arithmetic failed")
	}
}

func TestConstraintParseErrors(t *testing.T) {
	bad := []string{
		"",
		"[domain]<>[range.id]",
		"[middle.id]=1",
		"[domain.id",
		"abs[domain.year]<=1",
		"abs([domain.year]<=1",
		"'unterminated",
		"[domain.id]=1 trailing",
		"[domain.id]=)",
	}
	for _, src := range bad {
		if _, err := ParseConstraint(src); err == nil {
			t.Errorf("ParseConstraint(%q) should fail", src)
		}
	}
}

func TestConstraintEvalErrors(t *testing.T) {
	corr := mapping.Correspondence{Domain: "a", Range: "b"}
	// AND over non-booleans.
	c, err := ParseConstraint("([domain.id]) AND ([range.id])")
	if err == nil {
		if _, err = c.Eval(corr, nil, nil); err == nil {
			t.Error("AND over strings should fail at eval")
		}
	}
	// Constraint must be boolean.
	c2, err := ParseConstraint("[domain.id]")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Eval(corr, nil, nil); err == nil {
		t.Error("non-boolean constraint should fail")
	}
	// abs on non-number.
	c3, err := ParseConstraint("abs([domain.id])=1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c3.Eval(corr, nil, nil); err == nil {
		t.Error("abs on string id should fail")
	}
	// Arithmetic on strings.
	c4, err := ParseConstraint("[domain.id]+1=2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c4.Eval(corr, nil, nil); err == nil {
		t.Error("arithmetic on non-numeric id should fail")
	}
}

func TestConstraintSelection(t *testing.T) {
	dSet := model.NewObjectSet(dblpPub)
	dSet.AddNew("p1", map[string]string{"year": "2001"})
	dSet.AddNew("p2", map[string]string{"year": "1995"})
	rSet := model.NewObjectSet(acmPub)
	rSet.AddNew("q1", map[string]string{"year": "2002"})
	rSet.AddNew("q2", map[string]string{"year": "2002"})

	m := mapping.NewSame(dblpPub, acmPub)
	m.Add("p1", "q1", 0.9)
	m.Add("p2", "q2", 0.9)

	c, err := ParseConstraint("abs([domain.year]-[range.year])<=1")
	if err != nil {
		t.Fatal(err)
	}
	got := c.Selection(dSet, rSet).Apply(m)
	if got.Len() != 1 || !got.Has("p1", "q1") {
		t.Errorf("selection = %v", got.Correspondences())
	}
	if c.Selection(dSet, rSet).(*constraintSelection).String() == "" {
		t.Error("selection should describe itself")
	}
	if c.String() != "abs([domain.year]-[range.year])<=1" {
		t.Errorf("String = %q", c.String())
	}
}

// TestConstraintSelectionAllocs pins what a constraint costs on ids that
// are not numbers: no failed number parse allocates, so a row of
// [domain.id]<>[range.id] allocates only its two operands.
func TestConstraintSelectionAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const rows = 10000
	dSet, rSet := model.NewObjectSet(dblpPub), model.NewObjectSet(acmPub)
	m := mapping.NewSame(dblpPub, acmPub)
	for i := range rows {
		d, r := model.ID(fmt.Sprintf("p%d", i)), model.ID(fmt.Sprintf("q%d", i%97))
		dSet.AddNew(d, nil)
		if !rSet.Has(r) {
			rSet.AddNew(r, nil)
		}
		m.Add(d, r, 0.5)
	}
	c, err := ParseConstraint("[domain.id]<>[range.id]")
	if err != nil {
		t.Fatal(err)
	}
	sel := c.Selection(dSet, rSet)
	if got := sel.Apply(m); got.Len() != rows {
		t.Fatalf("selection kept %d of %d rows", got.Len(), rows)
	}
	if allocs := testing.AllocsPerRun(5, func() { sel.Apply(m) }); allocs > 2*rows+64 {
		t.Errorf("Apply over %d rows allocates %.0f times, want at most %d", rows, allocs, 2*rows+64)
	}
}

func TestConstraintMissingAttributeComparesEmpty(t *testing.T) {
	corr := mapping.Correspondence{Domain: "a", Range: "b"}
	d := model.NewInstance("a", nil)
	if !evalConstraint(t, "[domain.missing]=''", corr, d, nil) {
		t.Error("missing attribute should compare as empty string")
	}
}

// FuzzConstraintMatchesReference holds ParseConstraint and Eval to the
// reference parser and evaluator in constraint_ref_test.go: both accept or
// both reject every input, and an accepted constraint gives the same
// condition, or fails, on the same correspondences and instances.
func FuzzConstraintMatchesReference(f *testing.F) {
	for _, src := range []string{
		"[domain.id]<>[range.id]",
		"abs([domain.year]-[range.year])<=1",
		"[domain.kind]='conference' AND [range.year]>=1994",
		"[domain.kind]='conference' AND [domain.year]=[range.year]",
		"[domain.kind]='journal' OR [domain.year]=2001",
		"[domain.sim]>=0.5",
		"[range.sim]>0.8",
		"([domain.a]-[range.b])+1=3",
		"[domain.missing]=''",
		"[domain.year]=[range.year]",
		"([domain.id]) AND ([range.id])",
		"[domain.id]",
		"abs([domain.id])=1",
		"[domain.id]+1=2",
		"",
		"[domain]<>[range.id]",
		"[middle.id]=1",
		"[domain.id",
		"abs[domain.year]<=1",
		"abs([domain.year]<=1",
		"'unterminated",
		"[domain.id]=1 trailing",
		"[domain.id]=)",
	} {
		f.Add(src)
	}
	withYear := func(y string) *model.Instance {
		return model.NewInstance("p", map[string]string{"year": y, "kind": "conference", "a": "5", "b": " 3 ", "n": "-0"})
	}
	instances := []*model.Instance{
		nil,
		model.NewInstance("q", nil),
		withYear("2001"),
		withYear("2002"),
		model.NewInstance("r", map[string]string{"year": "NaN", "kind": "journal", "a": "x", "id": "1"}),
	}
	// Operands at the edge of what ParseFloat reads as a number.
	for _, op := range []string{"inf", "-Inf", "+.5", ".", "-", "nan", "0x1p-2", "1_0", " 1e3 ", ""} {
		instances = append(instances, model.NewInstance("o", map[string]string{"year": op, "a": op, "b": op, "id": op}))
	}
	corrs := []mapping.Correspondence{
		{Domain: "a", Range: "b", Sim: 0.75},
		{Domain: "1", Range: " 2 ", Sim: 0},
		{Domain: "x", Range: "x", Sim: 1},
		{Domain: "inf", Range: "+.5", Sim: 0.5},
	}
	f.Fuzz(func(t *testing.T, src string) {
		got, gerr := ParseConstraint(src)
		ref, rerr := parseReferenceConstraint(src)
		if (gerr == nil) != (rerr == nil) {
			t.Fatalf("%q: ParseConstraint error %v, reference error %v", src, gerr, rerr)
		}
		if gerr != nil {
			return
		}
		for _, corr := range corrs {
			for _, d := range instances {
				for _, r := range instances {
					gv, gerr := got.Eval(corr, d, r)
					rv, rerr := ref.Eval(corr, d, r)
					if (gerr == nil) != (rerr == nil) || gv != rv {
						t.Fatalf("%q on %v, %v, %v: Eval = %v, %v; reference %v, %v", src, corr, d, r, gv, gerr, rv, rerr)
					}
				}
			}
		}
	})
}
