package script

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/workflow"
)

var (
	dblpPub = model.LDS{Source: "DBLP", Type: model.Publication}
	acmPub  = model.LDS{Source: "ACM", Type: model.Publication}
	dblpVen = model.LDS{Source: "DBLP", Type: model.Venue}
	acmVen  = model.LDS{Source: "ACM", Type: model.Venue}
	dblpAut = model.LDS{Source: "DBLP", Type: model.Author}
)

func TestLexerBasics(t *testing.T) {
	toks, err := newLexer("$R = compose($A, $B, Min, Average) // comment\n").lex()
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]tokenKind, 0, len(toks))
	for _, tok := range toks {
		kinds = append(kinds, tok.kind)
	}
	want := []tokenKind{tokVar, tokAssign, tokIdent, tokLParen, tokVar, tokComma,
		tokVar, tokComma, tokIdent, tokComma, tokIdent, tokRParen, tokNewline, tokEOF}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexerMultilineArgs(t *testing.T) {
	// Newlines inside parentheses are not statement separators — the
	// paper's listings wrap argument lists.
	src := "$X = nhMatch (DBLP.CoAuthor, DBLP.AuthorAuthor,\n               DBLP.CoAuthor)\n"
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Stmts) != 1 {
		t.Fatalf("stmts = %d, want 1", len(s.Stmts))
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"$ = x\n", "\"unterminated\n", "$X = @\n"} {
		if _, err := newLexer(src).lex(); err == nil {
			t.Errorf("lexing %q should fail", src)
		}
	}
}

func TestParsePaperNhMatchProcedure(t *testing.T) {
	src := `
PROCEDURE nhMatch ( $Asso1, $Same, $Asso2)
   $Temp = compose ( $Asso1 , $Same , Min, Average )
   $Result = compose ( $Temp , $Asso2 , Min, Relative )
   RETURN $Result
END
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Stmts) != 1 {
		t.Fatalf("stmts = %d", len(s.Stmts))
	}
	proc, ok := s.Stmts[0].(*ProcDef)
	if !ok {
		t.Fatalf("not a procedure: %T", s.Stmts[0])
	}
	if proc.Name != "nhMatch" || len(proc.Params) != 3 || len(proc.Body) != 3 {
		t.Errorf("proc = %s params=%v body=%d", proc.Name, proc.Params, len(proc.Body))
	}
	if !strings.Contains(proc.String(), "compose") {
		t.Error("String() should render the body")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"$X compose($A)\n",           // missing =
		"PROCEDURE p($a)\n$x = $a\n", // missing END
		"RETURN\n",                   // missing expression
		"$X = compose($A,\n",         // unterminated args
		") = 3\n",                    // bad start
		"$X = DBLP.\n",               // dangling dot
		"PROCEDURE p()\nPROCEDURE q()\nEND\nEND\n", // nested proc
		"$X = foo($A) extra\n",                     // trailing tokens
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("parsing %q should fail", src)
		}
	}
}

// putMapping stores m in e's repository under name.
func putMapping(t *testing.T, e *workflow.Engine, name string, m *mapping.Mapping) {
	t.Helper()
	if err := e.Repo.Put(name, m); err != nil {
		t.Fatal(err)
	}
}

// addSet registers set in e's namespace under name.
func addSet(t *testing.T, e *workflow.Engine, name string, set *model.ObjectSet) {
	t.Helper()
	if err := e.AddObjectSet(name, set); err != nil {
		t.Fatal(err)
	}
}

// testEngine builds a namespace with the Figure 9 fixtures.
func testEngine(t *testing.T) *workflow.Engine {
	b := workflow.NewEngine(nil)

	asso1 := mapping.New(dblpVen, dblpPub, "VenuePub")
	asso1.Add("conf/VLDB/2001", "conf/VLDB/MadhavanBR01", 1)
	asso1.Add("conf/VLDB/2001", "conf/VLDB/ChirkovaHS01", 1)
	asso1.Add("journals/VLDB/2002", "journals/VLDB/ChirkovaHS02", 1)

	same := mapping.NewSame(dblpPub, acmPub)
	same.Add("conf/VLDB/MadhavanBR01", "P-672191", 1)
	same.Add("conf/VLDB/ChirkovaHS01", "P-672216", 1)
	same.Add("conf/VLDB/ChirkovaHS01", "P-641272", 0.6)
	same.Add("journals/VLDB/ChirkovaHS02", "P-641272", 1)
	same.Add("journals/VLDB/ChirkovaHS02", "P-672216", 0.6)

	asso2 := mapping.New(acmPub, acmVen, "PubVenue")
	asso2.Add("P-672191", "V-645927", 1)
	asso2.Add("P-672216", "V-645927", 1)
	asso2.Add("P-641272", "V-641268", 1)

	putMapping(t, b, "DBLP.VenuePub", asso1)
	putMapping(t, b, "DBLP-ACM.PubSame", same)
	putMapping(t, b, "ACM.PubVenue", asso2)
	return b
}

func TestRunPaperNeighborhoodWorkflow(t *testing.T) {
	// The §4.2 procedure applied to the Figure 9 inputs, all in script.
	src := `
PROCEDURE nhMatch ( $Asso1, $Same, $Asso2)
   $Temp = compose ( $Asso1 , $Same , Min, Average )
   $Result = compose ( $Temp , $Asso2 , Min, Relative )
   RETURN $Result
END

$VenueSame = nhMatch (DBLP.VenuePub, DBLP-ACM.PubSame, ACM.PubVenue)
RETURN $VenueSame
`
	ip := New(testEngine(t))
	v, err := ip.RunSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != MappingValue {
		t.Fatalf("result kind = %v", v.Kind)
	}
	m := v.Mapping
	want := map[[2]string]float64{
		{"conf/VLDB/2001", "V-645927"}:     0.8,
		{"conf/VLDB/2001", "V-641268"}:     0.3,
		{"journals/VLDB/2002", "V-645927"}: 0.3,
		{"journals/VLDB/2002", "V-641268"}: 2.0 / 3.0,
	}
	if m.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(want))
	}
	for k, ws := range want {
		s, ok := m.Sim(model.ID(k[0]), model.ID(k[1]))
		if !ok || math.Abs(s-ws) > 1e-9 {
			t.Errorf("sim%v = %v, want %v", k, s, ws)
		}
	}
}

func TestBuiltinNhMatchWithoutProcedure(t *testing.T) {
	src := `$V = nhMatch (DBLP.VenuePub, DBLP-ACM.PubSame, ACM.PubVenue)
RETURN $V
`
	v, err := New(testEngine(t)).RunSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if v.Mapping.Len() != 4 {
		t.Errorf("builtin nhMatch Len = %d, want 4", v.Mapping.Len())
	}
}

func TestBuiltinNhMatchCustomAgg(t *testing.T) {
	src := `RETURN nhMatch (DBLP.VenuePub, DBLP-ACM.PubSame, ACM.PubVenue, RelativeLeft)
`
	v, err := New(testEngine(t)).RunSource(src)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := v.Mapping.Sim("conf/VLDB/2001", "V-645927")
	if math.Abs(s-2.0/3.0) > 1e-9 {
		t.Errorf("RelativeLeft sim = %v, want 2/3", s)
	}
}

func TestRunPaperDedupScript(t *testing.T) {
	// §4.3's duplicate-author script, on a small co-author world where
	// niki/agathoniki share all three co-authors.
	b := workflow.NewEngine(nil)
	authors := model.NewObjectSet(dblpAut)
	names := map[model.ID]string{
		"niki": "Niki Trigoni", "agathoniki": "Agathoniki Trigoni",
		"x": "Xavier Xu", "y": "Yannis Young", "z": "Zoe Zhang",
	}
	for id, n := range names {
		authors.AddNew(id, map[string]string{"name": n})
	}
	co := mapping.New(dblpAut, dblpAut, "CoAuthor")
	for _, dup := range []model.ID{"niki", "agathoniki"} {
		for _, c := range []model.ID{"x", "y", "z"} {
			co.Add(dup, c, 1)
			co.Add(c, dup, 1)
		}
	}
	putMapping(t, b, "DBLP.CoAuthor", co)
	putMapping(t, b, "DBLP.AuthorAuthor", mapping.Identity(authors))
	addSet(t, b, "DBLP.Author", authors)

	src := `
$CoAuthSim = nhMatch (DBLP.CoAuthor, DBLP.AuthorAuthor, DBLP.CoAuthor)
$NameSim = attrMatch (DBLP.Author, DBLP.Author, Trigram, 0.5, "[name]", "[name]")
$Merged = merge ($CoAuthSim, $NameSim, Average)
$Result = select ($Merged, "[domain.id]<>[range.id]")
RETURN $Result
`
	v, err := New(b).RunSource(src)
	if err != nil {
		t.Fatal(err)
	}
	m := v.Mapping
	s, ok := m.Sim("niki", "agathoniki")
	if !ok {
		t.Fatal("duplicate pair missing from result")
	}
	if s <= 0.5 {
		t.Errorf("duplicate pair sim = %v, want > 0.5 (co-author 1.0 averaged with name sim)", s)
	}
	m.Each(func(c mapping.Correspondence) {
		if c.Domain == c.Range {
			t.Errorf("diagonal pair %v survived the selection", c)
		}
	})
	// The best pair should be the true duplicate.
	best := mapping.BestN{N: 1, Side: DomainSideForTest()}.Apply(m)
	if bs, _ := best.Sim("niki", "agathoniki"); bs == 0 {
		t.Error("true duplicate should be the top candidate for niki")
	}
}

// DomainSideForTest avoids importing mapping.DomainSide at a second name.
func DomainSideForTest() mapping.Side { return mapping.DomainSide }

func TestSelectThresholdBestDelta(t *testing.T) {
	b := testEngine(t)
	cases := []struct {
		src  string
		want int
	}{
		{`RETURN select(nhMatch(DBLP.VenuePub, DBLP-ACM.PubSame, ACM.PubVenue), Threshold, 0.5)`, 2},
		{`RETURN select(nhMatch(DBLP.VenuePub, DBLP-ACM.PubSame, ACM.PubVenue), Best, 1)`, 2},
		{`RETURN select(nhMatch(DBLP.VenuePub, DBLP-ACM.PubSame, ACM.PubVenue), Best, 1, range)`, 2},
		{`RETURN select(nhMatch(DBLP.VenuePub, DBLP-ACM.PubSame, ACM.PubVenue), Best, 1, both)`, 2},
		{`RETURN select(nhMatch(DBLP.VenuePub, DBLP-ACM.PubSame, ACM.PubVenue), Delta, 0.1)`, 2},
		{`RETURN select(nhMatch(DBLP.VenuePub, DBLP-ACM.PubSame, ACM.PubVenue), Delta, 0.6)`, 4},
	}
	for _, tc := range cases {
		v, err := New(b).RunSource(tc.src + "\n")
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if v.Mapping.Len() != tc.want {
			t.Errorf("%s -> %d corrs, want %d", tc.src, v.Mapping.Len(), tc.want)
		}
	}
}

func TestMergeVariantsInScript(t *testing.T) {
	b := workflow.NewEngine(nil)
	m1 := mapping.NewSame(dblpPub, acmPub)
	m1.Add("a1", "b1", 1)
	m1.Add("a2", "b2", 0.8)
	m2 := mapping.NewSame(dblpPub, acmPub)
	m2.Add("a1", "b1", 0.6)
	m2.Add("a3", "b3", 0.9)
	putMapping(t, b, "M.A", m1)
	putMapping(t, b, "M.B", m2)

	cases := []struct {
		f    string
		len  int
		a1b1 float64
	}{
		{"Average", 3, 0.8},
		{"Min", 3, 0.6},
		{"Max", 3, 1},
		{"Min-0", 1, 0.6},
		{"Avg-0", 3, 0.8},
		{"PreferMap1", 3, 1},
		{"PreferMap2", 3, 0.6},
	}
	for _, tc := range cases {
		v, err := New(b).RunSource("RETURN merge(M.A, M.B, " + tc.f + ")\n")
		if err != nil {
			t.Fatalf("%s: %v", tc.f, err)
		}
		if v.Mapping.Len() != tc.len {
			t.Errorf("merge(%s) len = %d, want %d", tc.f, v.Mapping.Len(), tc.len)
		}
		if s, _ := v.Mapping.Sim("a1", "b1"); math.Abs(s-tc.a1b1) > 1e-9 {
			t.Errorf("merge(%s) a1-b1 = %v, want %v", tc.f, s, tc.a1b1)
		}
	}
}

func TestInverseAndIdentityBuiltins(t *testing.T) {
	b := testEngine(t)
	set := model.NewObjectSet(dblpPub)
	set.AddNew("p1", nil)
	addSet(t, b, "DBLP.Publication", set)

	v, err := New(b).RunSource("RETURN inverse(DBLP.VenuePub)\n")
	if err != nil {
		t.Fatal(err)
	}
	if v.Mapping.Domain() != dblpPub {
		t.Errorf("inverse domain = %v", v.Mapping.Domain())
	}
	v, err = New(b).RunSource("RETURN identity(DBLP.Publication)\n")
	if err != nil {
		t.Fatal(err)
	}
	if v.Mapping.Len() != 1 || !v.Mapping.Has("p1", "p1") {
		t.Error("identity mapping wrong")
	}
}

func TestRuntimeErrors(t *testing.T) {
	b := testEngine(t)
	cases := []string{
		"RETURN $Undefined\n",
		"RETURN unknownFn($X)\n",
		"RETURN Nowhere.Nothing\n",
		"RETURN compose(DBLP.VenuePub, DBLP.VenuePub, Min, Relative)\n", // middle mismatch
		"RETURN compose(DBLP.VenuePub, DBLP-ACM.PubSame, Bogus, Relative)\n",
		"RETURN compose(DBLP.VenuePub, DBLP-ACM.PubSame, Min, Bogus)\n",
		"RETURN merge(DBLP.VenuePub, Min)\n", // association merge fails
		"RETURN select(DBLP-ACM.PubSame, Bogus, 1)\n",
		"RETURN select(DBLP-ACM.PubSame, Best, 1, sideways)\n",
		"RETURN attrMatch(DBLP.VenuePub, DBLP.VenuePub, Trigram, 0.5, \"[name]\", \"[name]\")\n",            // mappings, not sets
		"RETURN nhMatch(DBLP.VenuePub, DBLP-ACM.PubSame)\n",                                                 // wrong arity
		"PROCEDURE p($a)\nRETURN $a\nEND\nRETURN p()\n",                                                     // wrong arity for user proc
		"PROCEDURE p($x)\nRETURN p($x)\nEND\nRETURN p(DBLP.VenuePub)\n",                                     // recursion
		"PROCEDURE p($x)\nRETURN q($x)\nEND\nPROCEDURE q($x)\nRETURN P($x)\nEND\nRETURN p(DBLP.VenuePub)\n", // mutual recursion
		"RETURN select(DBLP-ACM.PubSame, Threshold, 0.75, range)\n",                                         // Threshold reads no side
		"RETURN select(DBLP-ACM.PubSame, \"[domain.id]<>[range.id]\", 7, 8)\n",                              // a constraint reads no more
		"RETURN select(DBLP-ACM.PubSame, Best, 1, range, 2)\n",
		"RETURN select(DBLP-ACM.PubSame, Best, 1.5)\n",
		"RETURN select(DBLP-ACM.PubSame, Best, 0)\n",
	}
	for _, src := range cases {
		if _, err := New(b).RunSource(src); err == nil {
			t.Errorf("running %q should fail", strings.TrimSpace(src))
		}
	}
}

func TestDuplicateProcedure(t *testing.T) {
	src := "PROCEDURE p($a)\nRETURN $a\nEND\nPROCEDURE p($a)\nRETURN $a\nEND\n"
	if _, err := New(testEngine(t)).RunSource(src); err == nil {
		t.Error("duplicate procedure should fail")
	}
}

func TestGlobalsAndTrace(t *testing.T) {
	b := testEngine(t)
	ip := New(b)
	var traced []string
	ip.Trace = func(s string) { traced = append(traced, s) }
	_, err := ip.RunSource("$V = nhMatch(DBLP.VenuePub, DBLP-ACM.PubSame, ACM.PubVenue)\n")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := b.Mapping("Cache.V"); !ok || v.Len() != 4 {
		t.Error("$V not held as the step Cache.V")
	}
	if len(traced) != 1 || !strings.Contains(traced[0], "$V") {
		t.Errorf("trace = %v", traced)
	}
}

func TestValueString(t *testing.T) {
	m := mapping.NewSame(dblpPub, acmPub)
	set := model.NewObjectSet(dblpPub)
	cases := []struct {
		v    Value
		want string
	}{
		{Value{Kind: MappingValue, Mapping: m}, "mapping(0 corrs)"},
		{Value{Kind: SetValue, Set: set}, "set(0 instances)"},
		{Value{Kind: NumberValue, Num: 0.5}, "0.5"},
		{Value{Kind: StringValue, Str: "x"}, `"x"`},
		{Value{}, "<none>"},
	}
	for _, tc := range cases {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("String = %q, want %q", got, tc.want)
		}
	}
}

func TestScriptStringRoundTrip(t *testing.T) {
	for _, src := range []string{
		"$V = nhMatch(DBLP.VenuePub, DBLP-ACM.PubSame, ACM.PubVenue)\nRETURN $V\n",
		"RETURN select(M.X, Threshold, 1000000)\n",
		"RETURN select(M.X, Threshold, 0.00001)\n",
	} {
		s, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		rendered := s.String()
		s2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("re-parsing rendered script: %v\n%s", err, rendered)
		}
		if len(s2.Stmts) != len(s.Stmts) {
			t.Error("round trip changed statement count")
		}
	}
}

// seedScripts are the scripts of the tests and examples.
var seedScripts = []string{
	"$R = compose($A, $B, Min, Average) // comment\n",
	"$X = nhMatch (DBLP.CoAuthor, DBLP.AuthorAuthor,\n               DBLP.CoAuthor)\n",
	`
PROCEDURE nhMatch ( $Asso1, $Same, $Asso2)
   $Temp = compose ( $Asso1 , $Same , Min, Average )
   $Result = compose ( $Temp , $Asso2 , Min, Relative )
   RETURN $Result
END

$VenueSame = nhMatch (DBLP.VenuePub, DBLP-ACM.PubSame, ACM.PubVenue)
RETURN $VenueSame
`,
	`
// PROCEDURE from the paper, section 4.2
PROCEDURE nhMatch ( $Asso1, $Same, $Asso2)
   $Temp = compose ( $Asso1 , $Same , Min, Average )
   $Result = compose ( $Temp , $Asso2 , Min, Relative )
   RETURN $Result
END

# Titles give a publication same-mapping; venues follow from it.
$PubSame = attrMatch (DBLP.Publication, ACM.Publication, Trigram, 0.82, "[title]", "[name]")
$VenueNh = nhMatch (DBLP.VenuePub, $PubSame, ACM.PubVenue)
$VenueSame = select ($VenueNh, Threshold, 0.5)
RETURN $VenueSame
`,
	`
$PubSame = attrMatch (DBLP.Publication, ACM.Publication, Trigram, 0.82, "[title]", "[name]")
$Clean = select ($PubSame, "abs([domain.year]-[range.year])<=1")
RETURN $Clean
`,
	`
$CoAuthSim = nhMatch (DBLP.CoAuthor, DBLP.AuthorAuthor, DBLP.CoAuthor)
$NameSim = attrMatch (DBLP.Author, DBLP.Author, Trigram, 0.5, "[name]", "[name]")
$Merged = merge ($CoAuthSim, $NameSim, Average)
$Result = select ($Merged, "[domain.id]<>[range.id]")
RETURN $Result
`,
	`
$Titles = attrMatch (DBLP.Publication, ACM.Publication, Trigram, 0.8, "[title]", "[title]")
$Years = attrMatch (DBLP.Publication, ACM.Publication, YearExact, 1, "[year]", "[year]")
$Merged = merge ($Titles, $Years, Avg-0)
$Result = select ($Merged, Threshold, 0.8)
RETURN $Result
`,
	`
$VenueNh = nhMatch (DBLP.VenuePub, DBLP-ACM.PubSame, ACM.PubVenue)
$VenueSame = select ($VenueNh, Best, 1)
RETURN $VenueSame
`,
	`
PROCEDURE pick ($m)
   $Result = select ($m, Best, 1)
   RETURN $Result
END
$Result = DBLP-ACM.PubSame
$Picked = pick($Result)
RETURN $Picked
`,
	"RETURN select(Cache.Titles, Threshold, 0.9)\n",
	"$T = attrMatch (DBLP.Publication, ACM.Publication, Trigram, 0.8, \"[title]\", \"[title]\")\nRETURN $T\n",
	"RETURN nhMatch (DBLP.VenuePub, DBLP-ACM.PubSame, ACM.PubVenue, RelativeLeft)\n",
	"RETURN select(nhMatch(DBLP.VenuePub, DBLP-ACM.PubSame, ACM.PubVenue), Delta, 0.1, range)\n",
	"RETURN merge(M.A, M.B, PreferMap2)\n",
	"RETURN identity(DBLP.Publication)\n",
	"PROCEDURE p($a)\nRETURN $a\nEND\nRETURN p()\n",
	"inverse(DBLP.VenuePub)\n",
	"RETURN select(M.X, Threshold, 1000000)\n",
	"RETURN select(M.X, Threshold, 0.00001)\n",
	"$X compose($A)\n",
	"$X = DBLP.\n",
	"PROCEDURE p()\nPROCEDURE q()\nEND\nEND\n",
	"$X = foo($A) extra\n",
	"$ = x\n",
	"$X = @\n",
}

// FuzzParseRoundTrip: a script that parses renders to text that parses
// again and renders the same.
func FuzzParseRoundTrip(f *testing.F) {
	for _, src := range seedScripts {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(src)
		if err != nil {
			return
		}
		rendered := s.String()
		s2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("rendered script does not parse: %v\n%s", err, rendered)
		}
		if again := s2.String(); again != rendered {
			t.Fatalf("rendering changed on a second round trip:\n%s\n---\n%s", rendered, again)
		}
	})
}

// FuzzScriptRun: every script that parses runs on the Figure 9 fixture to
// a value or an error, and never panics, and the value renders. A second
// run, by a fresh interpreter on the same engine, returns the same
// *Mapping or an error with the same text: step names are deterministic,
// and steps run once.
func FuzzScriptRun(f *testing.F) {
	for _, src := range seedScripts {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(src)
		if err != nil {
			return
		}
		e := testEngine(t)
		v, err := New(e).Run(s)
		_ = v.String()
		again, againErr := New(e).Run(s)
		if again.Mapping != v.Mapping || fmt.Sprint(againErr) != fmt.Sprint(err) {
			t.Fatalf("second run = %v, %v; first %v, %v", again, againErr, v, err)
		}
	})
}

func TestSelectSideVariants(t *testing.T) {
	b := testEngine(t)
	// Side argument accepted for both Best and Delta forms.
	for _, src := range []string{
		"RETURN select(nhMatch(DBLP.VenuePub, DBLP-ACM.PubSame, ACM.PubVenue), Delta, 0.1, range)\n",
		"RETURN select(nhMatch(DBLP.VenuePub, DBLP-ACM.PubSame, ACM.PubVenue), Delta, 0.1, both)\n",
		"RETURN select(nhMatch(DBLP.VenuePub, DBLP-ACM.PubSame, ACM.PubVenue), Best, 2, domain)\n",
	} {
		v, err := New(b).RunSource(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if v.Kind != MappingValue {
			t.Errorf("%s: result kind %v", src, v.Kind)
		}
	}
}

func TestSelectConstraintUsesBoundSets(t *testing.T) {
	// A constraint referencing instance attributes resolves them via the
	// bound object sets of the mapping's endpoints.
	b := workflow.NewEngine(nil)
	dblp := model.NewObjectSet(dblpPub)
	dblp.AddNew("p1", map[string]string{"year": "2001"})
	dblp.AddNew("p2", map[string]string{"year": "1994"})
	acm := model.NewObjectSet(acmPub)
	acm.AddNew("q1", map[string]string{"year": "2002"})
	acm.AddNew("q2", map[string]string{"year": "2002"})
	addSet(t, b, "DBLP.Publication", dblp)
	addSet(t, b, "ACM.Publication", acm)
	m := mapping.NewSame(dblpPub, acmPub)
	m.Add("p1", "q1", 0.9)
	m.Add("p2", "q2", 0.9)
	putMapping(t, b, "M.Same", m)

	v, err := New(b).RunSource(`RETURN select(M.Same, "abs([domain.year]-[range.year])<=1")` + "\n")
	if err != nil {
		t.Fatal(err)
	}
	if v.Mapping.Len() != 1 || !v.Mapping.Has("p1", "q1") {
		t.Errorf("constraint selection = %v", v.Mapping.Correspondences())
	}
}

func TestUserProcedureLocalScope(t *testing.T) {
	// Variables inside procedures are local; globals stay untouched.
	src := `
PROCEDURE pick ($m)
   $Result = select ($m, Best, 1)
   RETURN $Result
END
$Result = DBLP-ACM.PubSame
$Picked = pick($Result)
RETURN $Picked
`
	e := testEngine(t)
	v, err := New(e).RunSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != MappingValue {
		t.Fatalf("kind = %v", v.Kind)
	}
	// The global $Result must still be the full mapping, not the procedure's.
	if g, ok := e.Mapping("Cache.Result"); !ok || g.Len() != 5 {
		t.Errorf("global $Result clobbered by procedure-local assignment: %v", g)
	}
}

func TestExprStatementAtTopLevel(t *testing.T) {
	// A bare call at top level evaluates and becomes the script result.
	src := "inverse(DBLP.VenuePub)\n"
	v, err := New(testEngine(t)).RunSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != MappingValue || v.Mapping.Domain() != dblpPub {
		t.Errorf("bare call result = %v", v)
	}
}

// TestScriptRunsOnce: the same script, run by fresh interpreters on one
// engine, from several goroutines at once, returns the same *Mapping every
// time and leaves the engine holding the steps of one run.
func TestScriptRunsOnce(t *testing.T) {
	const src = `
$VenueNh = nhMatch (DBLP.VenuePub, DBLP-ACM.PubSame, ACM.PubVenue)
$Result = select ($VenueNh, Best, 1)
RETURN merge ($Result, inverse(inverse($VenueNh)), Max)
`
	e := testEngine(t)
	first, err := New(e).RunSource(src)
	if err != nil {
		t.Fatal(err)
	}
	steps := e.Steps()
	var wg sync.WaitGroup
	results := make([]Value, 8)
	errs := make([]error, len(results))
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = New(e).RunSource(src)
		}()
	}
	wg.Wait()
	for i, v := range results {
		if errs[i] != nil || v.Mapping != first.Mapping {
			t.Errorf("run %d = %v, %v; want the first run's mapping", i, v, errs[i])
		}
	}
	if again := e.Steps(); !reflect.DeepEqual(again, steps) {
		t.Errorf("steps after the runs = %q, want %q", again, steps)
	}
}

// TestScriptRebindNamesBothDefinitions: rebinding a top-level variable to a
// different definition on one engine fails, naming both definitions, until
// Forget drops the step.
func TestScriptRebindNamesBothDefinitions(t *testing.T) {
	e := testEngine(t)
	if _, err := New(e).RunSource("$Result = select(DBLP-ACM.PubSame, Threshold, 0.5)\n"); err != nil {
		t.Fatal(err)
	}
	rebind := "$Result = select(DBLP-ACM.PubSame, Threshold, 0.9)\n"
	_, err := New(e).RunSource(rebind)
	if err == nil || !strings.Contains(err.Error(), "Threshold{T:0.5}") || !strings.Contains(err.Error(), "Threshold{T:0.9}") {
		t.Fatalf("rebinding $Result: %v; want an error naming both definitions", err)
	}
	if !e.Forget("Cache.Result") {
		t.Fatal("Forget found no Cache.Result")
	}
	v, err := New(e).RunSource(rebind)
	if err != nil || v.Mapping.Len() != 3 {
		t.Fatalf("after Forget = %v, %v; want the 3 rows at 0.9 or above", v, err)
	}
}

// TestProcedureArgumentsDoNotCollide: a procedure's local steps are named
// after the arguments of each call, so two calls with different arguments
// are two steps.
func TestProcedureArgumentsDoNotCollide(t *testing.T) {
	e := testEngine(t)
	v, err := New(e).RunSource(`
PROCEDURE best ($m)
   $Result = select ($m, Best, 1)
   RETURN $Result
END
$Same = best(DBLP-ACM.PubSame)
$Inverse = best(inverse(DBLP-ACM.PubSame))
RETURN $Inverse
`)
	if err != nil {
		t.Fatal(err)
	}
	same, _ := e.Mapping("Cache.Same")
	if v.Mapping.Domain() != acmPub || same.Domain() != dblpPub || v.Mapping == same {
		t.Errorf("the second call read the first call's step: %v, %v", v.Mapping, same)
	}
}

// TestSharedExpressionRunsOnce: two scripts that compute one nested
// expression share its step: the second reads the first's result.
func TestSharedExpressionRunsOnce(t *testing.T) {
	e := testEngine(t)
	const nh = "nhMatch(DBLP.VenuePub, DBLP-ACM.PubSame, ACM.PubVenue)"
	if _, err := New(e).RunSource("RETURN select(" + nh + ", Threshold, 0.5)\n"); err != nil {
		t.Fatal(err)
	}
	shared, ok := e.Mapping(nh)
	if !ok {
		t.Fatalf("no step %s among %q", nh, e.Steps())
	}
	n := len(e.Steps())
	v, err := New(e).RunSource("RETURN select(" + nh + ", Best, 1)\n")
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := e.Mapping(nh); again != shared || len(e.Steps()) != n+1 || v.Mapping.Len() != 2 {
		t.Errorf("second script: shared step re-run %v, steps %q (want %d), rows %d", again != shared, e.Steps(), n+1, v.Mapping.Len())
	}
}

// TestConstraintStepNamesSetVersions: a constraint select's definition
// holds the versions of the sets it reads, so after one of them changes
// the same script fails naming both versions instead of reading the
// earlier result, and runs again after Forget.
func TestConstraintStepNamesSetVersions(t *testing.T) {
	e := workflow.NewEngine(nil)
	dblp, acm := model.NewObjectSet(dblpPub), model.NewObjectSet(acmPub)
	dblp.AddNew("p1", map[string]string{"year": "2001"})
	addSet(t, e, "DBLP.Publication", dblp)
	addSet(t, e, "ACM.Publication", acm)
	m := mapping.NewSame(dblpPub, acmPub)
	m.Add("p1", "q1", 0.9)
	putMapping(t, e, "M.Same", m)
	const src = `RETURN select(M.Same, "[domain.year]=[range.year]")` + "\n"
	if v, err := New(e).RunSource(src); err != nil || v.Mapping.Len() != 0 {
		t.Fatalf("before q1 exists = %v, %v; want no rows", v, err)
	}
	acm.AddNew("q1", map[string]string{"year": "2001"})
	_, err := New(e).RunSource(src)
	if err == nil || !strings.Contains(err.Error(), "Publication@ACM#0") || !strings.Contains(err.Error(), "Publication@ACM#1") {
		t.Fatalf("after the range set changed: %v; want an error naming both versions", err)
	}
	e.Forget(`select(M.Same, "[domain.year]=[range.year]")`)
	if v, err := New(e).RunSource(src); err != nil || v.Mapping.Len() != 1 {
		t.Fatalf("after Forget = %v, %v; want the row q1 now matches", v, err)
	}
}

// TestForgetReRunsUseChain: after the range set changed, one Forget of the
// step that read it lets a script whose later steps use that step run
// again, the whole chain re-run.
func TestForgetReRunsUseChain(t *testing.T) {
	e := workflow.NewEngine(nil)
	dblp, acm := model.NewObjectSet(dblpPub), model.NewObjectSet(acmPub)
	dblp.AddNew("p1", map[string]string{"year": "2001"})
	addSet(t, e, "DBLP.Publication", dblp)
	addSet(t, e, "ACM.Publication", acm)
	m := mapping.NewSame(dblpPub, acmPub)
	m.Add("p1", "q1", 0.9)
	putMapping(t, e, "M.Same", m)
	const src = `$Same = select(M.Same, "[domain.year]=[range.year]")
$Best = select($Same, Best, 1)
$Result = select($Best, Threshold, 0.5)
RETURN $Result
`
	if v, err := New(e).RunSource(src); err != nil || v.Mapping.Len() != 0 {
		t.Fatalf("before q1 exists = %v, %v; want no rows", v, err)
	}
	acm.AddNew("q1", map[string]string{"year": "2001"})
	if _, err := New(e).RunSource(src); err == nil {
		t.Fatal("after the range set changed the script read the old results")
	}
	if !e.Forget("Cache.Same") {
		t.Fatal("Forget found no Cache.Same")
	}
	if v, err := New(e).RunSource(src); err != nil || v.Mapping.Len() != 1 {
		t.Fatalf("after one Forget = %v, %v; want the row q1 now matches", v, err)
	}
}
