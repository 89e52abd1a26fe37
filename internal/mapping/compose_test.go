package mapping

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

// figure6Maps builds the compose inputs of Figure 6: a venue-publication
// mapping (already composed with a publication same-mapping) and a
// publication-venue association mapping.
func figure6Maps() (*Mapping, *Mapping) {
	map1 := New(dblpVen, acmPub, "VenuePub")
	map1.Add("v1", "p1", 1)
	map1.Add("v1", "p2", 1)
	map1.Add("v1", "p3", 0.6)
	map1.Add("v2", "p2", 0.6)
	map1.Add("v2", "p3", 1)

	map2 := New(acmPub, acmVen, "PubVenue")
	map2.Add("p1", "v'1", 1)
	map2.Add("p2", "v'1", 1)
	map2.Add("p3", "v'2", 1)
	return map1, map2
}

func TestFigure6ComposeMinRelative(t *testing.T) {
	map1, map2 := figure6Maps()
	got, err := Compose(map1, map2, MinCombiner, AggRelative)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly the paper's result table:
	//   (v1,v'1) = 2*(1+1)/(3+2)   = 0.8
	//   (v1,v'2) = 2*0.6/(3+1)     = 0.3
	//   (v2,v'1) = 2*0.6/(2+2)     = 0.3
	//   (v2,v'2) = 2*1/(2+1)       = 0.67
	wantMapping(t, got, []Correspondence{
		{"v1", "v'1", 0.8},
		{"v1", "v'2", 0.3},
		{"v2", "v'1", 0.3},
		{"v2", "v'2", 2.0 / 3.0},
	})
}

func TestComposeRelativeLeftRight(t *testing.T) {
	map1, map2 := figure6Maps()
	left, err := Compose(map1, map2, MinCombiner, AggRelativeLeft)
	if err != nil {
		t.Fatal(err)
	}
	// (v1,v'1): s=2, n(v1)=3 -> 2/3.
	if s, _ := left.Sim("v1", "v'1"); math.Abs(s-2.0/3.0) > 1e-9 {
		t.Errorf("RelativeLeft(v1,v'1) = %v, want 2/3", s)
	}
	right, err := Compose(map1, map2, MinCombiner, AggRelativeRight)
	if err != nil {
		t.Fatal(err)
	}
	// (v1,v'1): s=2, n(v'1)=2 -> 1.
	if s, _ := right.Sim("v1", "v'1"); math.Abs(s-1) > 1e-9 {
		t.Errorf("RelativeRight(v1,v'1) = %v, want 1", s)
	}
	// Relative is the harmonic mean of left and right: check on (v2,v'2):
	// left = 1/2, right = 1/1 -> harmonic = 2*1/(2+1)=2/3.
	rel, _ := Compose(map1, map2, MinCombiner, AggRelative)
	l, _ := left.Sim("v2", "v'2")
	r, _ := right.Sim("v2", "v'2")
	want := 2 * l * r / (l + r)
	if s, _ := rel.Sim("v2", "v'2"); math.Abs(s-want) > 1e-9 {
		t.Errorf("Relative(v2,v'2) = %v, want harmonic mean %v", s, want)
	}
}

func TestComposeAvgMinMax(t *testing.T) {
	map1, map2 := figure6Maps()
	avg, err := Compose(map1, map2, MinCombiner, AggAvg)
	if err != nil {
		t.Fatal(err)
	}
	// (v1,v'1): paths 1,1 -> avg 1.
	if s, _ := avg.Sim("v1", "v'1"); s != 1 {
		t.Errorf("AggAvg = %v, want 1", s)
	}
	// Build a case with differing path sims: v3 reaches w via p4 (0.4) and
	// p5 (0.8).
	m1 := New(dblpVen, acmPub, "VenuePub")
	m1.Add("v3", "p4", 0.4)
	m1.Add("v3", "p5", 0.8)
	m2 := New(acmPub, acmVen, "PubVenue")
	m2.Add("p4", "w", 1)
	m2.Add("p5", "w", 1)
	for g, want := range map[PathAgg]float64{AggAvg: 0.6, AggMin: 0.4, AggMax: 0.8} {
		got, err := Compose(m1, m2, MinCombiner, g)
		if err != nil {
			t.Fatal(err)
		}
		if s, _ := got.Sim("v3", "w"); math.Abs(s-want) > 1e-9 {
			t.Errorf("g=%s: sim = %v, want %v", g, s, want)
		}
	}
}

func TestComposePathFunctions(t *testing.T) {
	m1 := NewSame(dblpPub, gsPub)
	m1.Add("a", "c", 0.4)
	m2 := NewSame(gsPub, acmPub)
	m2.Add("c", "b", 0.8)
	cases := []struct {
		f    Combiner
		want float64
	}{
		{MinCombiner, 0.4},
		{MaxCombiner, 0.8},
		{AvgCombiner, 0.6},
		{Combiner{Kind: Weighted, Weights: []float64{3, 1}}, 0.5},
		{PreferCombiner(0), 0.4},
		{PreferCombiner(1), 0.8},
	}
	for _, tc := range cases {
		got, err := Compose(m1, m2, tc.f, AggMax)
		if err != nil {
			t.Fatal(err)
		}
		if s, _ := got.Sim("a", "b"); math.Abs(s-tc.want) > 1e-9 {
			t.Errorf("f=%v: sim = %v, want %v", tc.f.Kind, s, tc.want)
		}
	}
}

func TestComposeMiddleMismatch(t *testing.T) {
	m1 := NewSame(dblpPub, gsPub)
	m2 := NewSame(acmPub, gsPub)
	if _, err := Compose(m1, m2, MinCombiner, AggMax); err == nil {
		t.Error("mismatched middle sources should fail")
	}
}

func TestComposeTypePropagation(t *testing.T) {
	s1 := NewSame(dblpPub, gsPub)
	s1.Add("a", "c", 1)
	s2 := NewSame(gsPub, acmPub)
	s2.Add("c", "b", 1)
	same, err := Compose(s1, s2, MinCombiner, AggMax)
	if err != nil {
		t.Fatal(err)
	}
	if !same.IsSame() {
		t.Error("composition of same-mappings should be a same-mapping")
	}
	asso := New(dblpVen, dblpPub, "VenuePub")
	asso.Add("v", "a", 1)
	mixed, err := Compose(asso, s1, MinCombiner, AggMax)
	if err != nil {
		t.Fatal(err)
	}
	if mixed.IsSame() {
		t.Error("composition involving association mappings is not a same-mapping")
	}
	if mixed.Type() != "VenuePub.same" {
		t.Errorf("derived type = %s", mixed.Type())
	}
}

func TestComposeEmptyIntermediate(t *testing.T) {
	// Figure 7's recall hazard: p4-p'4 cannot be derived when GS lacks the
	// intermediate object.
	m1 := NewSame(dblpPub, gsPub)
	m1.Add("p4", "gs9", 1)
	m2 := NewSame(gsPub, acmPub)
	m2.Add("gs1", "p'1", 1) // no gs9 entry
	got, err := Compose(m1, m2, MinCombiner, AggMax)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("expected empty composition, got %v", got.Correspondences())
	}
}

func TestFigure7ComposeHazards(t *testing.T) {
	// DBLP p2,p3 are a conference and a journal version with the same
	// title; GS merges them into one object g23. ACM differentiates p'2,
	// p'3. Composing DBLP-GS with GS-ACM yields 4 correspondences instead
	// of 2 (precision loss), and p4-p'4 is lost (recall loss).
	dblpGS := NewSame(dblpPub, gsPub)
	dblpGS.Add("p1", "g1", 1)
	dblpGS.Add("p2", "g23", 1)
	dblpGS.Add("p3", "g23", 1)
	// p4 has no GS counterpart.
	gsACM := NewSame(gsPub, acmPub)
	gsACM.Add("g1", "p'1", 1)
	gsACM.Add("g23", "p'2", 1)
	gsACM.Add("g23", "p'3", 1)

	got, err := Compose(dblpGS, gsACM, MinCombiner, AggMax)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 5 { // p1-p'1 plus the 2x2 cross product of p2,p3 x p'2,p'3
		t.Fatalf("composition size = %d, want 5", got.Len())
	}
	for _, bad := range [][2]model.ID{{"p2", "p'3"}, {"p3", "p'2"}} {
		if !got.Has(bad[0], bad[1]) {
			t.Errorf("expected spurious correspondence %v from merged GS object", bad)
		}
	}
	if got.Has("p4", "p'4") {
		t.Error("p4-p'4 must be unreachable without a GS counterpart")
	}
	// With an additional clean GS entry g2 for p2, the correct pair
	// (p2,p'2) gathers two compose paths while the spurious (p2,p'3) has
	// one; Relative then ranks the correct pair higher.
	dblpGS.Add("p2", "g2", 1)
	gsACM.Add("g2", "p'2", 1)
	rel, err := Compose(dblpGS, gsACM, MinCombiner, AggRelative)
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := rel.Sim("p2", "p'2")
	spurious, _ := rel.Sim("p2", "p'3")
	if clean <= spurious {
		t.Errorf("Relative should rank the multi-path pair (%v) above the single-path pair (%v)", clean, spurious)
	}
}

func TestComposeChain(t *testing.T) {
	m1 := NewSame(dblpPub, gsPub)
	m1.Add("a", "g", 1)
	m2 := NewSame(gsPub, acmPub)
	m2.Add("g", "x", 0.8)
	m3 := NewSame(acmPub, model.LDS{Source: "Springer", Type: model.Publication})
	m3.Add("x", "s", 0.5)
	got, err := ComposeChain(MinCombiner, AggMax, m1, m2, m3)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := got.Sim("a", "s"); math.Abs(s-0.5) > 1e-9 {
		t.Errorf("chain sim = %v, want 0.5 (min through chain)", s)
	}
	if _, err := ComposeChain(MinCombiner, AggMax); err == nil {
		t.Error("empty chain should fail")
	}
	single, err := ComposeChain(MinCombiner, AggMax, m1)
	if err != nil || !single.Equal(m1, 0) {
		t.Error("single-element chain should be the mapping itself")
	}
}

func TestNumPaths(t *testing.T) {
	map1, map2 := figure6Maps()
	if got := NumPaths(map1, map2, "v1", "v'1"); got != 2 {
		t.Errorf("NumPaths(v1,v'1) = %d, want 2", got)
	}
	if got := NumPaths(map1, map2, "v1", "v'2"); got != 1 {
		t.Errorf("NumPaths(v1,v'2) = %d, want 1", got)
	}
	if got := NumPaths(map1, map2, "v9", "v'1"); got != 0 {
		t.Errorf("NumPaths(v9,v'1) = %d, want 0", got)
	}
	// Random inputs, and a mapping composed with itself as Table 9 does:
	// NumPaths counts the joined row pairs (a, c)(c, b) of every (a, b),
	// ids that appear in neither input included.
	rnd := rand.New(rand.NewSource(45))
	ab := newRefPair(ldsA, ldsC, randomOps(rnd, 300, 20, 15, "x", "x")).m
	bc := newRefPair(ldsC, ldsB, randomOps(rnd, 300, 15, 20, "x", "x")).m
	self := NewSame(ldsA, ldsA)
	for _, c := range ab.Correspondences() {
		self.Add(c.Domain, c.Range, c.Sim)
	}
	for _, in := range [][2]*Mapping{{ab, bc}, {self, self}} {
		paths := make(map[[2]model.ID]int)
		for _, c1 := range in[0].Correspondences() {
			for _, c2 := range in[1].Correspondences() {
				if c1.Range == c2.Domain {
					paths[[2]model.ID{c1.Domain, c2.Range}]++
				}
			}
		}
		for i := range 22 {
			for j := range 22 {
				a, b := model.ID(fmt.Sprintf("x%d", i)), model.ID(fmt.Sprintf("x%d", j))
				if got, want := NumPaths(in[0], in[1], a, b), paths[[2]model.ID{a, b}]; got != want {
					t.Fatalf("NumPaths(%s, %s) = %d, want %d", a, b, got, want)
				}
			}
		}
	}
}

func TestComposeIdentityProperty(t *testing.T) {
	// Composing with an identity mapping (f=Min, g=Max) preserves the
	// positive correspondences.
	f := func(p []struct {
		D, R uint8
		S    float64
	}) bool {
		m := randomSame(p)
		set := model.NewObjectSet(acmPub)
		for _, id := range m.Inverse().DomainIDs() {
			set.AddNew(id, nil)
		}
		id := Identity(set)
		got, err := Compose(m, id, MinCombiner, AggMax)
		if err != nil {
			return false
		}
		want := m.Filter(func(c Correspondence) bool { return c.Sim > 0 })
		return got.Equal(want, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestComposeSimilarityBounds(t *testing.T) {
	f := func(p1, p2 []struct {
		D, R uint8
		S    float64
	}) bool {
		m1 := randomSame(p1)
		mid := NewSame(acmPub, gsPub)
		for _, q := range p2 {
			s := math.Abs(q.S)
			mid.Add(model.ID(rune('A'+q.D%12)), model.ID(rune('x'+q.R%12)), s/(1+s))
		}
		for _, g := range []PathAgg{AggAvg, AggMin, AggMax, AggRelative, AggRelativeLeft, AggRelativeRight} {
			got, err := Compose(m1, mid, MinCombiner, g)
			if err != nil {
				return false
			}
			bad := false
			got.Each(func(c Correspondence) {
				if c.Sim < 0 || c.Sim > 1 {
					bad = true
				}
			})
			if bad {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestParsePathAgg(t *testing.T) {
	cases := map[string]PathAgg{
		"Average": AggAvg, "avg": AggAvg, "Min": AggMin, "MAX": AggMax,
		"Relative": AggRelative, "relativeleft": AggRelativeLeft, "RelativeRight": AggRelativeRight,
	}
	for in, want := range cases {
		got, err := ParsePathAgg(in)
		if err != nil || got != want {
			t.Errorf("ParsePathAgg(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePathAgg("nope"); err == nil {
		t.Error("unknown aggregation should fail")
	}
}

func TestParseCombinerKind(t *testing.T) {
	cases := map[string]CombinerKind{
		"Min": Min, "avg": Avg, "Average": Avg, "MAX": Max, "Weighted": Weighted, "PreferMap": Prefer,
	}
	for in, want := range cases {
		got, err := ParseCombinerKind(in)
		if err != nil || got != want {
			t.Errorf("ParseCombinerKind(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseCombinerKind("nope"); err == nil {
		t.Error("unknown combiner should fail")
	}
}

func TestPathAggString(t *testing.T) {
	for g, want := range map[PathAgg]string{
		AggAvg: "Average", AggMin: "Min", AggMax: "Max",
		AggRelative: "Relative", AggRelativeLeft: "RelativeLeft", AggRelativeRight: "RelativeRight",
	} {
		if got := g.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if PathAgg(99).String() == "" {
		t.Error("unknown agg should still render")
	}
}
