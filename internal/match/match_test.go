package match

import (
	"math"
	"testing"

	"repro/internal/block"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/sim"
)

var (
	dblpPub = model.LDS{Source: "DBLP", Type: model.Publication}
	acmPub  = model.LDS{Source: "ACM", Type: model.Publication}
	dblpVen = model.LDS{Source: "DBLP", Type: model.Venue}
	acmVen  = model.LDS{Source: "ACM", Type: model.Venue}
	dblpAut = model.LDS{Source: "DBLP", Type: model.Author}
)

// figure1Sets builds the DBLP and ACM publication instances of Figure 1.
func figure1Sets() (*model.ObjectSet, *model.ObjectSet) {
	dblp := model.NewObjectSet(dblpPub)
	dblp.AddNew("conf/VLDB/MadhavanBR01", map[string]string{
		"title": "Generic Schema Matching with Cupid", "pages": "49-58", "year": "2001"})
	dblp.AddNew("conf/VLDB/ChirkovaHS01", map[string]string{
		"title": "A formal perspective on the view selection problem", "pages": "59-68", "year": "2001"})
	dblp.AddNew("journals/VLDB/ChirkovaHS02", map[string]string{
		"title": "A formal perspective on the view selection problem", "pages": "216-237", "year": "2002"})

	acm := model.NewObjectSet(acmPub)
	acm.AddNew("P-672191", map[string]string{
		"name": "Generic Schema Matching with Cupid", "citations": "69", "year": "2001"})
	acm.AddNew("P-672216", map[string]string{
		"name": "A formal perspective on the view selection problem", "citations": "10", "year": "2001"})
	acm.AddNew("P-641272", map[string]string{
		"name": "A formal perspective on the view selection problem", "citations": "1", "year": "2002"})
	return dblp, acm
}

func TestAttributeMatcherFigure1(t *testing.T) {
	dblp, acm := figure1Sets()
	m := &Attribute{
		MatcherName: "title-trigram",
		AttrA:       "title", AttrB: "name",
		Sim:       sim.Trigram,
		Threshold: 0.8,
	}
	got, err := m.Match(dblp, acm)
	if err != nil {
		t.Fatal(err)
	}
	// Cupid matches its ACM twin exactly; each "formal perspective" DBLP
	// entry matches BOTH formal-perspective ACM entries (titles equal).
	if s, ok := got.Sim("conf/VLDB/MadhavanBR01", "P-672191"); !ok || s != 1 {
		t.Errorf("cupid sim = %v, %v", s, ok)
	}
	if !got.Has("conf/VLDB/ChirkovaHS01", "P-672216") || !got.Has("conf/VLDB/ChirkovaHS01", "P-641272") {
		t.Error("title matcher should match both formal-perspective entries")
	}
	if got.Has("conf/VLDB/MadhavanBR01", "P-672216") {
		t.Error("cupid must not match the formal-perspective paper")
	}
	if got.Len() != 5 {
		t.Errorf("Len = %d, want 5", got.Len())
	}
}

func TestAttributeMatcherTypeMismatch(t *testing.T) {
	dblp, _ := figure1Sets()
	venues := model.NewObjectSet(dblpVen)
	m := &Attribute{AttrA: "title", AttrB: "name", Sim: sim.Trigram}
	if _, err := m.Match(dblp, venues); err == nil {
		t.Error("object-type mismatch should fail")
	}
}

func TestAttributeMatcherNilSim(t *testing.T) {
	dblp, acm := figure1Sets()
	m := &Attribute{AttrA: "title", AttrB: "name"}
	if _, err := m.Match(dblp, acm); err == nil {
		t.Error("nil similarity function should fail")
	}
}

func TestAttributeMatcherSkipMissing(t *testing.T) {
	a := model.NewObjectSet(dblpPub)
	a.AddNew("p1", map[string]string{"year": "2001"})
	a.AddNew("p2", nil)
	b := model.NewObjectSet(acmPub)
	b.AddNew("q1", map[string]string{"year": "2001"})

	with := &Attribute{AttrA: "year", AttrB: "year", Sim: sim.YearExact, Threshold: 0, SkipMissing: true}
	got, err := with.Match(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Has("p2", "q1") {
		t.Error("SkipMissing should drop pairs lacking the attribute")
	}
	without := &Attribute{AttrA: "year", AttrB: "year", Sim: sim.YearExact, Threshold: 0}
	got2, _ := without.Match(a, b)
	if !got2.Has("p2", "q1") {
		t.Error("threshold 0 without SkipMissing keeps zero-sim pairs")
	}
}

func TestAttributeMatcherParallelDeterminism(t *testing.T) {
	dblp, acm := figure1Sets()
	m := &Attribute{AttrA: "title", AttrB: "name", Sim: sim.Trigram, Threshold: 0.3}
	m1, m2 := matchAt(t, 1, m, dblp, acm), matchAt(t, 8, m, dblp, acm)
	if !m1.Equal(m2, 0) {
		t.Error("parallel scoring must be deterministic")
	}
}

func TestAttributeMatcherWithBlocker(t *testing.T) {
	dblp, acm := figure1Sets()
	m := &Attribute{
		AttrA: "title", AttrB: "name", Sim: sim.Trigram, Threshold: 0.8,
		Blocker: block.TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 2},
	}
	got, err := m.Match(dblp, acm)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 5 {
		t.Errorf("blocked matcher should find all 5 matches, got %d", got.Len())
	}
}

func TestMultiAttributeMatcher(t *testing.T) {
	dblp, acm := figure1Sets()
	m := &MultiAttribute{
		MatcherName: "title+year",
		Pairs: []AttrPair{
			{AttrA: "title", AttrB: "name", Sim: sim.Trigram, Weight: 2},
			{AttrA: "year", AttrB: "year", Sim: sim.YearExact, Weight: 1},
		},
		Threshold: 0.9,
	}
	got, err := m.Match(dblp, acm)
	if err != nil {
		t.Fatal(err)
	}
	// Same title + same year -> 1; same title, year off by one -> 2/3,
	// below threshold. This disambiguates the conference vs journal
	// versions that the pure title matcher confuses.
	if !got.Has("conf/VLDB/ChirkovaHS01", "P-672216") {
		t.Error("same-year pair missing")
	}
	if got.Has("conf/VLDB/ChirkovaHS01", "P-641272") {
		t.Error("different-year pair should fall below threshold")
	}
	if got.Len() != 3 {
		t.Errorf("Len = %d, want 3", got.Len())
	}
}

func TestMultiAttributeValidation(t *testing.T) {
	dblp, acm := figure1Sets()
	cases := []*MultiAttribute{
		{Pairs: nil},
		{Pairs: []AttrPair{{AttrA: "t", AttrB: "t", Weight: 1}}},                  // nil sim
		{Pairs: []AttrPair{{AttrA: "t", AttrB: "t", Sim: sim.Equal, Weight: -1}}}, // negative
		{Pairs: []AttrPair{{AttrA: "t", AttrB: "t", Sim: sim.Equal, Weight: 0}}},  // zero total
	}
	for i, m := range cases {
		if _, err := m.Match(dblp, acm); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestTFIDFAttributeMatcher(t *testing.T) {
	dblp, acm := figure1Sets()
	m := &TFIDFAttribute{AttrA: "title", AttrB: "name", Threshold: 0.95}
	got, err := m.Match(dblp, acm)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Has("conf/VLDB/MadhavanBR01", "P-672191") {
		t.Error("identical titles must match under TF-IDF")
	}
	if got.Has("conf/VLDB/MadhavanBR01", "P-672216") {
		t.Error("unrelated titles must not match")
	}
}

func TestExistingMappingMatcher(t *testing.T) {
	dblp, acm := figure1Sets()
	stored := mapping.NewSame(dblpPub, acmPub)
	stored.Add("conf/VLDB/MadhavanBR01", "P-672191", 1)
	stored.Add("ghost", "P-672216", 1) // not in the input sets

	m := &ExistingMapping{MatcherName: "gs-links", M: stored}
	got, err := m.Match(dblp, acm)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || !got.Has("conf/VLDB/MadhavanBR01", "P-672191") {
		t.Errorf("existing matcher should restrict to inputs, got %v", got.Correspondences())
	}
	bad := &ExistingMapping{M: mapping.NewSame(dblpPub, dblpPub)}
	if _, err := bad.Match(dblp, acm); err == nil {
		t.Error("endpoint mismatch should fail")
	}
	if _, err := (&ExistingMapping{}).Match(dblp, acm); err == nil {
		t.Error("nil mapping should fail")
	}
}

// figure9Fixture builds the associations and publication same-mapping of
// Figure 9.
func figure9Fixture() (asso1, same, asso2 *mapping.Mapping) {
	asso1 = mapping.New(dblpVen, dblpPub, "VenuePub")
	asso1.Add("conf/VLDB/2001", "conf/VLDB/MadhavanBR01", 1)
	asso1.Add("conf/VLDB/2001", "conf/VLDB/ChirkovaHS01", 1)
	asso1.Add("journals/VLDB/2002", "journals/VLDB/ChirkovaHS02", 1)

	same = mapping.NewSame(dblpPub, acmPub)
	same.Add("conf/VLDB/MadhavanBR01", "P-672191", 1)
	same.Add("conf/VLDB/ChirkovaHS01", "P-672216", 1)
	same.Add("conf/VLDB/ChirkovaHS01", "P-641272", 0.6)
	same.Add("journals/VLDB/ChirkovaHS02", "P-641272", 1)
	same.Add("journals/VLDB/ChirkovaHS02", "P-672216", 0.6)

	asso2 = mapping.New(acmPub, acmVen, "PubVenue")
	asso2.Add("P-672191", "V-645927", 1)
	asso2.Add("P-672216", "V-645927", 1)
	asso2.Add("P-641272", "V-641268", 1)
	return asso1, same, asso2
}

func TestFigure9NeighborhoodMatcher(t *testing.T) {
	asso1, same, asso2 := figure9Fixture()
	got, err := NhMatch(asso1, same, asso2)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's result table:
	//   conf/VLDB/2001      - V-645927: 0.8  = 2*(1+1)/(3+2)
	//   conf/VLDB/2001      - V-641268: 0.3  = 2*0.6/(3+1)
	//   journals/VLDB/2002  - V-645927: 0.3  = 2*0.6/(2+2)
	//   journals/VLDB/2002  - V-641268: 0.67 = 2*1/(2+1)
	want := []struct {
		d, r model.ID
		s    float64
	}{
		{"conf/VLDB/2001", "V-645927", 0.8},
		{"conf/VLDB/2001", "V-641268", 0.3},
		{"journals/VLDB/2002", "V-645927", 0.3},
		{"journals/VLDB/2002", "V-641268", 2.0 / 3.0},
	}
	if got.Len() != len(want) {
		t.Fatalf("Len = %d, want %d: %v", got.Len(), len(want), got.Correspondences())
	}
	for _, w := range want {
		s, ok := got.Sim(w.d, w.r)
		if !ok {
			t.Errorf("missing (%s,%s)", w.d, w.r)
			continue
		}
		if math.Abs(s-w.s) > 1e-9 {
			t.Errorf("sim(%s,%s) = %v, want %v", w.d, w.r, s, w.s)
		}
	}
	// A threshold selection of 0.5 then yields the perfect venue mapping.
	sel := mapping.Threshold{T: 0.5}.Apply(got)
	if sel.Len() != 2 || !sel.Has("conf/VLDB/2001", "V-645927") || !sel.Has("journals/VLDB/2002", "V-641268") {
		t.Errorf("selection should isolate the correct venue pairs, got %v", sel.Correspondences())
	}
}

// TestNeighborhoodValidation: nhMatch's compositions need matching middle
// sources, so associations passed in the wrong order fail in the first
// compose or in the second.
func TestNeighborhoodValidation(t *testing.T) {
	asso1, same, asso2 := figure9Fixture()
	if _, err := NhMatch(asso2, same, asso1); err == nil {
		t.Error("swapped associations should fail")
	}
	if _, err := NhMatch(asso1, same, asso1); err == nil {
		t.Error("a second association leaving the wrong source should fail")
	}
}

// TestCoAuthorDedup runs the duplicate-author strategy of §4.3 as Table 9's
// script does: nhMatch over the co-author association with the identity
// same-mapping. The similarity reflects co-author-list overlap, and the
// trivial diagonal stays until the script's select [domain.id]<>[range.id].
func TestCoAuthorDedup(t *testing.T) {
	authors := model.NewObjectSet(dblpAut)
	for _, id := range []model.ID{"niki", "agathoniki", "x", "y", "z", "loner"} {
		authors.AddNew(id, nil)
	}
	// niki and agathoniki are duplicates sharing all co-authors x,y,z.
	co := mapping.New(dblpAut, dblpAut, "CoAuthor")
	for _, dup := range []model.ID{"niki", "agathoniki"} {
		for _, c := range []model.ID{"x", "y", "z"} {
			co.Add(dup, c, 1)
			co.Add(c, dup, 1)
		}
	}
	got, err := NhMatch(co, mapping.Identity(authors), co)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := got.Sim("niki", "agathoniki")
	if !ok {
		t.Fatal("duplicate pair missing")
	}
	// Both have 3 co-authors, all shared: 2*3/(3+3) = 1.
	if math.Abs(s-1) > 1e-9 {
		t.Errorf("overlap sim = %v, want 1", s)
	}
	if got.Has("loner", "niki") {
		t.Error("authors without shared co-authors must not pair")
	}
	if _, ok := got.Sim("x", "x"); !ok {
		t.Error("diagonal should be present before selection")
	}
	clean := mapping.NotEqualIDs{}.Apply(got)
	if clean.Has("x", "x") {
		t.Error("selection should drop the diagonal")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	m := &Attribute{MatcherName: "title-trigram", AttrA: "t", AttrB: "t", Sim: sim.Trigram}
	if err := r.Register(m); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Lookup("TITLE-TRIGRAM"); !ok {
		t.Error("lookup should be case-insensitive")
	}
	if err := r.Register(m); err == nil {
		t.Error("duplicate should fail")
	}
	if err := r.Register(Func{}); err == nil {
		t.Error("unnamed matcher should fail")
	}
	if names := r.Names(); len(names) != 1 || names[0] != "title-trigram" {
		t.Errorf("Names = %v", names)
	}
}

func TestFuncAdapter(t *testing.T) {
	called := false
	f := Func{MatcherName: "f", Fn: func(a, b *model.ObjectSet) (*mapping.Mapping, error) {
		called = true
		return mapping.NewSame(a.LDS(), b.LDS()), nil
	}}
	if f.Name() != "f" {
		t.Error("name wrong")
	}
	a, b := figure1Sets()
	if _, err := f.Match(a, b); err != nil || !called {
		t.Error("Func adapter should delegate")
	}
}

func TestAttributeDefaultName(t *testing.T) {
	m := &Attribute{AttrA: "title", AttrB: "name"}
	if m.Name() != "attr(title~name)" {
		t.Errorf("Name = %q", m.Name())
	}
	mm := &MultiAttribute{Pairs: make([]AttrPair, 2)}
	if mm.Name() != "multiattr(2 pairs)" {
		t.Errorf("Name = %q", mm.Name())
	}
	tf := &TFIDFAttribute{AttrA: "a", AttrB: "b"}
	if tf.Name() != "tfidf(a~b)" {
		t.Errorf("Name = %q", tf.Name())
	}
}
