package mapping

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

var (
	dblpPub = model.LDS{Source: "DBLP", Type: model.Publication}
	acmPub  = model.LDS{Source: "ACM", Type: model.Publication}
	gsPub   = model.LDS{Source: "GS", Type: model.Publication}
	dblpVen = model.LDS{Source: "DBLP", Type: model.Venue}
	acmVen  = model.LDS{Source: "ACM", Type: model.Venue}
)

func TestNewSamePanicsOnTypeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSame across object types must panic")
		}
	}()
	NewSame(dblpPub, model.LDS{Source: "ACM", Type: model.Author})
}

func TestAddReplacesAndClamps(t *testing.T) {
	m := NewSame(dblpPub, acmPub)
	m.Add("p1", "q1", 0.5)
	m.Add("p1", "q1", 0.9)
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after replace", m.Len())
	}
	if s, _ := m.Sim("p1", "q1"); s != 0.9 {
		t.Errorf("Sim = %v, want 0.9", s)
	}
	m.Add("p2", "q2", 1.7)
	if s, _ := m.Sim("p2", "q2"); s != 1 {
		t.Errorf("clamp high: %v", s)
	}
	m.Add("p3", "q3", -0.3)
	if s, _ := m.Sim("p3", "q3"); s != 0 {
		t.Errorf("clamp low: %v", s)
	}
}

// TestNaNSimIsZero pins that every insertion path stores a NaN similarity
// as 0, inside [0,1], so a threshold merge agrees with merge then threshold
// on such rows.
func TestNaNSimIsZero(t *testing.T) {
	nan := math.NaN()
	m := NewSame(dblpPub, acmPub)
	m.Add("p1", "q1", nan)
	m.AddOrd(m.Dict().Ord("p2"), m.Dict().Ord("q2"), nan)
	m.AddMax("p3", "q3", nan)
	m.AddMaxOrd(m.Dict().Ord("p4"), m.Dict().Ord("q4"), nan)
	m.Add("p5", "q5", 0.5)
	m.Add("p5", "q5", nan) // Add replaces the similarity
	m.AddMax("p1", "q1", nan)
	for i := range m.Len() {
		if c := m.At(i); c.Sim != 0 {
			t.Errorf("row %d = %+v, want similarity 0", i, c)
		}
	}
	merged, err := Merge(PreferCombiner(0), m, m)
	if err != nil {
		t.Fatal(err)
	}
	above, err := MergeAbove(PreferCombiner(0), 0, m, m)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, "MergeAbove(Prefer, 0)", above, Threshold{T: 0}.Apply(merged))
	if above.Len() != 5 {
		t.Fatalf("MergeAbove(Prefer, 0) kept %d rows, want all 5", above.Len())
	}
}

func TestAddMax(t *testing.T) {
	m := NewSame(dblpPub, acmPub)
	m.AddMax("p1", "q1", 0.5)
	m.AddMax("p1", "q1", 0.3)
	if s, _ := m.Sim("p1", "q1"); s != 0.5 {
		t.Errorf("AddMax lowered sim to %v", s)
	}
	m.AddMax("p1", "q1", 0.8)
	if s, _ := m.Sim("p1", "q1"); s != 0.8 {
		t.Errorf("AddMax did not raise sim: %v", s)
	}
}

func TestFigure1SameMapping(t *testing.T) {
	// The publication same-mapping of Figure 1 between DBLP and ACM.
	m := NewSame(dblpPub, acmPub)
	m.Add("conf/VLDB/MadhavanBR01", "P-672191", 1)
	m.Add("conf/VLDB/ChirkovaHS01", "P-672216", 1)
	m.Add("conf/VLDB/ChirkovaHS01", "P-641272", 0.6)
	m.Add("journals/VLDB/ChirkovaHS02", "P-641272", 1)
	m.Add("journals/VLDB/ChirkovaHS02", "P-672216", 0.6)

	if m.Len() != 5 {
		t.Fatalf("Len = %d, want 5", m.Len())
	}
	if n := len(m.ForDomain("conf/VLDB/ChirkovaHS01")); n != 2 {
		t.Errorf("ForDomain = %d rows, want 2", n)
	}
	if n := len(m.Inverse().ForDomain("P-641272")); n != 2 {
		t.Errorf("rows of range object = %d, want 2 (conference+journal versions)", n)
	}
	if !m.IsSame() {
		t.Error("should be a same-mapping")
	}
}

func TestForDomainForRange(t *testing.T) {
	m := NewSame(dblpPub, acmPub)
	m.Add("a", "x", 0.9)
	m.Add("a", "y", 0.5)
	m.Add("b", "x", 0.3)
	if got := len(m.ForDomain("a")); got != 2 {
		t.Errorf("ForDomain(a) = %d corrs", got)
	}
	if got := len(m.ForDomain("zz")); got != 0 {
		t.Errorf("ForDomain(zz) = %d corrs", got)
	}
}

func TestInverseRoundTrip(t *testing.T) {
	m := New(dblpVen, dblpPub, "VenuePub")
	m.Add("v1", "p1", 1)
	m.Add("v1", "p2", 0.7)
	m.Add("v2", "p3", 0.4)
	inv := m.Inverse()
	if inv.Domain() != dblpPub || inv.Range() != dblpVen {
		t.Error("Inverse endpoints wrong")
	}
	if s, ok := inv.Sim("p2", "v1"); !ok || s != 0.7 {
		t.Errorf("Inverse sim = %v, %v", s, ok)
	}
	back := inv.Inverse()
	if !m.Equal(back, 0) {
		t.Error("double inverse should equal original")
	}
}

func TestInversePropertyQuick(t *testing.T) {
	f := func(pairs []struct {
		D, R uint8
		S    float64
	}) bool {
		m := NewSame(dblpPub, acmPub)
		for _, p := range pairs {
			m.Add(model.ID(rune('a'+p.D%16)), model.ID(rune('A'+p.R%16)), math.Abs(p.S)/(1+math.Abs(p.S)))
		}
		return m.Equal(m.Inverse().Inverse(), 1e-15) && m.Inverse().Len() == m.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestIdentity(t *testing.T) {
	set := model.NewObjectSet(dblpPub)
	set.AddNew("p1", nil)
	set.AddNew("p2", nil)
	id := Identity(set)
	if id.Len() != 2 {
		t.Fatalf("Identity len = %d", id.Len())
	}
	for _, c := range id.Correspondences() {
		if c.Domain != c.Range || c.Sim != 1 {
			t.Errorf("bad identity corr %+v", c)
		}
	}
}

func TestWithoutDiagonal(t *testing.T) {
	m := NewSame(dblpPub, dblpPub)
	m.Add("p1", "p1", 1)
	m.Add("p1", "p2", 0.8)
	m.Add("p2", "p2", 1)
	got := m.WithoutDiagonal()
	if got.Len() != 1 || !got.Has("p1", "p2") {
		t.Errorf("WithoutDiagonal = %v", got.Correspondences())
	}
}

func TestSortedCanonical(t *testing.T) {
	m := NewSame(dblpPub, acmPub)
	m.Add("b", "x", 0.5)
	m.Add("a", "y", 0.5)
	m.Add("a", "x", 0.9)
	got := m.Sorted()
	want := []Correspondence{{"a", "x", 0.9}, {"a", "y", 0.5}, {"b", "x", 0.5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Sorted = %v, want %v", got, want)
	}
}

func TestEqualEps(t *testing.T) {
	a := NewSame(dblpPub, acmPub)
	a.Add("p", "q", 0.5)
	b := NewSame(dblpPub, acmPub)
	b.Add("p", "q", 0.5000001)
	if !a.Equal(b, 1e-3) {
		t.Error("should be equal within eps")
	}
	if a.Equal(b, 1e-9) {
		t.Error("should differ at tight eps")
	}
	c := NewSame(dblpPub, gsPub)
	c.Add("p", "q", 0.5)
	if a.Equal(c, 1) {
		t.Error("different endpoints can never be equal")
	}
}

func TestStringRender(t *testing.T) {
	m := NewSame(dblpPub, acmPub)
	m.Add("p1", "q1", 0.875)
	s := m.String()
	if !strings.Contains(s, "Publication@DBLP") || !strings.Contains(s, "0.875") {
		t.Errorf("String() = %q", s)
	}
}

func TestDomainRangeIDsOrder(t *testing.T) {
	m := NewSame(dblpPub, acmPub)
	m.Add("b", "y", 1)
	m.Add("a", "x", 1)
	m.Add("b", "x", 1)
	if got := m.DomainIDs(); !reflect.DeepEqual(got, []model.ID{"b", "a"}) {
		t.Errorf("DomainIDs = %v", got)
	}
}
