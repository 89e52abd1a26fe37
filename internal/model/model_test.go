package model

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestLDSString(t *testing.T) {
	l := LDS{Source: "DBLP", Type: Publication}
	if got, want := l.String(), "Publication@DBLP"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestParseLDS(t *testing.T) {
	tests := []struct {
		in      string
		want    LDS
		wantErr bool
	}{
		{"Publication@DBLP", LDS{"DBLP", Publication}, false},
		{"Author@ACM", LDS{"ACM", Author}, false},
		{"Venue@GS", LDS{"GS", Venue}, false},
		{"NoAt", LDS{}, true},
		{"@DBLP", LDS{}, true},
		{"Publication@", LDS{}, true},
		{"", LDS{}, true},
	}
	for _, tc := range tests {
		got, err := ParseLDS(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("ParseLDS(%q) error = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("ParseLDS(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestParseLDSRoundTrip(t *testing.T) {
	f := func(src, typ string) bool {
		if src == "" || typ == "" || strings.ContainsRune(src, '@') || strings.ContainsRune(typ, '@') {
			return true // skip inputs outside the grammar
		}
		l := LDS{Source: PDS(src), Type: ObjectType(typ)}
		got, err := ParseLDS(l.String())
		return err == nil && got == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLDSSameType(t *testing.T) {
	a := LDS{"DBLP", Publication}
	b := LDS{"ACM", Publication}
	c := LDS{"DBLP", Author}
	if !a.SameType(b) {
		t.Error("Publication@DBLP and Publication@ACM should be same type")
	}
	if a.SameType(c) {
		t.Error("Publication@DBLP and Author@DBLP should differ")
	}
}

func TestInstanceAttrs(t *testing.T) {
	in := NewInstance("p1", map[string]string{"title": "Generic Schema Matching with Cupid", "year": "2001"})
	if got := in.Attr("title"); got != "Generic Schema Matching with Cupid" {
		t.Errorf("Attr(title) = %q", got)
	}
	if got := in.Attr("missing"); got != "" {
		t.Errorf("Attr(missing) = %q, want empty", got)
	}
	if !in.HasAttr("year") || in.HasAttr("missing") {
		t.Error("HasAttr mismatch")
	}
}

func TestNewInstanceCopiesAttrs(t *testing.T) {
	src := map[string]string{"a": "1"}
	in := NewInstance("x", src)
	src["a"] = "2"
	if in.Attr("a") != "1" {
		t.Error("NewInstance must copy the attribute map")
	}
}

func TestInstanceSetAttrNilMap(t *testing.T) {
	in := &Instance{ID: "x"}
	in.SetAttr("k", "v")
	if in.Attr("k") != "v" {
		t.Error("SetAttr on nil map failed")
	}
}

func TestInstanceNilSafety(t *testing.T) {
	var in *Instance
	if in.Attr("x") != "" {
		t.Error("nil Attr should be empty")
	}
	if in.HasAttr("x") {
		t.Error("nil HasAttr should be false")
	}
	if in.String() != "<nil>" {
		t.Error("nil String should be <nil>")
	}
}

func TestInstanceClone(t *testing.T) {
	in := NewInstance("p", map[string]string{"k": "v"})
	cp := in.Clone()
	cp.SetAttr("k", "w")
	if in.Attr("k") != "v" {
		t.Error("Clone must not share attribute storage")
	}
}

func TestInstanceStringSortedKeys(t *testing.T) {
	in := NewInstance("p1", map[string]string{"b": "2", "a": "1"})
	if got, want := in.String(), "p1{a=1, b=2}"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestObjectSetBasics(t *testing.T) {
	s := NewObjectSet(LDS{"DBLP", Publication})
	s.AddNew("p1", map[string]string{"title": "a"})
	s.AddNew("p2", map[string]string{"title": "b"})
	s.AddNew("p3", map[string]string{"title": "c"})

	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if !s.Has("p2") || s.Has("p9") {
		t.Error("Has mismatch")
	}
	if got := s.Get("p2").Attr("title"); got != "b" {
		t.Errorf("Get(p2).title = %q", got)
	}
	want := []ID{"p1", "p2", "p3"}
	if got := s.IDs(); !reflect.DeepEqual(got, want) {
		t.Errorf("IDs = %v, want %v", got, want)
	}
}

func TestObjectSetReplaceKeepsOrder(t *testing.T) {
	s := NewObjectSet(LDS{"DBLP", Publication})
	s.AddNew("p1", nil)
	s.AddNew("p2", nil)
	s.AddNew("p1", map[string]string{"title": "replaced"})
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if got := s.IDs(); !reflect.DeepEqual(got, []ID{"p1", "p2"}) {
		t.Errorf("IDs = %v", got)
	}
	if s.Get("p1").Attr("title") != "replaced" {
		t.Error("replacement not applied")
	}
}

func TestObjectSetIndexOf(t *testing.T) {
	s := NewObjectSet(LDS{"DBLP", Publication})
	ids := []ID{"p1", "p2", "p3", "p4"}
	for _, id := range ids {
		s.AddNew(id, map[string]string{"id": string(id)})
	}
	for want, id := range ids {
		if got := s.IndexOf(id); got != want {
			t.Errorf("IndexOf(%s) = %d, want %d", id, got, want)
		}
		if got := s.At(want); got.ID != id {
			t.Errorf("At(%d) = %s, want %s", want, got.ID, id)
		}
	}
	if got := s.IndexOf("ghost"); got != -1 {
		t.Errorf("IndexOf(ghost) = %d, want -1", got)
	}
	// Replacing keeps the ordinal; new instances extend the range.
	s.AddNew("p2", map[string]string{"id": "replaced"})
	if got := s.IndexOf("p2"); got != 1 {
		t.Errorf("IndexOf after replace = %d, want 1", got)
	}
	if s.At(1).Attr("id") != "replaced" {
		t.Error("At must observe the replacement")
	}
	s.AddNew("p5", nil)
	if got := s.IndexOf("p5"); got != 4 {
		t.Errorf("IndexOf(p5) = %d, want 4", got)
	}
	// Derived sets renumber densely from zero.
	sub := s.Subset([]ID{"p3", "p1"})
	if sub.IndexOf("p3") != 0 || sub.IndexOf("p1") != 1 {
		t.Errorf("subset ordinals = %d, %d; want 0, 1", sub.IndexOf("p3"), sub.IndexOf("p1"))
	}
	if sub.IndexOf("p2") != -1 {
		t.Error("subset must not index excluded instances")
	}
}

// TestObjectSetRemove: survivors keep insertion order with dense ordinals,
// the removed id is gone from every accessor, the version moves (derived
// columns are aligned with ordinals and must be rebuilt), and a removed id can
// come back at the tail.
func TestObjectSetRemove(t *testing.T) {
	s := NewObjectSet(LDS{"DBLP", Publication})
	for _, id := range []ID{"p1", "p2", "p3", "p4", "p5"} {
		s.AddNew(id, map[string]string{"id": string(id)})
	}
	col, _ := Column(s, testKey{"ids"}, s.IDs)
	if len(col) != 5 {
		t.Fatalf("column = %v", col)
	}
	v := s.Version()
	if s.Remove("ghost") || s.Version() != v {
		t.Fatal("removing an absent id must report false and leave the version alone")
	}
	if !s.Remove("p2") || !s.Remove("p5") {
		t.Fatal("Remove of a present id must report true")
	}
	if s.Version() == v {
		t.Fatal("Remove must move the version")
	}
	if _, ok := LookupColumn[[]ID](s, testKey{"ids"}); ok {
		t.Fatal("Remove must drop the set's derived columns")
	}
	want := []ID{"p1", "p3", "p4"}
	if got := s.IDs(); len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("survivors = %v, want %v", got, want)
	}
	for i, id := range want {
		if s.IndexOf(id) != i || s.IDAt(i) != id || s.At(i).ID != id {
			t.Errorf("ordinal %d: IndexOf(%s) = %d, IDAt = %s", i, id, s.IndexOf(id), s.IDAt(i))
		}
	}
	if s.Has("p2") || s.Get("p2") != nil || s.IndexOf("p2") != -1 || s.Len() != 3 {
		t.Fatal("removed instance still visible")
	}
	s.AddNew("p2", nil)
	if s.IndexOf("p2") != 3 {
		t.Fatalf("re-added id must take the tail ordinal, got %d", s.IndexOf("p2"))
	}
}

func TestObjectSetEachEarlyStop(t *testing.T) {
	s := NewObjectSet(LDS{"DBLP", Publication})
	for _, id := range []ID{"a", "b", "c", "d"} {
		s.AddNew(id, nil)
	}
	var seen int
	s.Each(func(in *Instance) bool {
		seen++
		return seen < 2
	})
	if seen != 2 {
		t.Errorf("seen = %d, want 2", seen)
	}
}

func TestObjectSetFilterSubset(t *testing.T) {
	s := NewObjectSet(LDS{"DBLP", Publication})
	s.AddNew("p1", map[string]string{"year": "2001"})
	s.AddNew("p2", map[string]string{"year": "2002"})
	s.AddNew("p3", map[string]string{"year": "2001"})

	f := s.Filter(func(in *Instance) bool { return in.Attr("year") == "2001" })
	if got := f.IDs(); !reflect.DeepEqual(got, []ID{"p1", "p3"}) {
		t.Errorf("Filter IDs = %v", got)
	}
	sub := s.Subset([]ID{"p3", "nope", "p1"})
	if got := sub.IDs(); !reflect.DeepEqual(got, []ID{"p3", "p1"}) {
		t.Errorf("Subset IDs = %v", got)
	}
	if sub.LDS() != s.LDS() {
		t.Error("Subset must keep the LDS")
	}
}

func TestObjectSetClone(t *testing.T) {
	s := NewObjectSet(LDS{"DBLP", Publication})
	s.AddNew("p1", map[string]string{"k": "v"})
	c := s.Clone()
	c.SetAttr(0, "k", "w")
	if s.Attr(0, "k") != "v" || c.Attr(0, "k") != "w" {
		t.Error("Clone must copy the values")
	}
}

func TestObjectSetInsertionOrderProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		s := NewObjectSet(LDS{"X", "T"})
		var want []ID
		seen := map[ID]bool{}
		for _, r := range raw {
			id := ID(rune('a' + r%26))
			s.AddNew(id, nil)
			if !seen[id] {
				seen[id] = true
				want = append(want, id)
			}
		}
		got := s.IDs()
		if len(got) != len(want) || s.Len() != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
