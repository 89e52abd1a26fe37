package model

import (
	"fmt"
	"maps"
	"slices"
	"testing"
)

// setModel is the object set as a plain slice of instances in insertion
// order, each a copy the model owns, with the version counted by hand: the
// oracle of FuzzObjectSetMatchesModel.
type setModel struct {
	ins     []*Instance
	version uint64
}

func (m *setModel) index(id ID) int {
	return slices.IndexFunc(m.ins, func(in *Instance) bool { return in.ID == id })
}

// add adds a copy of in.
func (m *setModel) add(in *Instance) {
	in = in.Clone()
	if i := m.index(in.ID); i >= 0 {
		m.ins[i] = in
	} else {
		m.ins = append(m.ins, in)
	}
	m.version++
}

func (m *setModel) remove(id ID) bool {
	i := m.index(id)
	if i < 0 {
		return false
	}
	m.ins = slices.Delete(m.ins, i, i+1)
	m.version++
	return true
}

func (m *setModel) get(id ID) *Instance {
	if i := m.index(id); i >= 0 {
		return m.ins[i]
	}
	return nil
}

// sameInstance reports whether got holds want's id and exactly its
// attributes, by value.
func sameInstance(got, want *Instance) bool {
	if got == nil || want == nil {
		return got == want
	}
	return got.ID == want.ID && maps.Equal(got.Attrs, want.Attrs)
}

// sameInstances is sameInstance over two slices.
func sameInstances(got, want []*Instance) bool {
	return slices.EqualFunc(got, want, sameInstance)
}

// fuzzIDs is the id alphabet: five ids the sets hold and one they never do.
var fuzzIDs = []ID{"a", "b", "c", "d", "e", "absent"}

// fuzzAttrs is the attribute-name alphabet: "step" every added instance
// has, "odd" and "empty" (present but empty) some have, and "k" only
// SetAttr writes.
var fuzzAttrs = []string{"step", "odd", "empty", "k", "never"}

// fuzzInstance is the instance op (step, arg) adds. Which of "odd" and
// "empty" it has does not follow from its id, so a replace can drop one.
func fuzzInstance(id ID, step int, arg byte) *Instance {
	attrs := map[string]string{"step": fmt.Sprint(step)}
	if int(arg)/len(fuzzIDs)%2 == 1 {
		attrs["odd"] = "true"
	}
	if step%3 == 0 {
		attrs["empty"] = ""
	}
	return &Instance{ID: id, Attrs: attrs}
}

// FuzzObjectSetMatchesModel runs a random sequence of ObjectSet calls
// against setModel and checks every answer by value, the set's internal
// invariants (one pos entry per ordinal, columns as long as the ids, an
// absent value stored as "", nothing kept past the tail, a column for
// exactly the names some member holds, each found through the name map)
// and the results of Filter, Subset and Clone. Writes to the caller's map
// after Add, to a copied-out instance and to a clone must not reach the
// set.
func FuzzObjectSetMatchesModel(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 2, 1, 3, 0, 6, 1})
	f.Add([]byte{1, 0, 1, 1, 1, 2, 1, 3, 2, 0, 2, 3, 2, 5, 4, 1, 8, 2, 9, 4, 0, 5, 0, 10, 0})
	f.Add([]byte{0, 4, 0, 3, 0, 2, 2, 2, 7, 0, 9, 6, 5, 5, 4, 3, 2, 1, 11, 0, 12, 3})
	f.Add([]byte{0, 0, 0, 3, 13, 1, 14, 0, 13, 7, 14, 2, 2, 0, 14, 5, 10, 1, 8, 1, 0, 3, 14, 4})
	f.Add([]byte{0, 7, 1, 2, 0, 1, 3, 1, 8, 0, 0, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := NewObjectSet(LDS{"S", Publication})
		var m setModel
		for step := 0; step+1 < len(ops); step += 2 {
			op, arg := ops[step], ops[step+1]
			id := fuzzIDs[int(arg)%len(fuzzIDs)]
			name := fuzzAttrs[int(arg)%len(fuzzAttrs)]
			switch op % 15 {
			case 0: // Add, new or replace; the caller's map stays the caller's
				in := fuzzInstance(id, step, arg)
				s.Add(in)
				m.add(in)
				in.Attrs["step"], in.Attrs["k"] = "changed", "added later"
			case 1: // AddNew copies its attributes
				in := fuzzInstance(id, step, arg)
				got := s.AddNew(id, in.Attrs)
				m.add(in)
				in.Attrs["step"] = "changed"
				if got.Attr("step") == "changed" {
					t.Fatalf("AddNew(%s) shares its attribute map with the caller", id)
				}
			case 2:
				if got, want := s.Remove(id), m.remove(id); got != want {
					t.Fatalf("Remove(%s) = %v, model %v", id, got, want)
				}
			case 3: // Get copies out
				got, want := s.Get(id), m.get(id)
				if !sameInstance(got, want) {
					t.Fatalf("Get(%s) = %v, model %v", id, got, want)
				}
				if got != nil {
					got.SetAttr("step", "changed")
				}
			case 4:
				if got, want := s.IndexOf(id), m.index(id); got != want {
					t.Fatalf("IndexOf(%s) = %d, model %d", id, got, want)
				}
				if got, want := s.Has(id), m.index(id) >= 0; got != want {
					t.Fatalf("Has(%s) = %v, model %v", id, got, want)
				}
			case 5:
				if len(m.ins) > 0 {
					i := int(arg) % len(m.ins)
					if got := s.At(i); !sameInstance(got, m.ins[i]) || s.IDAt(i) != m.ins[i].ID {
						t.Fatalf("At/IDAt(%d) = %v/%s, model %v", i, got, s.IDAt(i), m.ins[i])
					}
				}
			case 6: // Each stops after arg%4 instances
				stop := int(arg) % 4
				var seen []*Instance
				s.Each(func(in *Instance) bool {
					seen = append(seen, in)
					in.SetAttr("written", "by Each's callback")
					return len(seen) < stop
				})
				want := m.ins[:min(max(stop, 1), len(m.ins))]
				for _, in := range seen {
					delete(in.Attrs, "written")
				}
				if !sameInstances(seen, want) {
					t.Fatalf("Each stopping after %d visited %v, model %v", stop, seen, want)
				}
			case 7:
				if got := s.Instances(); !sameInstances(got, m.ins) {
					t.Fatalf("Instances() = %v, model %v", got, m.ins)
				}
				ids := s.IDs()
				for i, in := range m.ins {
					if ids[i] != in.ID {
						t.Fatalf("IDs() = %v, model %v", ids, m.ins)
					}
				}
				if len(ids) > 0 {
					ids[0] = "mutated"
					if s.IDAt(0) == "mutated" {
						t.Fatal("IDs() shares its slice with the set")
					}
				}
			case 8:
				keep := func(in *Instance) bool { return in.Attr("odd") == "true" }
				want := setModel{}
				for _, in := range m.ins {
					if keep(in) {
						want.add(in)
					}
				}
				checkSet(t, "Filter", s.Filter(keep), &want)
			case 9: // Subset of the ids the next arg%6 bytes name, unknown and repeated ones included
				var ids []ID
				var want setModel
				for _, b := range ops[step+1 : min(step+2+int(arg)%6, len(ops))] {
					sid := fuzzIDs[int(b)%len(fuzzIDs)]
					ids = append(ids, sid)
					if in := m.get(sid); in != nil {
						want.add(in)
					}
				}
				checkSet(t, "Subset", s.Subset(ids), &want)
			case 10:
				c := s.Clone()
				if c.LDS() != s.LDS() {
					t.Fatalf("Clone of %s is over %s", s.LDS(), c.LDS())
				}
				checkSet(t, "Clone", c, &m)
				if c.Len() > 0 {
					c.SetAttr(0, "step", "written to the clone")
				}
			case 11:
				if got := s.Len(); got != len(m.ins) {
					t.Fatalf("Len() = %d, model %d", got, len(m.ins))
				}
			case 12:
				if s.Version() != m.version {
					t.Fatalf("Version() = %d, model %d", s.Version(), m.version)
				}
			case 13: // SetAttr by ordinal, empty values included
				if len(m.ins) > 0 {
					i := int(arg) % len(m.ins)
					v := fmt.Sprint("set", step)
					if arg%4 == 0 {
						v = ""
					}
					s.SetAttr(i, name, v)
					m.ins[i].SetAttr(name, v)
					m.version++
				}
			case 14: // Attr and HasAttr by ordinal
				if len(m.ins) > 0 {
					i := int(arg) % len(m.ins)
					for _, a := range fuzzAttrs {
						if got, want := s.Attr(i, a), m.ins[i].Attr(a); got != want {
							t.Fatalf("Attr(%d, %s) = %q, model %q", i, a, got, want)
						}
						if got, want := s.HasAttr(i, a), m.ins[i].HasAttr(a); got != want {
							t.Fatalf("HasAttr(%d, %s) = %v, model %v", i, a, got, want)
						}
					}
				}
			}
			checkSet(t, fmt.Sprintf("after op %d(%s)", op%15, id), s, &m)
		}
	})
}

// checkSet checks that s holds exactly m's instances in m's order, by
// value, and keeps its internal invariants.
func checkSet(t *testing.T, what string, s *ObjectSet, m *setModel) {
	t.Helper()
	if s.Len() != len(m.ins) || len(s.pos) != len(s.order) {
		t.Fatalf("%s: Len %d, %d ids and %d positions; model %d", what, s.Len(), len(s.order), len(s.pos), len(m.ins))
	}
	for _, id := range s.order[len(s.order):cap(s.order)] {
		if id != "" {
			t.Fatalf("%s: an id past the tail is still held: %s", what, id)
		}
	}
	if len(s.col) != len(s.attrs) {
		t.Fatalf("%s: %d names map to %d columns", what, len(s.col), len(s.attrs))
	}
	names := map[string]bool{}
	for _, in := range m.ins {
		for name := range in.Attrs {
			names[name] = true
		}
	}
	if got, want := s.AttrNames(), slices.Sorted(maps.Keys(names)); !slices.Equal(got, want) || s.AttrCount() != len(want) {
		t.Fatalf("%s: AttrNames() = %v and AttrCount() = %d, model %v", what, got, s.AttrCount(), want)
	}
	for c, col := range s.attrs {
		if len(col.val) != len(s.order) || len(col.has) != len(s.order) || s.col[col.name] != c {
			t.Fatalf("%s: column %q (mapped to %d) holds %d values and %d flags for %d ids", what, col.name, s.col[col.name], len(col.val), len(col.has), len(s.order))
		}
		held := 0
		for _, h := range col.has {
			if h {
				held++
			}
		}
		if held == 0 || col.held != held {
			t.Fatalf("%s: column %q counts %d holders in %v", what, col.name, col.held, col.has)
		}
		if !s.AttrKnown(col.name) {
			t.Fatalf("%s: AttrKnown(%q) = false for a held column", what, col.name)
		}
		for i, v := range col.val[:cap(col.val)] {
			if v != "" && (i >= len(col.has) || !col.has[i]) {
				t.Fatalf("%s: column %q holds %q in slot %d, where no member has it", what, col.name, v, i)
			}
		}
	}
	for i, in := range m.ins {
		if s.order[i] != in.ID || s.pos[in.ID] != i {
			t.Fatalf("%s: slot %d holds id %s (pos %d), model %v", what, i, s.order[i], s.pos[in.ID], in)
		}
		for name, v := range in.Attrs {
			if col := s.column(name); col == nil || !col.has[i] || col.val[i] != v {
				t.Fatalf("%s: slot %d lacks %s=%q, model %v", what, i, name, v, in)
			}
		}
		for _, col := range s.attrs {
			if col.has[i] && !in.HasAttr(col.name) {
				t.Fatalf("%s: slot %d has %s=%q, model %v", what, i, col.name, col.val[i], in)
			}
		}
	}
}

// TestNewObjectSetFromColumnsMatchesAdd holds the column constructor to
// one Add per row: over random id sequences with repeats and values that
// are absent, present but empty, or present, the same slots, values,
// IndexOf answers, IDs() order and Version().
func TestNewObjectSetFromColumnsMatchesAdd(t *testing.T) {
	lds := LDS{"S", Publication}
	names := []string{"title", "year", "note"}
	for round := range 50 {
		n := round % 9
		ids := make([]ID, n)
		vals, has := make([][]string, len(names)), make([][]bool, len(names))
		for c := range names {
			vals[c], has[c] = make([]string, n), make([]bool, n)
		}
		byAdd := NewObjectSet(lds)
		var m setModel
		for r := range ids {
			ids[r] = fuzzIDs[(r*7+round)%5]
			in := &Instance{ID: ids[r], Attrs: map[string]string{}}
			for c, name := range names {
				switch (r + c + round) % 3 {
				case 0: // absent; a stray value must not leak in
					vals[c][r] = "stray"
				case 1:
					vals[c][r], has[c][r] = "", true
				case 2:
					vals[c][r], has[c][r] = fmt.Sprint(name, r), true
				}
				if has[c][r] {
					in.Attrs[name] = vals[c][r]
				}
			}
			byAdd.Add(in)
			m.add(in)
		}
		s := NewObjectSetFromColumns(lds, ids, names, vals, has)
		what := fmt.Sprintf("round %d", round)
		checkSet(t, what, s, &m)
		if s.LDS() != lds || s.Version() != byAdd.Version() || !slices.Equal(s.IDs(), byAdd.IDs()) {
			t.Fatalf("%s: LDS %v, version %d, ids %v; one Add per row: %v, %d, %v",
				what, s.LDS(), s.Version(), s.IDs(), lds, byAdd.Version(), byAdd.IDs())
		}
		for _, id := range fuzzIDs {
			if got, want := s.IndexOf(id), byAdd.IndexOf(id); got != want {
				t.Fatalf("%s: IndexOf(%s) = %d, one Add per row %d", what, id, got, want)
			}
		}
	}
}

// TestNewObjectSetFromColumnsRejects pins the constructor's panics on
// columns that cannot describe a set.
func TestNewObjectSetFromColumnsRejects(t *testing.T) {
	lds := LDS{"S", Publication}
	for what, build := range map[string]func(){
		"repeated name": func() {
			NewObjectSetFromColumns(lds, []ID{"a"}, []string{"x", "x"}, [][]string{{""}, {""}}, [][]bool{{false}, {false}})
		},
		"short column": func() {
			NewObjectSetFromColumns(lds, []ID{"a", "b"}, []string{"x"}, [][]string{{""}}, [][]bool{{false, false}})
		},
		"missing column": func() { NewObjectSetFromColumns(lds, []ID{"a"}, []string{"x"}, nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", what)
				}
			}()
			build()
		}()
	}
}
