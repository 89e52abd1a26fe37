package model

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// setModel is the object set as a plain slice of instances in insertion
// order, with the version counted by hand: the oracle of
// FuzzObjectSetMatchesModel.
type setModel struct {
	ins     []*Instance
	version uint64
}

func (m *setModel) index(id ID) int {
	return slices.IndexFunc(m.ins, func(in *Instance) bool { return in.ID == id })
}

func (m *setModel) add(in *Instance) {
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

// fuzzIDs is the id alphabet: five ids the sets hold and one they never do.
var fuzzIDs = []ID{"a", "b", "c", "d", "e", "absent"}

// FuzzObjectSetMatchesModel runs a random sequence of ObjectSet calls
// against setModel and checks every answer, the set's internal invariants
// (one pos entry per ordinal, no instance kept past the tail) and the
// results of Filter, Subset and Clone.
func FuzzObjectSetMatchesModel(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 2, 1, 3, 0, 6, 1})
	f.Add([]byte{1, 0, 1, 1, 1, 2, 1, 3, 2, 0, 2, 3, 2, 5, 4, 1, 8, 2, 9, 4, 0, 5, 0, 10, 0})
	f.Add([]byte{0, 4, 0, 3, 0, 2, 2, 2, 7, 0, 9, 6, 5, 5, 4, 3, 2, 1, 11, 0, 12, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := NewObjectSet(LDS{"S", Publication})
		var m setModel
		for step := 0; step+1 < len(ops); step += 2 {
			op, arg := ops[step], ops[step+1]
			id := fuzzIDs[int(arg)%len(fuzzIDs)]
			attrs := map[string]string{"step": fmt.Sprint(step), "odd": fmt.Sprint(arg%2 == 1)}
			switch op % 13 {
			case 0: // Add, new or replace
				in := &Instance{ID: id, Attrs: attrs}
				s.Add(in)
				m.add(in)
			case 1: // AddNew copies its attributes
				in := s.AddNew(id, attrs)
				attrs["step"] = "changed"
				if in.Attr("step") == "changed" {
					t.Fatalf("AddNew(%s) shares its attribute map with the caller", id)
				}
				m.add(in)
			case 2:
				if got, want := s.Remove(id), m.remove(id); got != want {
					t.Fatalf("Remove(%s) = %v, model %v", id, got, want)
				}
			case 3:
				if got, want := s.Get(id), m.get(id); got != want {
					t.Fatalf("Get(%s) = %v, model %v", id, got, want)
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
					if s.At(i) != m.ins[i] || s.IDAt(i) != m.ins[i].ID {
						t.Fatalf("At/IDAt(%d) = %v/%s, model %v", i, s.At(i), s.IDAt(i), m.ins[i])
					}
				}
			case 6: // Each stops after arg%4 instances
				stop := int(arg) % 4
				var seen []*Instance
				s.Each(func(in *Instance) bool {
					seen = append(seen, in)
					return len(seen) < stop
				})
				want := m.ins[:min(max(stop, 1), len(m.ins))]
				if !slices.Equal(seen, want) {
					t.Fatalf("Each stopping after %d visited %v, model %v", stop, seen, want)
				}
			case 7:
				if got := s.Instances(); !slices.Equal(got, m.ins) {
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
				if c.Len() != len(m.ins) || c.LDS() != s.LDS() {
					t.Fatalf("Clone has %d instances of %s, model %d of %s", c.Len(), c.LDS(), len(m.ins), s.LDS())
				}
				for i, in := range m.ins {
					if got := c.At(i); got == in || got.ID != in.ID || !reflect.DeepEqual(got.Attrs, in.Attrs) {
						t.Fatalf("Clone instance %d = %v (same pointer %v), model %v", i, got, got == in, in)
					}
				}
			case 11:
				if got := s.Len(); got != len(m.ins) {
					t.Fatalf("Len() = %d, model %d", got, len(m.ins))
				}
			case 12:
				if s.Version() != m.version {
					t.Fatalf("Version() = %d, model %d", s.Version(), m.version)
				}
			}
			checkSet(t, fmt.Sprintf("after op %d(%s)", op%13, id), s, &m)
		}
	})
}

// checkSet checks that s holds exactly m's instances in m's order and keeps
// its internal invariants.
func checkSet(t *testing.T, what string, s *ObjectSet, m *setModel) {
	t.Helper()
	if s.Len() != len(m.ins) || len(s.ins) != len(s.order) || len(s.pos) != len(s.order) {
		t.Fatalf("%s: Len %d, %d instances, %d ids and %d positions; model %d", what, s.Len(), len(s.ins), len(s.order), len(s.pos), len(m.ins))
	}
	for i, in := range m.ins {
		if s.ins[i] != in || s.order[i] != in.ID || s.pos[in.ID] != i {
			t.Fatalf("%s: slot %d holds %v (id %s, pos %d), model %v", what, i, s.ins[i], s.order[i], s.pos[in.ID], in)
		}
	}
	for i, in := range s.ins[len(s.ins):cap(s.ins)] {
		if in != nil {
			t.Fatalf("%s: slot %d past the tail still holds %v", what, len(s.ins)+i, in)
		}
	}
}

// TestNewObjectSetOfMatchesAdd holds the bulk constructor to one Add per
// instance: over random id sequences with repeats, the same slots,
// instances, IndexOf answers, IDs() order and Version(), and a set that
// does not see later writes to the caller's slice.
func TestNewObjectSetOfMatchesAdd(t *testing.T) {
	lds := LDS{"S", Publication}
	for round := range 50 {
		ins := make([]*Instance, round%9)
		for i := range ins {
			ins[i] = &Instance{ID: fuzzIDs[(i*7+round)%5], Attrs: map[string]string{"i": fmt.Sprint(i)}}
		}
		s := NewObjectSetOf(lds, ins)
		byAdd := NewObjectSet(lds)
		var m setModel
		for _, in := range ins {
			byAdd.Add(in)
			m.add(in)
		}
		check := func(what string) {
			t.Helper()
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
		check(fmt.Sprintf("round %d", round))
		for i := range ins {
			ins[i] = &Instance{ID: "absent"}
		}
		check(fmt.Sprintf("round %d after writes to the caller's slice", round))
	}
}
