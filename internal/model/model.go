// Package model defines MOMA's object model: physical and logical data
// sources, semantic object types, and object instances.
//
// Following the paper (§2.1), a physical data source (PDS) such as DBLP or
// Google Scholar hosts one or more logical data sources (LDS). Each LDS
// contains the instances of exactly one semantic object type (Publication,
// Author, Venue, ...). Every instance is identified by an ID that is unique
// within its LDS and carries a flat bag of attribute values.
package model

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// ObjectType names a semantic object type such as "Publication".
type ObjectType string

// Common object types of the bibliographic domain used throughout the
// paper's examples and evaluation.
const (
	Publication ObjectType = "Publication"
	Author      ObjectType = "Author"
	Venue       ObjectType = "Venue"
)

// PDS names a physical data source, e.g. "DBLP".
type PDS string

// LDS identifies a logical data source: the instances of one object type
// within one physical data source, e.g. Publication@DBLP.
type LDS struct {
	Source PDS
	Type   ObjectType
}

// String renders the LDS in the paper's Type@Source notation.
func (l LDS) String() string { return string(l.Type) + "@" + string(l.Source) }

// SameType reports whether both logical sources hold the same object type,
// the precondition for same-mappings and for the merge operator.
func (l LDS) SameType(o LDS) bool { return l.Type == o.Type }

// ParseLDS parses the Type@Source notation produced by LDS.String.
func ParseLDS(s string) (LDS, error) {
	at := strings.IndexByte(s, '@')
	if at <= 0 || at == len(s)-1 {
		return LDS{}, fmt.Errorf("model: invalid LDS %q, want Type@Source", s)
	}
	return LDS{Source: PDS(s[at+1:]), Type: ObjectType(s[:at])}, nil
}

// ID identifies an object instance within its LDS.
type ID string

// Instance is a single object instance: an ID plus attribute values.
// Attribute values are kept as strings, matching the paper's setting of
// matching real, possibly schema-poor web data; typed accessors convert on
// demand.
type Instance struct {
	ID    ID
	Attrs map[string]string
}

// NewInstance returns an instance with the given id and a copy of attrs.
func NewInstance(id ID, attrs map[string]string) *Instance {
	cp := make(map[string]string, len(attrs))
	for k, v := range attrs {
		cp[k] = v
	}
	return &Instance{ID: id, Attrs: cp}
}

// Attr returns the value of the named attribute, or "" if absent.
func (in *Instance) Attr(name string) string {
	if in == nil || in.Attrs == nil {
		return ""
	}
	return in.Attrs[name]
}

// HasAttr reports whether the named attribute is present (even if empty).
func (in *Instance) HasAttr(name string) bool {
	if in == nil || in.Attrs == nil {
		return false
	}
	_, ok := in.Attrs[name]
	return ok
}

// SetAttr sets an attribute value, allocating the map if needed. When the
// instance belongs to an ObjectSet that may hold derived columns (Column),
// call the set's Touch afterwards — in-place mutation is invisible to the
// version counter and would otherwise serve stale columns.
func (in *Instance) SetAttr(name, value string) {
	if in.Attrs == nil {
		in.Attrs = make(map[string]string)
	}
	in.Attrs[name] = value
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	return NewInstance(in.ID, in.Attrs)
}

// String renders the instance as id{k=v, ...} with sorted keys, for logs and
// test failure messages.
func (in *Instance) String() string {
	if in == nil {
		return "<nil>"
	}
	keys := make([]string, 0, len(in.Attrs))
	for k := range in.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(string(in.ID))
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", k, in.Attrs[k])
	}
	b.WriteByte('}')
	return b.String()
}

// ObjectSet is the set of instances of one LDS (or a subset of it: the
// paper's match inputs "need not be entire LDS but only subsets", §2.1).
// Iteration order is insertion order, which keeps runs deterministic.
//
// A set keeps one map, pos, from id to insertion-order ordinal, beside two
// parallel slices indexed by that ordinal: order holds the ids and ins the
// instances. Get is a pos probe plus a slice index; At, IDAt and the walks
// (Each, Instances, Filter, Clone) read the slices and no map. Remove shifts
// both slices down over the removed slot and renumbers the ids after it, so
// it costs the distance from the tail.
type ObjectSet struct {
	lds     LDS
	pos     map[ID]int
	order   []ID
	ins     []*Instance
	version uint64
	cols    columns // derived columns, see Column
}

// NewObjectSet returns an empty object set for the given LDS.
func NewObjectSet(lds LDS) *ObjectSet { return newObjectSet(lds, 0) }

// NewObjectSetOf returns the set that one Add per instance of ins, in
// order, builds from an empty one: a repeated id keeps its first slot and
// its last instance, and Version() is len(ins). The set sizes its map and
// slices once and keeps its own copy of the pointers, so later writes to
// ins change nothing it holds.
func NewObjectSetOf(lds LDS, ins []*Instance) *ObjectSet {
	s := newObjectSet(lds, len(ins))
	for _, in := range ins {
		s.Add(in)
	}
	return s
}

// newObjectSet returns an empty object set with room for n instances.
func newObjectSet(lds LDS, n int) *ObjectSet {
	return &ObjectSet{lds: lds, pos: make(map[ID]int, n), order: make([]ID, 0, n), ins: make([]*Instance, 0, n)}
}

// LDS returns the logical data source this set draws from.
func (s *ObjectSet) LDS() LDS { return s.lds }

// Len returns the number of instances in the set.
func (s *ObjectSet) Len() int { return len(s.order) }

// Add inserts or replaces an instance. Replacing keeps the original
// position so iteration order stays stable.
func (s *ObjectSet) Add(in *Instance) {
	if i, exists := s.pos[in.ID]; exists {
		s.ins[i] = in
	} else {
		s.pos[in.ID] = len(s.order)
		s.order = append(s.order, in.ID)
		s.ins = append(s.ins, in)
	}
	s.version++
}

// Remove drops the instance with the given id and reports whether it was
// present. The survivors keep their insertion order; those inserted after
// the removed instance move down one ordinal, so the cost is proportional to
// the distance from the tail, and the version moves so that derived columns,
// which are aligned with ordinals, are rebuilt. The vacated tail slot is
// cleared, so the set keeps no reference to the removed instance.
func (s *ObjectSet) Remove(id ID) bool {
	i, ok := s.pos[id]
	if !ok {
		return false
	}
	// slices.Delete zeroes the vacated tail slot.
	s.order, s.ins = slices.Delete(s.order, i, i+1), slices.Delete(s.ins, i, i+1)
	for _, moved := range s.order[i:] {
		s.pos[moved]--
	}
	delete(s.pos, id)
	s.version++
	return true
}

// Version returns a counter that changes on every Add and Remove. The set's
// derived columns (Column) key their validity on it: an unchanged version
// guarantees the set's membership and instances are the ones a column was
// built from.
// Mutating an instance in place (SetAttr) does not bump the version; call
// Touch afterwards when the set may hold derived columns.
func (s *ObjectSet) Version() uint64 { return s.version }

// Touch bumps the version without changing membership, invalidating the
// set's derived columns after in-place instance mutation.
func (s *ObjectSet) Touch() { s.version++ }

// AddNew is a convenience for Add(NewInstance(id, attrs)).
func (s *ObjectSet) AddNew(id ID, attrs map[string]string) *Instance {
	in := NewInstance(id, attrs)
	s.Add(in)
	return in
}

// Get returns the instance with the given id, or nil.
func (s *ObjectSet) Get(id ID) *Instance {
	if i, ok := s.pos[id]; ok {
		return s.ins[i]
	}
	return nil
}

// IndexOf returns the insertion-order ordinal of the instance with the
// given id, or -1 when absent. Ordinals are dense in [0, Len()) and stable
// for as long as the version is (only Remove renumbers), which lets hot
// paths replace per-id map lookups with array indexing.
func (s *ObjectSet) IndexOf(id ID) int {
	if i, ok := s.pos[id]; ok {
		return i
	}
	return -1
}

// At returns the instance at the given insertion-order ordinal. It panics
// when i is out of [0, Len()), mirroring slice indexing.
func (s *ObjectSet) At(i int) *Instance { return s.ins[i] }

// IDAt returns the id at the given insertion-order ordinal — the
// ordinal-to-id translation on blocking hot paths.
func (s *ObjectSet) IDAt(i int) ID { return s.order[i] }

// Has reports whether an instance with the given id is present.
func (s *ObjectSet) Has(id ID) bool { _, ok := s.pos[id]; return ok }

// IDs returns the instance ids in insertion order. The returned slice is a
// copy and safe to mutate.
func (s *ObjectSet) IDs() []ID {
	ids := make([]ID, len(s.order))
	copy(ids, s.order)
	return ids
}

// Instances returns all instances in insertion order.
func (s *ObjectSet) Instances() []*Instance {
	out := make([]*Instance, len(s.ins))
	copy(out, s.ins)
	return out
}

// Each calls fn for every instance in insertion order, stopping early when
// fn returns false.
func (s *ObjectSet) Each(fn func(*Instance) bool) {
	for _, in := range s.ins {
		if !fn(in) {
			return
		}
	}
}

// Filter returns a new object set over the same LDS containing only the
// instances for which keep returns true.
func (s *ObjectSet) Filter(keep func(*Instance) bool) *ObjectSet {
	out := newObjectSet(s.lds, s.Len())
	for _, in := range s.ins {
		if keep(in) {
			out.Add(in)
		}
	}
	return out
}

// Subset returns a new object set containing the instances with the given
// ids, skipping unknown ids. It models querying a web source for selected
// objects rather than downloading the full LDS.
func (s *ObjectSet) Subset(ids []ID) *ObjectSet {
	out := newObjectSet(s.lds, len(ids))
	for _, id := range ids {
		if in := s.Get(id); in != nil {
			out.Add(in)
		}
	}
	return out
}

// Clone returns a deep copy of the set (instances are cloned too).
func (s *ObjectSet) Clone() *ObjectSet {
	out := newObjectSet(s.lds, s.Len())
	for _, in := range s.ins {
		out.Add(in.Clone())
	}
	return out
}
