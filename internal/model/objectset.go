package model

import (
	"fmt"
	"maps"
	"slices"
)

// ObjectSet is the set of instances of one LDS (or a subset of it: the
// paper's match inputs "need not be entire LDS but only subsets", §2.1).
// Iteration order is insertion order, which keeps runs deterministic.
//
// A set keeps one map, pos, from id to insertion-order ordinal, beside the
// ids in that order and one value column per attribute name that at least
// one member has, in the order the names first appeared, found through a
// second map from name to column: entry i of a column is member i's value,
// with a flag telling a present but empty value from an absent one. There
// is no instance and no map per member, and a column goes as soon as no
// member has its attribute any more. Attr, HasAttr and SetAttr read and write
// one value by ordinal and allocate nothing; At, Get, Each, Instances and
// Filter's callback copy a member out into a fresh Instance, so writing to
// one never reaches the set, and Add copies an instance's values in, so
// writing to the instance afterwards does not either. Remove shifts the ids
// and every column down over the removed slot and renumbers the ids after
// it, so it costs the distance from the tail.
type ObjectSet struct {
	lds     LDS
	pos     map[ID]int
	order   []ID
	attrs   []attrColumn
	col     map[string]int // attribute name -> index into attrs
	version uint64
	cols    columns // derived columns, see Column
}

// attrColumn is one attribute's values by ordinal. has[i] reports whether
// member i has the attribute; when it does not, val[i] is "". held counts
// the members that have it, and is never 0 in a set's columns.
type attrColumn struct {
	name string
	val  []string
	has  []bool
	held int
}

// NewObjectSet returns an empty object set for the given LDS.
func NewObjectSet(lds LDS) *ObjectSet { return &ObjectSet{lds: lds, pos: make(map[ID]int)} }

// NewObjectSetFromColumns returns the set that one Add per row, in order,
// builds from an empty one, where row r is the instance ids[r] holding
// attribute names[c] with value vals[c][r] for every c with has[c][r]: a
// repeated id keeps its first slot and its last row's values, a name no
// kept row has gets no column, and Version() is len(ids). The set takes the
// slices it is given as its own storage, so the caller must not use ids,
// vals or has afterwards. It panics when names repeat or a column's length
// is not len(ids).
func NewObjectSetFromColumns(lds LDS, ids []ID, names []string, vals [][]string, has [][]bool) *ObjectSet {
	if len(vals) != len(names) || len(has) != len(names) {
		panic(fmt.Sprintf("model: %d names, %d value and %d presence columns", len(names), len(vals), len(has)))
	}
	s := &ObjectSet{lds: lds, pos: make(map[ID]int, len(ids)), order: ids[:0], col: make(map[string]int, len(names)), version: uint64(len(ids))}
	for c, name := range names {
		if _, twice := s.col[name]; twice {
			panic(fmt.Sprintf("model: attribute %q named twice", name))
		}
		if len(vals[c]) != len(ids) || len(has[c]) != len(ids) {
			panic(fmt.Sprintf("model: column %q holds %d values and %d flags for %d ids", name, len(vals[c]), len(has[c]), len(ids)))
		}
		s.col[name] = c
		s.attrs = append(s.attrs, attrColumn{name: name, val: vals[c], has: has[c]})
	}
	// Rows compact in place: a row's slot is never after the row.
	for r, id := range ids {
		i, seen := s.pos[id]
		if !seen {
			i = len(s.order)
			s.pos[id] = i
			s.order = append(s.order, id)
		}
		for c := range s.attrs {
			col := &s.attrs[c]
			col.val[i], col.has[i] = col.val[r], col.has[r]
			if !col.has[i] {
				col.val[i] = ""
			}
		}
	}
	n := len(s.order)
	clear(ids[n:])
	for c := range s.attrs {
		col := &s.attrs[c]
		clear(col.val[n:])
		col.val, col.has = col.val[:n], col.has[:n]
		for _, h := range col.has {
			if h {
				col.held++
			}
		}
	}
	s.dropUnheld()
	return s
}

// LDS returns the logical data source this set draws from.
func (s *ObjectSet) LDS() LDS { return s.lds }

// Len returns the number of instances in the set.
func (s *ObjectSet) Len() int { return len(s.order) }

// AttrCount returns the number of attribute names at least one member has.
func (s *ObjectSet) AttrCount() int { return len(s.attrs) }

// AttrKnown reports whether at least one member has the named attribute.
func (s *ObjectSet) AttrKnown(name string) bool { return s.column(name) != nil }

// column returns the column of the named attribute, or nil when no member
// has it.
func (s *ObjectSet) column(name string) *attrColumn {
	if c, ok := s.col[name]; ok {
		return &s.attrs[c]
	}
	return nil
}

// columnFor returns the column of the named attribute, adding one in which
// every member lacks it when there is none. The caller must then give the
// attribute to a member, or the column breaks the rule that someone holds
// each.
func (s *ObjectSet) columnFor(name string) *attrColumn {
	if col := s.column(name); col != nil {
		return col
	}
	if s.col == nil {
		s.col = make(map[string]int)
	}
	n := len(s.order)
	s.col[name] = len(s.attrs)
	s.attrs = append(s.attrs, attrColumn{name: name, val: make([]string, n, cap(s.order)), has: make([]bool, n, cap(s.order))})
	return &s.attrs[len(s.attrs)-1]
}

// set gives member i the value v of col.
func (col *attrColumn) set(i int, v string) {
	if !col.has[i] {
		col.has[i] = true
		col.held++
	}
	col.val[i] = v
}

// unset takes col's value from member i.
func (col *attrColumn) unset(i int) {
	if col.has[i] {
		col.has[i] = false
		col.held--
	}
	col.val[i] = ""
}

// dropUnheld deletes the columns no member holds a value of and renumbers
// the name map, so that a name's column lives only as long as its values.
func (s *ObjectSet) dropUnheld() {
	if !slices.ContainsFunc(s.attrs, func(col attrColumn) bool { return col.held == 0 }) {
		return
	}
	s.attrs = slices.DeleteFunc(s.attrs, func(col attrColumn) bool { return col.held == 0 })
	s.col = make(map[string]int, len(s.attrs))
	for c, col := range s.attrs {
		s.col[col.name] = c
	}
}

// Add inserts or replaces an instance, copying its id and values into the
// set's columns. Replacing keeps the original position so iteration order
// stays stable, and drops every attribute the new instance lacks.
func (s *ObjectSet) Add(in *Instance) {
	i, exists := s.pos[in.ID]
	if exists {
		for c := range s.attrs {
			if col := &s.attrs[c]; col.has[i] && !hasKey(in.Attrs, col.name) {
				col.unset(i)
			}
		}
	} else {
		i = len(s.order)
		s.pos[in.ID] = i
		s.order = append(s.order, in.ID)
		for c := range s.attrs {
			col := &s.attrs[c]
			col.val, col.has = append(col.val, ""), append(col.has, false)
		}
	}
	var added []string
	for name := range in.Attrs {
		if s.column(name) == nil {
			added = append(added, name)
		}
	}
	slices.Sort(added) // names new in one Add take their columns in sorted order
	for _, name := range added {
		s.columnFor(name)
	}
	for name, v := range in.Attrs {
		s.column(name).set(i, v)
	}
	if exists {
		s.dropUnheld()
	}
	s.version++
}

// hasKey reports whether m has the key k.
func hasKey(m map[string]string, k string) bool {
	_, ok := m[k]
	return ok
}

// SetAttr sets the named attribute of the member at ordinal i and bumps the
// version, as Add does, so that derived columns are rebuilt. It panics when
// i is out of [0, Len()).
func (s *ObjectSet) SetAttr(i int, name, value string) {
	_ = s.order[i]
	s.columnFor(name).set(i, value)
	s.version++
}

// Attr returns the named attribute of the member at ordinal i, or "" if it
// is absent. It panics when i is out of [0, Len()).
func (s *ObjectSet) Attr(i int, name string) string {
	_ = s.order[i]
	if col := s.column(name); col != nil {
		return col.val[i]
	}
	return ""
}

// HasAttr reports whether the member at ordinal i has the named attribute
// (even if empty). It panics when i is out of [0, Len()).
func (s *ObjectSet) HasAttr(i int, name string) bool {
	_ = s.order[i]
	col := s.column(name)
	return col != nil && col.has[i]
}

// AttrNames returns, sorted, the names of the attributes that at least one
// member has.
func (s *ObjectSet) AttrNames() []string {
	names := make([]string, len(s.attrs))
	for c, col := range s.attrs {
		names[c] = col.name
	}
	slices.Sort(names)
	return names
}

// Remove drops the instance with the given id and reports whether it was
// present. The survivors keep their insertion order; those inserted after
// the removed instance move down one ordinal, so the cost is proportional to
// the distance from the tail, and the version moves so that derived columns,
// which are aligned with ordinals, are rebuilt. The vacated tail slots are
// cleared, so the set keeps no reference to the removed values, and a
// column that only the removed instance held goes with it.
func (s *ObjectSet) Remove(id ID) bool {
	i, ok := s.pos[id]
	if !ok {
		return false
	}
	// slices.Delete zeroes the vacated tail slot.
	s.order = slices.Delete(s.order, i, i+1)
	for c := range s.attrs {
		col := &s.attrs[c]
		col.unset(i)
		col.val, col.has = slices.Delete(col.val, i, i+1), slices.Delete(col.has, i, i+1)
	}
	s.dropUnheld()
	for _, moved := range s.order[i:] {
		s.pos[moved]--
	}
	delete(s.pos, id)
	s.version++
	return true
}

// Version returns a counter that changes on every Add, SetAttr and Remove.
// The set's derived columns (Column) key their validity on it: an unchanged
// version guarantees the set's members and values are the ones a column was
// built from.
func (s *ObjectSet) Version() uint64 { return s.version }

// AddNew adds the instance id with a copy of attrs and returns it, as
// Add(NewInstance(id, attrs)) does.
func (s *ObjectSet) AddNew(id ID, attrs map[string]string) *Instance {
	in := NewInstance(id, attrs)
	s.Add(in)
	return in
}

// Get returns a copy of the instance with the given id, or nil.
func (s *ObjectSet) Get(id ID) *Instance {
	if i, ok := s.pos[id]; ok {
		return s.At(i)
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

// At returns a copy of the instance at the given insertion-order ordinal:
// a fresh Instance whose map holds exactly the member's present attributes.
// It panics when i is out of [0, Len()), mirroring slice indexing.
func (s *ObjectSet) At(i int) *Instance {
	n := 0
	for c := range s.attrs {
		if s.attrs[c].has[i] {
			n++
		}
	}
	attrs := make(map[string]string, n)
	for c := range s.attrs {
		if col := &s.attrs[c]; col.has[i] {
			attrs[col.name] = col.val[i]
		}
	}
	return &Instance{ID: s.order[i], Attrs: attrs}
}

// IDAt returns the id at the given insertion-order ordinal — the
// ordinal-to-id translation on blocking hot paths.
func (s *ObjectSet) IDAt(i int) ID { return s.order[i] }

// Has reports whether an instance with the given id is present.
func (s *ObjectSet) Has(id ID) bool { _, ok := s.pos[id]; return ok }

// IDs returns the instance ids in insertion order. The returned slice is a
// copy and safe to mutate.
func (s *ObjectSet) IDs() []ID { return slices.Clone(s.order) }

// Instances returns a copy of every instance (At), in insertion order.
func (s *ObjectSet) Instances() []*Instance {
	out := make([]*Instance, len(s.order))
	for i := range out {
		out[i] = s.At(i)
	}
	return out
}

// Each calls fn with a copy of every instance (At) in insertion order,
// stopping early when fn returns false.
func (s *ObjectSet) Each(fn func(*Instance) bool) {
	for i := range s.order {
		if !fn(s.At(i)) {
			return
		}
	}
}

// Filter returns a new object set over the same LDS containing only the
// instances for which keep, given a copy of each (At), returns true.
func (s *ObjectSet) Filter(keep func(*Instance) bool) *ObjectSet {
	var ords []int
	for i := range s.order {
		if keep(s.At(i)) {
			ords = append(ords, i)
		}
	}
	return s.Pick(ords)
}

// Subset returns a new object set containing the instances with the given
// ids, skipping unknown ids and repeats. It models querying a web source
// for selected objects rather than downloading the full LDS.
func (s *ObjectSet) Subset(ids []ID) *ObjectSet {
	ords := make([]int, 0, len(ids))
	for _, id := range ids {
		if i, ok := s.pos[id]; ok {
			ords = append(ords, i)
		}
	}
	return s.Pick(ords)
}

// Clone returns a copy of the set: later writes to either set do not reach
// the other.
func (s *ObjectSet) Clone() *ObjectSet {
	ords := make([]int, len(s.order))
	for i := range ords {
		ords[i] = i
	}
	return s.Pick(ords)
}

// Pick returns a new set over the same LDS holding the members at the
// given ordinals, in the order they are first named, as one Add per
// distinct member builds it: a repeated ordinal is skipped, the values are
// copied column by column, without an instance, and a column none of the
// picked members holds is left out. It panics when an ordinal is out of
// [0, Len()).
func (s *ObjectSet) Pick(ords []int) *ObjectSet {
	out := &ObjectSet{lds: s.lds, pos: make(map[ID]int, len(ords))}
	kept := make([]int, 0, len(ords))
	for _, i := range ords {
		if id := s.order[i]; !out.Has(id) {
			out.pos[id] = len(out.order)
			out.order = append(out.order, id)
			kept = append(kept, i)
		}
	}
	out.version = uint64(len(kept))
	out.attrs = make([]attrColumn, len(s.attrs))
	for c, col := range s.attrs {
		val, has := make([]string, len(kept)), make([]bool, len(kept))
		held := 0
		for j, i := range kept {
			val[j], has[j] = col.val[i], col.has[i]
			if has[j] {
				held++
			}
		}
		out.attrs[c] = attrColumn{name: col.name, val: val, has: has, held: held}
	}
	out.col = maps.Clone(s.col)
	out.dropUnheld()
	return out
}
