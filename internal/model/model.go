// Package model defines MOMA's object model: physical and logical data
// sources, semantic object types, and object instances.
//
// Following the paper (§2.1), a physical data source (PDS) such as DBLP or
// Google Scholar hosts one or more logical data sources (LDS). Each LDS
// contains the instances of exactly one semantic object type (Publication,
// Author, Venue, ...). Every instance is identified by an ID that is unique
// within its LDS and carries a flat bag of attribute values.
//
// An ObjectSet keeps its members' values as columns, one per attribute
// name, read by ordinal (Attr, HasAttr) and written by ordinal (SetAttr).
// An Instance is a standalone record — a query, a request, a member copied
// out of a set — with its own attribute map.
package model

import (
	"fmt"
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
// demand. An ObjectSet holds no Instance: Add copies an instance's values
// into the set's columns, and At, Get, Each and Instances copy a member out.
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

// SetAttr sets an attribute value, allocating the map if needed. It writes
// this instance only; a set member is written with ObjectSet.SetAttr.
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
