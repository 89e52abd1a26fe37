// Package a is golden input for dictgrowth: the read-path side.
package a

import "b"

// Resolve is a read path that stays lookup-only: fine.
//
//moma:readpath
func Resolve(d *b.Dict, q string) int {
	if id, ok := d.Lookup(q); ok {
		return id
	}
	return -1
}

// ResolveGrowing reaches Dict.ID through two in-package hops.
//
//moma:readpath
func ResolveGrowing(d *b.Dict, q string) int { // want "read path ResolveGrowing can reach an interning API: ResolveGrowing → prepare → Helper → Dict.ID"
	return prepare(d, q)
}

func prepare(d *b.Dict, q string) int {
	return b.Helper(d, q)
}

// ResolveViaInterface reaches the annotated interface method.
//
//moma:readpath
func ResolveViaInterface(p b.Profiler, q string) []int { // want "read path ResolveViaInterface can reach an interning API: ResolveViaInterface → Profiler.ProfileInto"
	var prof []int
	p.ProfileInto(q, &prof)
	return prof
}

// ResolveSuppressedEdge excuses a guarded call site with a justification.
//
//moma:readpath
func ResolveSuppressedEdge(d *b.Dict, q string) int {
	return b.Helper(d, q) //moma:dictgrowth-ok warmup path runs before serving starts
}

// write paths may intern freely: no //moma:readpath, no report.
func Ingest(d *b.Dict, q string) int {
	return d.ID(q)
}

// ClearedWithoutReason is treated as clean but must justify itself.
//
//moma:dictgrowth-ok
func ClearedWithoutReason(d *b.Dict, q string) int { // want "needs a one-line justification"
	return d.ID(q)
}
