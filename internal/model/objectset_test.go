package model

import (
	"fmt"
	"runtime"
	"testing"
)

// TestObjectSetResidentBytes bounds what a member costs a set beyond its id
// and value strings: the columns hold a string header and a presence flag
// per value, and there is no instance or map per member.
func TestObjectSetResidentBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 20 000-member set")
	}
	const n = 20000
	ids, titles, years := make([]ID, n), make([]string, n), make([]string, n)
	for i := range n {
		ids[i] = ID(fmt.Sprintf("conf/x/%06d", i))
		titles[i] = fmt.Sprintf("a title of some words number %d", i)
		years[i] = fmt.Sprint(1990 + i%30)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewObjectSet(LDS{"S", Publication})
	for i := range n {
		s.Add(&Instance{ID: ids[i], Attrs: map[string]string{"title": titles[i], "year": years[i]}})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	delta := int64(after.HeapInuse) - int64(before.HeapInuse)
	if perMember := float64(delta) / n; perMember > 128 {
		t.Fatalf("a set of %d two-attribute members holds %d heap bytes, %.1f per member beyond its strings; budget 128", n, delta, perMember)
	}
	t.Logf("%.1f heap bytes per member beyond its strings", float64(delta)/n)
	runtime.KeepAlive(s)
}

// TestObjectSetAttrReadsZeroAllocs pins the ordinal reads as allocation
// free: the readers of every derived column and constraint row call them
// once per member.
func TestObjectSetAttrReadsZeroAllocs(t *testing.T) {
	s := NewObjectSet(LDS{"S", Publication})
	for i := range 100 {
		s.AddNew(ID(fmt.Sprint("p", i)), map[string]string{"title": fmt.Sprint("t", i), "year": "2001", "empty": ""})
	}
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		for i := range s.Len() {
			sink += len(s.Attr(i, "title")) + len(s.Attr(i, "missing"))
			if s.HasAttr(i, "empty") && !s.HasAttr(i, "missing") {
				sink++
			}
			sink += s.IndexOf(s.IDAt(i)) + s.IndexOf("absent")
		}
	})
	if allocs != 0 {
		t.Fatalf("Attr, HasAttr and IndexOf allocate %.1f times per pass, want 0", allocs)
	}
	runtime.KeepAlive(sink)
}
