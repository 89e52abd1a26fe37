package store

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/mapping"
	"repro/internal/model"
)

var (
	dblpPub = model.LDS{Source: "DBLP", Type: model.Publication}
	acmPub  = model.LDS{Source: "ACM", Type: model.Publication}
	gsPub   = model.LDS{Source: "GS", Type: model.Publication}
)

func sampleMapping(n int) *mapping.Mapping {
	m := mapping.NewSame(dblpPub, acmPub)
	for i := 0; i < n; i++ {
		m.Add(model.ID(rune('a'+i%26)), model.ID(rune('A'+i%26)), 0.5+float64(i%5)/10)
	}
	return m
}

func TestPutGetDelete(t *testing.T) {
	s := NewRepository()
	m := sampleMapping(3)
	if err := s.Put("pubs", m); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("pubs")
	if !ok || got.Len() != 3 {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if !s.Has("pubs") || s.Has("nope") {
		t.Error("Has mismatch")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	if ok, err := s.Delete("pubs"); err != nil || !ok {
		t.Errorf("Delete = %v, %v; should report true", ok, err)
	}
	if ok, err := s.Delete("pubs"); err != nil || ok {
		t.Errorf("second Delete = %v, %v; should report false", ok, err)
	}
	if s.Len() != 0 {
		t.Error("store should be empty")
	}
}

func TestPutValidation(t *testing.T) {
	s := NewRepository()
	if err := s.Put("", sampleMapping(1)); err == nil {
		t.Error("empty name should fail")
	}
	if err := s.Put("x", nil); err == nil {
		t.Error("nil mapping should fail")
	}
}

func TestNamesInsertionOrder(t *testing.T) {
	s := NewRepository()
	s.Put("b", sampleMapping(1))
	s.Put("a", sampleMapping(1))
	s.Put("b", sampleMapping(2)) // replace refreshes the entry's age
	names := s.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v, want [a b]", names)
	}
	if m, _ := s.Get("b"); m.Len() != 2 {
		t.Error("replacement not applied")
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewCache(2)
	c.Put("m1", sampleMapping(1))
	c.Put("m2", sampleMapping(1))
	c.Put("m3", sampleMapping(1))
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if c.Has("m1") {
		t.Error("oldest entry should be evicted")
	}
	if !c.Has("m2") || !c.Has("m3") {
		t.Error("newest entries should survive")
	}
}

// TestCacheEvictionAfterOverwrite is the regression test for re-put aging:
// overwriting an entry must refresh its age, so a bounded cache evicts the
// actually-oldest entry instead of a just-overwritten hot one.
func TestCacheEvictionAfterOverwrite(t *testing.T) {
	c := NewCache(2)
	c.Put("hot", sampleMapping(1))
	c.Put("cold", sampleMapping(1))
	c.Put("hot", sampleMapping(2)) // refresh: hot is now the newest entry
	c.Put("m3", sampleMapping(1))  // exceeds the limit
	if c.Has("cold") {
		t.Error("cold is the oldest entry and should have been evicted")
	}
	if !c.Has("hot") || !c.Has("m3") {
		t.Errorf("hot and m3 should survive, names = %v", c.Names())
	}
	if m, _ := c.Get("hot"); m.Len() != 2 {
		t.Error("overwritten value lost")
	}
	if got := c.Names(); len(got) != 2 || got[0] != "hot" || got[1] != "m3" {
		t.Errorf("Names = %v, want [hot m3]", got)
	}
}

func TestClearAndSummarize(t *testing.T) {
	s := NewRepository()
	s.Put("a", sampleMapping(3))
	s.Put("b", mapping.New(dblpPub, acmPub, "asso"))
	st := s.Summarize()
	if st.Mappings != 2 || st.Correspondences != 3 || st.SameMappings != 1 {
		t.Errorf("Summarize = %+v", st)
	}
	s.Clear()
	if s.Len() != 0 || len(s.Names()) != 0 {
		t.Error("Clear failed")
	}
}

func TestStoreString(t *testing.T) {
	s := NewRepository()
	s.Put("pubs", sampleMapping(2))
	out := s.String()
	if !strings.Contains(out, "pubs") || !strings.Contains(out, "Publication@DBLP") {
		t.Errorf("String = %q", out)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewRepository()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := string(rune('a' + i))
			for j := 0; j < 100; j++ {
				s.Put(name, sampleMapping(j%5))
				s.Get(name)
				s.Names()
				s.Summarize()
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != 8 {
		t.Errorf("Len = %d, want 8", s.Len())
	}
}
