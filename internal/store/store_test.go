package store

import (
	"slices"
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
	s.Put("b", sampleMapping(2)) // replace keeps the first insertion's place
	names := s.Names()
	if len(names) != 2 || names[0] != "b" || names[1] != "a" {
		t.Errorf("Names = %v, want [b a]", names)
	}
	if m, _ := s.Get("b"); m.Len() != 2 {
		t.Error("replacement not applied")
	}
}

// TestNamesSurviveReopenAfterOverwrite pins that a durable repository lists
// its names in the same order live and after a reopen, when an overwrite
// (of a full mapping, then of a delta) came between.
func TestNamesSurviveReopenAfterOverwrite(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("b", sampleMapping(1))
	s.Put("a", sampleMapping(1))
	s.Put("b", sampleMapping(2))
	s.PutDelta("c", dblpPub, acmPub, model.SameMappingType, []mapping.Correspondence{{Domain: "x", Range: "y", Sim: 1}})
	s.PutDelta("a", dblpPub, acmPub, model.SameMappingType, []mapping.Correspondence{{Domain: "x", Range: "y", Sim: 1}})
	live := s.Names()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Names(); !slices.Equal(got, live) {
		t.Fatalf("Names = %v after a reopen, %v live", got, live)
	}
}

// TestGenerationCountsChanges: every change to a name's mapping moves its
// generation, in memory and on replay, and nothing else does.
func TestGenerationCountsChanges(t *testing.T) {
	delta := []mapping.Correspondence{{Domain: "x", Range: "y", Sim: 1}}
	dir := t.TempDir()
	s, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		what string
		do   func() error
		want uint64
	}{
		{"put", func() error { return s.Put("m", sampleMapping(2)) }, 1},
		{"delta", func() error { return s.PutDelta("m", dblpPub, acmPub, model.SameMappingType, delta) }, 2},
		{"empty delta", func() error { return s.PutDelta("m", dblpPub, acmPub, model.SameMappingType, nil) }, 2},
		{"drop of an absent id", func() error { _, err := s.DropTouching("m", "nobody"); return err }, 2},
		{"drop", func() error { _, err := s.DropTouching("m", "x"); return err }, 3},
		{"put of another name", func() error { return s.Put("other", sampleMapping(1)) }, 3},
		{"delete", func() error { _, err := s.Delete("m"); return err }, 4},
		{"delete of an absent name", func() error { _, err := s.Delete("m"); return err }, 4},
		{"put again", func() error { return s.Put("m", sampleMapping(1)) }, 5},
	}
	for _, st := range steps {
		if err := st.do(); err != nil {
			t.Fatalf("%s: %v", st.what, err)
		}
		if got := s.Generation("m"); got != st.want {
			t.Fatalf("after %s: generation %d, want %d", st.what, got, st.want)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// The log holds put, delta, drop, delete and put for m.
	if got := re.Generation("m"); got != 5 {
		t.Errorf("replay: generation %d, want 5", got)
	}
	if err := re.Clear(); err != nil {
		t.Fatal(err)
	}
	if got, other := re.Generation("m"), re.Generation("other"); got != 6 || other != 2 {
		t.Errorf("after Clear: generations %d and %d, want 6 and 2", got, other)
	}
}

func TestClearAndSummarize(t *testing.T) {
	s := NewRepository()
	s.Put("a", sampleMapping(3))
	s.Put("b", mapping.New(dblpPub, acmPub, "asso"))
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
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
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != 8 {
		t.Errorf("Len = %d, want 8", s.Len())
	}
}
