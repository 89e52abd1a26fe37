package moma

import (
	"fmt"
	"sync"
	"testing"
)

// TestSystemConcurrentUse exercises the System's shared namespace from many
// goroutines at once — scripts reading the current sets live while
// other goroutines register new sets and run matchers. Under -race this
// proves the Figure-3 architecture is safe for concurrent use, matching the
// documented guarantee of its stores.
func TestSystemConcurrentUse(t *testing.T) {
	sys := NewSystem()
	dblp := NewObjectSet(LDS{Source: "DBLP", Type: Publication})
	dblp.AddNew("d1", map[string]string{"title": "Generic Schema Matching with Cupid"})
	dblp.AddNew("d2", map[string]string{"title": "A formal perspective on the view selection problem"})
	acm := NewObjectSet(LDS{Source: "ACM", Type: Publication})
	acm.AddNew("a1", map[string]string{"title": "Generic Schema Matching with Cupid"})
	acm.AddNew("a2", map[string]string{"title": "The view selection problem"})
	if err := sys.AddObjectSet("DBLP.Publication", dblp); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddObjectSet("ACM.Publication", acm); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddMapping("Existing", IdentityOf(dblp)); err != nil {
		t.Fatal(err)
	}

	const rounds = 20
	var wg sync.WaitGroup
	wg.Add(3)
	errs := make(chan error, 3*rounds)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := sys.RunScript("$T = attrMatch (DBLP.Publication, ACM.Publication, Trigram, 0.8, \"[title]\", \"[title]\")\nRETURN $T\n"); err != nil {
				errs <- fmt.Errorf("RunScript: %w", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			set := NewObjectSet(LDS{Source: PDS(fmt.Sprintf("S%d", i)), Type: Publication})
			set.AddNew(ID(fmt.Sprintf("x%d", i)), map[string]string{"title": "concurrent"})
			if err := sys.AddObjectSet(fmt.Sprintf("S%d.Publication", i), set); err != nil {
				errs <- fmt.Errorf("AddObjectSet: %w", err)
				return
			}
			if _, ok := sys.ObjectSetByName(fmt.Sprintf("S%d.Publication", i)); !ok {
				errs <- fmt.Errorf("set S%d vanished", i)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		m := &AttributeMatcher{
			MatcherName: "title-trigram", AttrA: "title", AttrB: "title",
			Sim: Trigram, Threshold: 0.8,
		}
		for i := 0; i < rounds; i++ {
			if _, err := sys.MatchAndStore(m, "DBLP.Publication", "ACM.Publication", fmt.Sprintf("Same%d", i)); err != nil {
				errs <- fmt.Errorf("MatchAndStore: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, ok := sys.MappingByName("Same0"); !ok {
		t.Error("stored mapping missing after concurrent run")
	}
}

// TestConstraintReadsFirstSetPerLDS: when two registered sets share an LDS,
// select() constraints read the first one registered, on every system.
func TestConstraintReadsFirstSetPerLDS(t *testing.T) {
	dblpPub := LDS{Source: "DBLP", Type: Publication}
	acmPub := LDS{Source: "ACM", Type: Publication}
	for i := 0; i < 200; i++ {
		sys := NewSystem()
		first := NewObjectSet(dblpPub)
		first.AddNew("p1", map[string]string{"year": "2001"})
		second := NewObjectSet(dblpPub)
		second.AddNew("p1", map[string]string{"year": "1999"})
		acm := NewObjectSet(acmPub)
		acm.AddNew("q1", map[string]string{"year": "2001"})
		for _, reg := range []struct {
			name string
			set  *ObjectSet
		}{{"DBLP.Publication", first}, {"ACM.Publication", acm}, {"DBLP.PublicationV2", second}} {
			if err := sys.AddObjectSet(reg.name, reg.set); err != nil {
				t.Fatal(err)
			}
		}
		same := NewSameMapping(dblpPub, acmPub)
		same.Add("p1", "q1", 1)
		if err := sys.AddMapping("M.Same", same); err != nil {
			t.Fatal(err)
		}
		v, err := sys.RunScript(`RETURN select(M.Same, "[domain.year]=[range.year]")` + "\n")
		if err != nil {
			t.Fatal(err)
		}
		if v.Mapping.Len() != 1 {
			t.Fatalf("system %d: %d rows, want 1: the constraint read DBLP.PublicationV2", i, v.Mapping.Len())
		}
	}
}
