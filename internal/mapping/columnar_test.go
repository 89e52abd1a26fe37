package mapping

// Edge-case coverage for the columnar mapping core: behaviors that the
// randomized differential tests hit only by luck are pinned explicitly.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/model"
)

// TestColumnarConcurrentReads pins that a built mapping is safe for any
// number of concurrent readers — including the first callers of the lazily
// built posting lists (run under -race).
func TestColumnarConcurrentReads(t *testing.T) {
	m := NewSame(ldsA, ldsB)
	for i := 0; i < 200; i++ {
		m.Add(model.ID(fmt.Sprintf("a%d", i%20)), model.ID(fmt.Sprintf("b%d", i)), 0.5)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := model.ID(fmt.Sprintf("a%d", w))
			if len(m.ForDomain(id)) == 0 {
				t.Errorf("ForDomain(%s) empty", id)
			}
			if m.Summarize().Corrs != 200 {
				t.Error("Summarize under concurrency")
			}
			if !m.Touches(id) {
				t.Errorf("Touches(%s) false", id)
			}
			if m.Cardinality() != model.CardOneToMany {
				t.Error("Cardinality under concurrency")
			}
		}(w)
	}
	wg.Wait()
}

func TestColumnarEmptyMappings(t *testing.T) {
	empty1 := NewSame(ldsA, ldsC)
	empty2 := NewSame(ldsC, ldsB)

	if got, err := Compose(empty1, empty2, MinCombiner, AggRelative); err != nil || got.Len() != 0 {
		t.Fatalf("compose of empty mappings: len=%d err=%v", got.Len(), err)
	}
	me := NewSame(ldsA, ldsB)
	if got, err := Merge(AvgCombiner, me, me.Clone()); err != nil || got.Len() != 0 {
		t.Fatalf("merge of empty mappings: len=%d err=%v", got.Len(), err)
	}
	if got := (BestN{N: 2, Side: BothSides}).Apply(me); got.Len() != 0 {
		t.Fatalf("selection over empty mapping: len=%d", got.Len())
	}
	if got := me.Inverse(); got.Len() != 0 {
		t.Fatalf("inverse of empty mapping: len=%d", got.Len())
	}
	if got := me.Cardinality(); got != model.CardUnknown {
		t.Fatalf("empty cardinality = %v, want CardUnknown", got)
	}
	st := me.Summarize()
	if st.Corrs != 0 || st.DomainObjs != 0 || st.RangeObjs != 0 {
		t.Fatalf("empty Summarize = %+v", st)
	}
	if me.ForDomain("nope") != nil || me.ForRange("nope") != nil {
		t.Fatal("per-object views of an empty mapping must be empty")
	}
	if me.Touches("nope") {
		t.Fatal("empty mapping must touch nothing")
	}
}

func TestColumnarAddVsAddMax(t *testing.T) {
	m := NewSame(ldsA, ldsB)
	m.Add("a", "b", 0.8)
	m.Add("a", "b", 0.3) // Add replaces
	if s, _ := m.Sim("a", "b"); s != 0.3 {
		t.Fatalf("Add should replace: sim=%v", s)
	}
	m.AddMax("a", "b", 0.1) // lower: keeps 0.3
	if s, _ := m.Sim("a", "b"); s != 0.3 {
		t.Fatalf("AddMax with lower sim must keep: sim=%v", s)
	}
	m.AddMax("a", "b", 0.9)
	if s, _ := m.Sim("a", "b"); s != 0.9 {
		t.Fatalf("AddMax with higher sim must replace: sim=%v", s)
	}
	if m.Len() != 1 {
		t.Fatalf("duplicate inserts must not grow the table: len=%d", m.Len())
	}
	// Duplicates must not duplicate posting-list entries either.
	if got := m.DomainCount("a"); got != 1 {
		t.Fatalf("DomainCount after duplicate adds = %d", got)
	}
	// Clamping applies on every entry point.
	m.Add("c", "d", 1.5)
	m.AddMax("e", "f", -0.5)
	if s, _ := m.Sim("c", "d"); s != 1 {
		t.Fatalf("Add must clamp to 1, got %v", s)
	}
	if s, _ := m.Sim("e", "f"); s != 0 {
		t.Fatalf("AddMax must clamp to 0, got %v", s)
	}
}

func TestColumnarComposeSharedNothingMiddles(t *testing.T) {
	m1 := NewSame(ldsA, ldsC)
	m1.Add("a1", "c1", 0.9)
	m1.Add("a2", "c2", 0.8)
	m2 := NewSame(ldsC, ldsB)
	m2.Add("c3", "b1", 0.9) // no middle overlaps m1's
	m2.Add("c4", "b2", 0.7)
	got, err := Compose(m1, m2, MinCombiner, AggAvg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("shared-nothing compose must be empty, got %d rows", got.Len())
	}
	// Mixed dictionaries with shared-nothing middles must also be empty
	// (the translation path returns misses, never panics).
	m2p := NewWithDict(ldsC, ldsB, model.SameMappingType, model.NewIDDict())
	m2p.Add("c5", "b3", 0.9)
	got, err = Compose(m1, m2p, MinCombiner, AggAvg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("mixed-dict shared-nothing compose must be empty, got %d rows", got.Len())
	}
}

func TestColumnarInverseInverseIdentity(t *testing.T) {
	m := NewSame(ldsA, ldsB)
	m.Add("a1", "b1", 0.9)
	m.Add("a1", "b2", 0.8)
	m.Add("a2", "b1", 0.7)
	inv2 := m.Inverse().Inverse()
	if !m.Equal(inv2, 0) {
		t.Fatal("Inverse∘Inverse must equal the original at eps 0")
	}
	// Insertion order must round-trip too (Equal ignores order).
	want := m.Correspondences()
	got := inv2.Correspondences()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Inverse∘Inverse row %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestColumnarMixedDictEqual interns the same ids in different orders into
// different dictionaries; Equal must compare by id, not ordinal.
func TestColumnarMixedDictEqual(t *testing.T) {
	d1, d2 := model.NewIDDict(), model.NewIDDict()
	m1 := NewWithDict(ldsA, ldsB, model.SameMappingType, d1)
	m2 := NewWithDict(ldsA, ldsB, model.SameMappingType, d2)

	// Same correspondence set, inserted in opposite orders: the ordinal
	// assignments disagree everywhere.
	m1.Add("a1", "b1", 0.9)
	m1.Add("a2", "b2", 0.8)
	m1.Add("a3", "b3", 0.7)
	m2.Add("a3", "b3", 0.7)
	m2.Add("a2", "b2", 0.8)
	m2.Add("a1", "b1", 0.9)

	if o1, _ := d1.Lookup("a1"); o1 == func() uint32 { o, _ := d2.Lookup("a1"); return o }() {
		t.Log("ordinals happen to agree; test still meaningful for the rest")
	}
	if !m1.Equal(m2, 0) || !m2.Equal(m1, 0) {
		t.Fatal("mappings with identical tables over different dictionaries must be Equal")
	}
	m2.Add("a4", "b4", 0.5)
	if m1.Equal(m2, 0) || m2.Equal(m1, 0) {
		t.Fatal("differing tables must not be Equal")
	}
	// Same size but different membership.
	m1.Add("a5", "b5", 0.5)
	if m1.Equal(m2, 0) || m2.Equal(m1, 0) {
		t.Fatal("same-size different-membership tables must not be Equal")
	}
}

func TestColumnarCloneIndependence(t *testing.T) {
	m := NewSame(ldsA, ldsB)
	m.Add("a1", "b1", 0.9)
	cp := m.Clone()
	cp.Add("a2", "b2", 0.8)
	cp.Add("a1", "b1", 0.1)
	if m.Len() != 1 {
		t.Fatalf("mutating a clone changed the original: len=%d", m.Len())
	}
	if s, _ := m.Sim("a1", "b1"); s != 0.9 {
		t.Fatalf("mutating a clone changed the original: sim=%v", s)
	}
	if cp.Dict() != m.Dict() {
		t.Fatal("clones share the dictionary")
	}
}

func TestColumnarEachOrdEarlyStop(t *testing.T) {
	m := NewSame(ldsA, ldsB)
	m.Add("a1", "b1", 0.9)
	m.Add("a2", "b2", 0.8)
	m.Add("a3", "b3", 0.7)
	n := 0
	m.EachOrd(func(_, _ uint32, _ float64) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("EachOrd visited %d rows, want 2", n)
	}
	ids := m.Dict().All()
	m.EachOrd(func(d, r uint32, s float64) bool {
		if ids[d] == "" || ids[r] == "" {
			t.Fatalf("ordinal resolution failed: %d/%d", d, r)
		}
		return true
	})
}

// TestFromColumnsEqualsAddMaxBuilt pins the bulk load the batch matchers
// end in: a mapping loaded from (dom, rng, sim) columns is the mapping the
// same rows build through AddMax — same sequence, same point lookups and
// posting lists — and stays a mapping afterwards: an Add of a loaded pair
// overwrites it through the lazily built index instead of appending a twin.
func TestFromColumnsEqualsAddMaxBuilt(t *testing.T) {
	want := NewSame(ldsA, ldsB)
	var dom, rng []uint32
	var sims []float64
	for i := 0; i < 500; i++ {
		a, b := model.ID(fmt.Sprintf("fa%d", i%37)), model.ID(fmt.Sprintf("fb%d", i))
		s := float64(i%11) / 10
		want.AddMax(a, b, s)
		dom, rng, sims = append(dom, model.IDs.Ord(a)), append(rng, model.IDs.Ord(b)), append(sims, s)
	}
	got := FromColumns(ldsA, ldsB, model.SameMappingType, dom, rng, sims)
	if !reflect.DeepEqual(got.Correspondences(), want.Correspondences()) {
		t.Fatal("bulk-loaded mapping holds a different correspondence sequence")
	}
	if !got.Equal(want, 0) || !want.Equal(got, 0) || got.Type() != want.Type() || got.Dict() != want.Dict() {
		t.Fatal("bulk-loaded mapping is not Equal to the AddMax-built one")
	}
	for _, c := range want.Correspondences() {
		if s, ok := got.Sim(c.Domain, c.Range); !ok || s != c.Sim || !got.Has(c.Domain, c.Range) {
			t.Fatalf("Sim(%s, %s) = %v, %v; want %v", c.Domain, c.Range, s, ok, c.Sim)
		}
		if !reflect.DeepEqual(got.ForDomain(c.Domain), want.ForDomain(c.Domain)) {
			t.Fatalf("ForDomain(%s) differs", c.Domain)
		}
	}
	if got.Has("fa0", "fb1") {
		t.Fatal("Has reports a pair that was never loaded")
	}
	for _, m := range []*Mapping{got, want} {
		m.Add("fa0", "fb0", 0.25)   // loaded pair: overwrite in place
		m.AddMax("fa1", "fb1", 0.9) // loaded pair: raise in place
		m.Add("fa-new", "fb-new", 1)
	}
	if got.Len() != 501 || !reflect.DeepEqual(got.Correspondences(), want.Correspondences()) {
		t.Fatalf("Add after the bulk load: %d rows, want 501 and the AddMax-built sequence", got.Len())
	}
	defer func() {
		if recover() == nil {
			t.Error("columns of unequal length must panic")
		}
	}()
	FromColumns(ldsA, ldsB, model.SameMappingType, dom, rng[:1], sims)
}
