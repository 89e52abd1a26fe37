package mapping

// Edge-case coverage for the columnar mapping core: behaviors that the
// randomized differential tests hit only by luck are pinned explicitly.

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/model"
)

// TestColumnarConcurrentReads pins that a built mapping is safe for any
// number of concurrent readers — including the first callers of the lazily
// built pair index (run under -race).
func TestColumnarConcurrentReads(t *testing.T) {
	built := NewSame(ldsA, ldsB)
	for i := 0; i < 200; i++ {
		built.Add(model.ID(fmt.Sprintf("a%d", i%20)), model.ID(fmt.Sprintf("b%d", i)), 0.5)
	}
	m := built.Clone() // the clone's pair index is unbuilt
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := model.ID(fmt.Sprintf("a%d", w))
			if len(m.ForDomain(id)) == 0 {
				t.Errorf("ForDomain(%s) empty", id)
			}
			if s, ok := m.Sim(id, model.ID(fmt.Sprintf("b%d", w))); !ok || s != 0.5 {
				t.Errorf("Sim(%s, b%d) = %v, %v", id, w, s, ok)
			}
			if !m.Touches(id) {
				t.Errorf("Touches(%s) false", id)
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
	if me.ForDomain("nope") != nil {
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
	if got := len(m.ForDomain("a")); got != 1 {
		t.Fatalf("ForDomain after duplicate adds = %d rows", got)
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

// TestMixedDictsRejected: every mapping the program builds interns through
// model.IDs, so an input over another dictionary is a programming error.
// Every Merge and Compose entry point reports it, on either side, whatever
// the combiner; Equal reports false even for the same rows.
func TestMixedDictsRejected(t *testing.T) {
	build := func(dom, rng model.LDS, dict *model.IDDict, rows ...string) *Mapping {
		m := NewWithDict(dom, rng, model.SameMappingType, dict)
		for i := 0; i+1 < len(rows); i += 2 {
			m.Add(model.ID(rows[i]), model.ID(rows[i+1]), 0.8)
		}
		return m
	}
	ab := build(ldsA, ldsB, model.IDs, "a1", "b1", "a2", "b2")
	abPriv := build(ldsA, ldsB, model.NewIDDict(), "a1", "b1", "a2", "b2")
	ac := build(ldsA, ldsC, model.IDs, "a1", "c1")
	acPriv := build(ldsA, ldsC, model.NewIDDict(), "a1", "c1")
	cb := build(ldsC, ldsB, model.IDs, "c1", "b1")
	cbPriv := build(ldsC, ldsB, model.NewIDDict(), "c1", "b1")
	cases := []struct {
		name string
		run  func() (*Mapping, error)
	}{
		{"Compose private right", func() (*Mapping, error) { return Compose(ac, cbPriv, MinCombiner, AggAvg) }},
		{"Compose private left", func() (*Mapping, error) { return Compose(acPriv, cb, MinCombiner, AggRelative) }},
		{"ComposeWorkers", func() (*Mapping, error) { return ComposeWorkers(ac, cbPriv, MinCombiner, AggMax, 4) }},
		{"ComposeChain", func() (*Mapping, error) { return ComposeChain(MinCombiner, AggAvg, ac, cbPriv) }},
		{"Merge", func() (*Mapping, error) { return Merge(AvgCombiner, ab, abPriv) }},
		{"Merge private first", func() (*Mapping, error) { return Merge(Min0Combiner, abPriv, ab, ab) }},
		{"Merge prefer", func() (*Mapping, error) { return Merge(PreferCombiner(0), ab, abPriv) }},
		{"MergeWorkers", func() (*Mapping, error) { return MergeWorkers(MaxCombiner, 4, ab, ab, abPriv) }},
	}
	for _, c := range cases {
		out, err := c.run()
		if !errors.Is(err, errMixedDicts) || out != nil {
			t.Errorf("%s over two dictionaries: %v, %v; want the mixed-dictionary error", c.name, out, err)
		}
	}
	if ab.Equal(abPriv, 0) || abPriv.Equal(ab, 0) {
		t.Error("mappings over different dictionaries must not be Equal")
	}
	if !ab.Equal(ab.Clone(), 0) {
		t.Error("a mapping must be Equal to its clone")
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

// TestFromOrdinalsEqualsAddBuilt pins the replay bulk load: rows with
// repeated pairs and similarities outside [0,1] load into exactly the
// mapping per-row Add builds — each pair at its first position with its
// last (clamped) similarity, bit for bit — over model.IDs, and its
// prebuilt pair index serves lookups and later AddMax.
func TestFromOrdinalsEqualsAddBuilt(t *testing.T) {
	dict := model.IDs
	want := NewSame(ldsA, ldsB)
	var pairs []uint32
	var sims []float64
	for i := 0; i < 800; i++ {
		a, b := model.ID(fmt.Sprintf("oa%d", i%41)), model.ID(fmt.Sprintf("ob%d", i%53))
		s := float64(i%23)/10 - 0.7 // -0.7 … 1.5
		want.Add(a, b, s)
		pairs, sims = append(pairs, dict.Ord(a), dict.Ord(b)), append(sims, s)
	}
	got := FromOrdinals(ldsA, ldsB, model.SameMappingType, pairs, sims)
	if got.Dict() != dict || got.Len() != want.Len() {
		t.Fatalf("bulk load: %d rows over %p, want %d over %p", got.Len(), got.Dict(), want.Len(), dict)
	}
	for i := 0; i < want.Len(); i++ {
		g, w := got.At(i), want.At(i)
		if g.Domain != w.Domain || g.Range != w.Range || math.Float64bits(g.Sim) != math.Float64bits(w.Sim) {
			t.Fatalf("row %d: got %v, Add built %v", i, g, w)
		}
		if s, ok := got.Sim(w.Domain, w.Range); !ok || s != w.Sim {
			t.Fatalf("Sim(%s, %s) = %v, %v through the loaded index", w.Domain, w.Range, s, ok)
		}
	}
	for _, m := range []*Mapping{got, want} {
		m.AddMax("oa1", "ob1", 2)
		m.AddMax("oa-new", "ob-new", 0.5)
	}
	if !reflect.DeepEqual(got.Correspondences(), want.Correspondences()) {
		t.Fatal("AddMax after the bulk load diverges from the Add-built mapping")
	}
	defer func() {
		if recover() == nil {
			t.Error("rows without two ordinals per similarity must panic")
		}
	}()
	FromOrdinals(ldsA, ldsB, model.SameMappingType, pairs[1:], sims)
}
