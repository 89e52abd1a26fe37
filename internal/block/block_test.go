package block

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
)

var (
	dblpPub = model.LDS{Source: "DBLP", Type: model.Publication}
	acmPub  = model.LDS{Source: "ACM", Type: model.Publication}
)

func blockFixture() (*model.ObjectSet, *model.ObjectSet) {
	a := model.NewObjectSet(dblpPub)
	a.AddNew("a1", map[string]string{"title": "generic schema matching with cupid"})
	a.AddNew("a2", map[string]string{"title": "a formal perspective on the view selection problem"})
	a.AddNew("a3", map[string]string{"title": "data integration"})
	b := model.NewObjectSet(acmPub)
	b.AddNew("b1", map[string]string{"title": "generic schema matching with cupid"})
	b.AddNew("b2", map[string]string{"title": "the view selection problem"})
	b.AddNew("b3", map[string]string{"title": "completely unrelated entry"})
	return a, b
}

// pairIDs turns a pair sequence into a set for membership checks.
func pairIDs(pairs []Pair) map[Pair]bool {
	set := make(map[Pair]bool, len(pairs))
	for _, p := range pairs {
		set[p] = true
	}
	return set
}

func TestCrossProduct(t *testing.T) {
	a, b := blockFixture()
	pairs := Pairs(CrossProduct{}, a, b)
	if len(pairs) != 9 {
		t.Fatalf("pairs = %d, want 9", len(pairs))
	}
	if pairs[0] != (Pair{A: "a1", B: "b1"}) {
		t.Errorf("first pair = %+v", pairs[0])
	}
	if pairs[5] != (Pair{A: "a2", B: "b3"}) {
		t.Errorf("sixth pair = %+v", pairs[5])
	}
}

// TestPairOrdinals pins the ordinal contract of the range probes: the
// ordinals a blocker's probe streams are the IndexOf ordinals of the ids
// PairsEach streams, pair for pair.
func TestPairOrdinals(t *testing.T) {
	a, b := blockFixture()
	for _, bl := range []Blocker{
		CrossProduct{},
		TokenBlocking{AttrA: "title", AttrB: "title", MinShared: 1},
		SortedNeighborhood{AttrA: "title", AttrB: "title", Window: 3},
		everyThird(a, b),
	} {
		want := Pairs(bl, a, b)
		if len(want) == 0 {
			t.Fatalf("%s: fixture yields no pairs", bl)
		}
		i := 0
		pairsRange(bl.Probe(a, b), 0, a.Len(), func(ordA, ordB int) bool {
			if i < len(want) && (ordA != a.IndexOf(want[i].A) || ordB != b.IndexOf(want[i].B)) {
				t.Errorf("%s: pair %d has ordinals (%d, %d), PairsEach streams %v", bl, i, ordA, ordB, want[i])
			}
			i++
			return true
		})
		if i != len(want) {
			t.Errorf("%s: probe streams %d pairs, PairsEach %d", bl, i, len(want))
		}
	}
}

func TestTokenBlockingFindsSharedTokens(t *testing.T) {
	a, b := blockFixture()
	pairs := Pairs(TokenBlocking{AttrA: "title", AttrB: "title", MinShared: 2}, a, b)
	set := pairIDs(pairs)
	if !set[Pair{"a1", "b1"}] {
		t.Error("identical titles must be candidates")
	}
	if !set[Pair{"a2", "b2"}] {
		t.Error("titles sharing 'view selection problem' must be candidates")
	}
	if set[Pair{"a3", "b3"}] {
		t.Error("unrelated titles must not be candidates")
	}
	if len(pairs) >= 9 {
		t.Errorf("token blocking should prune the cross product, got %d pairs", len(pairs))
	}
}

func TestTokenBlockingMinSharedClamp(t *testing.T) {
	a, b := blockFixture()
	got := Pairs(TokenBlocking{AttrA: "title", AttrB: "title", MinShared: 0}, a, b)
	want := Pairs(TokenBlocking{AttrA: "title", AttrB: "title", MinShared: 1}, a, b)
	if !reflect.DeepEqual(got, want) {
		t.Error("MinShared<1 should behave like 1")
	}
}

func TestTokenBlockingMissingAttr(t *testing.T) {
	a := model.NewObjectSet(dblpPub)
	a.AddNew("a1", nil)
	b := model.NewObjectSet(acmPub)
	b.AddNew("b1", map[string]string{"title": "x"})
	if got := Pairs(TokenBlocking{AttrA: "title", AttrB: "title", MinShared: 1}, a, b); len(got) != 0 {
		t.Errorf("instances without the attribute yield no candidates, got %v", got)
	}
}

func TestSortedNeighborhood(t *testing.T) {
	a, b := blockFixture()
	pairs := Pairs(SortedNeighborhood{AttrA: "title", AttrB: "title", Window: 3}, a, b)
	for _, p := range pairs {
		// Orientation: A side must come from set a.
		if p.A[0] != 'a' || p.B[0] != 'b' {
			t.Errorf("pair orientation wrong: %v", p)
		}
	}
	if !pairIDs(pairs)[Pair{"a1", "b1"}] {
		t.Error("adjacent identical titles must pair within the window")
	}
}

func TestSortedNeighborhoodWindowClamp(t *testing.T) {
	a, b := blockFixture()
	got := Pairs(SortedNeighborhood{AttrA: "title", AttrB: "title", Window: 0}, a, b)
	want := Pairs(SortedNeighborhood{AttrA: "title", AttrB: "title", Window: 2}, a, b)
	if !reflect.DeepEqual(got, want) {
		t.Error("Window<2 should behave like 2")
	}
}

func TestSortedNeighborhoodFullWindowIsCrossProduct(t *testing.T) {
	a, b := blockFixture()
	pairs := Pairs(SortedNeighborhood{AttrA: "title", AttrB: "title", Window: 6}, a, b)
	distinct := make(map[Pair]bool)
	for _, p := range pairs {
		distinct[p] = true
	}
	if len(distinct) != 9 {
		t.Errorf("window covering everything should produce all 9 pairs, got %d distinct of %d", len(distinct), len(pairs))
	}
}

// windowOrderPairs is sorted neighborhood as a stream in window order, the
// form it had before its probe: it sorts the union of a and b as Probe
// does and yields each cross-input pair of positions less than the window
// apart at its first position. FuzzSortedNeighborhoodMatchesWindowOrder
// holds the probe to it.
func windowOrderPairs(s SortedNeighborhood, a, b *model.ObjectSet) []Pair {
	w := max(s.Window, 2)
	type entry struct {
		key  string
		id   model.ID
		from int // 0 = a, 1 = b
	}
	var entries []entry
	for from, side := range []struct {
		set  *model.ObjectSet
		attr string
	}{{a, s.AttrA}, {b, s.AttrB}} {
		side.set.Each(func(in *model.Instance) bool {
			if key := sim.Normalize(in.Attr(side.attr)); key != "" {
				entries = append(entries, entry{key: key, id: in.ID, from: from})
			}
			return true
		})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].key != entries[j].key {
			return entries[i].key < entries[j].key
		}
		if entries[i].from != entries[j].from {
			return entries[i].from < entries[j].from
		}
		return entries[i].id < entries[j].id
	})
	var out []Pair
	for i := range entries {
		for j := i + 1; j < min(i+w, len(entries)); j++ {
			if entries[i].from == entries[j].from {
				continue
			}
			p := Pair{A: entries[i].id, B: entries[j].id}
			if entries[i].from == 1 {
				p = Pair{A: entries[j].id, B: entries[i].id}
			}
			out = append(out, p)
		}
	}
	return out
}

// FuzzSortedNeighborhoodMatchesWindowOrder holds sorted neighborhood's probe
// to the window-order stream: over random windows (below the clamp of 2
// too), empty, blank and missing keys, keys equal within and across the
// inputs, and a = b, the probe streams the reference's pairs sorted A-major
// — by A ordinal, then B ordinal — none lost and none repeated.
func FuzzSortedNeighborhoodMatchesWindowOrder(f *testing.F) {
	f.Add([]byte{5, 3, 4, 2, 2, 0, 3, 2, 2, 0, 7, 1, 1, 4, 2, 1, 6, 0, 2, 3, 3, 1, 0, 5, 1, 2, 2, 4, 1, 0})
	f.Add([]byte{1, 0, 6, 2, 1, 1, 2, 3, 3, 0, 2, 2, 5, 5, 1, 4})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := data[0]
			data = data[1:]
			return int(v)
		}
		words := []string{"w0", "W0", "w1", "w1.", "w2", "x", "!!"}
		value := func() string {
			ws := make([]string, next()%3)
			for i := range ws {
				ws[i] = words[next()%len(words)]
			}
			return strings.Join(ws, " ")
		}
		attrs := func() map[string]string {
			if next()%6 == 5 {
				return nil
			}
			return map[string]string{"title": value(), "name": value()}
		}
		sn := SortedNeighborhood{AttrA: "title", AttrB: "name", Window: next()%12 - 2}
		a, b := model.NewObjectSet(dblpPub), model.NewObjectSet(acmPub)
		for i := range next() % 9 {
			a.AddNew(model.ID(fmt.Sprintf("p%d", i)), attrs())
		}
		if next()%4 == 0 {
			b = a
		} else {
			for i := range next() % 9 {
				b.AddNew(model.ID(fmt.Sprintf("p%d", i)), attrs())
			}
		}
		want := windowOrderPairs(sn, a, b)
		slices.SortFunc(want, func(x, y Pair) int {
			return cmp.Or(cmp.Compare(a.IndexOf(x.A), a.IndexOf(y.A)), cmp.Compare(b.IndexOf(x.B), b.IndexOf(y.B)))
		})
		if got := Pairs(sn, a, b); !slices.Equal(got, want) {
			t.Fatalf("%s over %d and %d instances:\n got %v\nwant %v", sn, a.Len(), b.Len(), got, want)
		}
	})
}

func TestReductionRatio(t *testing.T) {
	a, b := blockFixture()
	if r := ReductionRatio(3, a, b); r < 0.66 || r > 0.67 {
		t.Errorf("reduction = %v, want ~2/3", r)
	}
	if r := ReductionRatio(99, a, b); r != 0 {
		t.Errorf("overfull candidate set should clamp to 0, got %v", r)
	}
	empty := model.NewObjectSet(dblpPub)
	if ReductionRatio(0, empty, empty) != 0 {
		t.Error("empty inputs should be 0")
	}
}

func TestPairCompleteness(t *testing.T) {
	if pc := PairCompleteness(1, 2); pc != 0.5 {
		t.Errorf("completeness = %v, want 0.5", pc)
	}
	if PairCompleteness(0, 0) != 1 {
		t.Error("empty truth should be 1")
	}
}

func TestBlockerStrings(t *testing.T) {
	if (CrossProduct{}).String() != "cross-product" {
		t.Error("cross product name")
	}
	if s := (TokenBlocking{AttrA: "t", AttrB: "t", MinShared: 2}).String(); s == "" {
		t.Error("token blocking name")
	}
	if s := (SortedNeighborhood{AttrA: "t", AttrB: "t", Window: 5}).String(); s == "" {
		t.Error("sorted neighborhood name")
	}
}

func TestTokenBlockingRecallVsCross(t *testing.T) {
	// Token blocking with MinShared=1 must retain every cross-product pair
	// that shares at least one token — a recall guarantee.
	a, b := blockFixture()
	tb := Pairs(TokenBlocking{AttrA: "title", AttrB: "title", MinShared: 1}, a, b)
	set := pairIDs(tb)
	if !set[Pair{"a2", "b2"}] || !set[Pair{"a1", "b1"}] {
		t.Error("token blocking dropped a sharing pair")
	}
}
