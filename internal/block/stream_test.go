package block

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/sim"
)

// streamFixture builds larger, noisier inputs than blockFixture so that all
// three blockers produce non-trivial candidate sequences, including
// duplicate-prone windows for sorted neighborhood.
func streamFixture(n int) (*model.ObjectSet, *model.ObjectSet) {
	topics := []string{
		"generic schema matching with cupid",
		"a formal perspective on the view selection problem",
		"mapping based object matching",
		"entity resolution over web data sources",
		"adaptive blocking for scalable record linkage",
	}
	a := model.NewObjectSet(dblpPub)
	b := model.NewObjectSet(acmPub)
	for i := 0; i < n; i++ {
		topic := topics[i%len(topics)]
		a.AddNew(model.ID(fmt.Sprintf("a%02d", i)), map[string]string{
			"title": fmt.Sprintf("%s part %d", topic, i/len(topics)),
		})
		b.AddNew(model.ID(fmt.Sprintf("b%02d", i)), map[string]string{
			"title": fmt.Sprintf("%s part %d revised", topic, (i+2)/len(topics)),
		})
	}
	return a, b
}

// collectEach drains PairsEach into a slice.
func collectEach(bl Blocker, a, b *model.ObjectSet) []Pair {
	var out []Pair
	PairsEach(bl, a, b, func(p Pair) bool {
		out = append(out, p)
		return true
	})
	return out
}

// streamBlockers returns instances of each built-in strategy over a and b.
func streamBlockers(a, b *model.ObjectSet) []Blocker {
	return []Blocker{
		CrossProduct{},
		TokenBlocking{AttrA: "title", AttrB: "title", MinShared: 1},
		TokenBlocking{AttrA: "title", AttrB: "title", MinShared: 2},
		SortedNeighborhood{AttrA: "title", AttrB: "title", Window: 4},
		SortedNeighborhood{AttrA: "title", AttrB: "title", Window: 9},
		everyThird(a, b),
	}
}

// everyThird is token blocking within every third pair of a × b.
func everyThird(a, b *model.ObjectSet) Within {
	pairs := mapping.NewSame(a.LDS(), b.LDS())
	for i, p := range Pairs(CrossProduct{}, a, b) {
		if i%3 == 0 {
			pairs.Add(p.A, p.B, 1)
		}
	}
	return Within{Pairs: pairs, Tokens: TokenBlocking{AttrA: "title", AttrB: "title", MinShared: 1}}
}

// TestPairsEachMatchesPairsSequence is the streaming/slice equivalence
// property: for every built-in blocker, PairsEach over warm column stores
// must visit exactly the sequence the cold Pairs pass returned, in order,
// over a range of input sizes.
func TestPairsEachMatchesPairsSequence(t *testing.T) {
	for _, n := range []int{0, 1, 7, 40} {
		a, b := streamFixture(n)
		for _, bl := range streamBlockers(a, b) {
			want := Pairs(bl, a, b)
			got := collectEach(bl, a, b)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d %s: PairsEach sequence diverges from Pairs\n got %v\nwant %v",
					n, bl, got, want)
			}
		}
	}
}

// TestPairsEachStopsEarly asserts yield returning false halts the stream
// immediately for every blocker.
func TestPairsEachStopsEarly(t *testing.T) {
	a, b := streamFixture(25)
	for _, bl := range streamBlockers(a, b) {
		total := len(Pairs(bl, a, b))
		if total < 3 {
			t.Fatalf("%s: fixture too small (%d pairs)", bl, total)
		}
		stopAfter := total / 2
		var got []Pair
		PairsEach(bl, a, b, func(p Pair) bool {
			got = append(got, p)
			return len(got) < stopAfter
		})
		if len(got) != stopAfter {
			t.Errorf("%s: visited %d pairs after stopping at %d", bl, len(got), stopAfter)
		}
		if want := Pairs(bl, a, b)[:stopAfter]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: early-stopped prefix diverges", bl)
		}
	}
}

// TestTokenColumn asserts the token column token blocking probes with is
// ordinal-aligned and holds exactly the sim.Tokens output of the non-empty
// attribute values.
func TestTokenColumn(t *testing.T) {
	a, _ := streamFixture(20)
	a.AddNew("a-missing", nil)
	a.AddNew("a-empty", map[string]string{"title": ""})
	col := tokenColumn(a, "title")
	if len(col) != a.Len() {
		t.Fatalf("column must be ordinal-aligned: %d entries for %d instances", len(col), a.Len())
	}
	if col[a.IndexOf("a-missing")] != nil {
		t.Error("attribute-less instance must have a nil token column entry")
	}
	if col[a.IndexOf("a-empty")] != nil {
		t.Error("empty attribute must have a nil token column entry")
	}
	for ord, toks := range col {
		if toks == nil {
			continue
		}
		got := make([]string, len(toks))
		for i, id := range toks {
			got[i] = sim.Terms.Str(id)
		}
		if want := sim.Tokens(a.At(ord).Attr("title")); !reflect.DeepEqual(got, want) {
			t.Fatalf("column tokens for ordinal %d = %v, want %v", ord, got, want)
		}
	}
}

// TestSortedNeighborhoodSkipsEmptyKeys is the regression test for the
// empty-key bug: instances whose blocking attribute is missing used to sort
// under the key "" at the front and pair with each other inside the window.
func TestSortedNeighborhoodSkipsEmptyKeys(t *testing.T) {
	a := model.NewObjectSet(dblpPub)
	a.AddNew("a-miss1", nil)
	a.AddNew("a-miss2", map[string]string{"title": "   "})
	a.AddNew("a1", map[string]string{"title": "view selection"})
	b := model.NewObjectSet(acmPub)
	b.AddNew("b-miss1", nil)
	b.AddNew("b-miss2", map[string]string{"title": "!!!"})
	b.AddNew("b1", map[string]string{"title": "view selection"})
	pairs := Pairs(SortedNeighborhood{AttrA: "title", AttrB: "title", Window: 4}, a, b)
	for _, p := range pairs {
		if p.A != "a1" || p.B != "b1" {
			t.Errorf("attribute-less instances must not produce candidates, got %v", p)
		}
	}
	if len(pairs) != 1 || pairs[0] != (Pair{A: "a1", B: "b1"}) {
		t.Errorf("pairs = %+v, want exactly [{a1 b1}]", pairs)
	}
}

// pairsRange streams the candidates of A ordinals [lo, hi) in stream order,
// stopping early when yield returns false.
func pairsRange(p RangeProbe, lo, hi int, yield func(ordA, ordB int) bool) {
	more := true
	for ordA := lo; ordA < hi && more; ordA++ {
		p.Row(ordA, func(ordB int) bool {
			more = yield(ordA, ordB)
			return more
		})
	}
}

// TestRangeProbePartitionsStream is the property the batch kernel is built
// on: for every blocker, the probe's streams over any contiguous cut of
// A's ordinals, concatenated in order, are the whole stream; a range stops
// as soon as yield says so; and Cost bounds what a row's probe streams.
func TestRangeProbePartitionsStream(t *testing.T) {
	type ords struct{ a, b int }
	collect := func(p RangeProbe, lo, hi int) []ords {
		var out []ords
		pairsRange(p, lo, hi, func(ordA, ordB int) bool {
			out = append(out, ords{ordA, ordB})
			return true
		})
		return out
	}
	for _, n := range []int{0, 1, 7, 40} {
		a, b := streamFixture(n)
		a.AddNew("a-missing", nil)
		for _, bl := range streamBlockers(a, b) {
			probe := bl.Probe(a, b)
			whole := collect(probe, 0, a.Len())
			for _, cuts := range [][]int{{0}, {a.Len()}, {1}, {a.Len() / 2}, {a.Len() / 3, a.Len() / 3, 2 * a.Len() / 3}} {
				var got []ords
				lo := 0
				for _, hi := range append(cuts, a.Len()) {
					got = append(got, collect(probe, lo, hi)...)
					lo = hi
				}
				if !reflect.DeepEqual(got, whole) {
					t.Fatalf("n=%d %s: ranges cut at %v stream %d pairs, the whole stream has %d", n, bl, cuts, len(got), len(whole))
				}
			}
			for ordA := 0; ordA < a.Len(); ordA++ {
				if row := collect(probe, ordA, ordA+1); probe.Cost(ordA) < len(row) {
					t.Errorf("n=%d %s: row %d costs %d but streams %d pairs", n, bl, ordA, probe.Cost(ordA), len(row))
				}
			}
			if len(whole) > 2 {
				seen := 0
				pairsRange(probe, 0, a.Len(), func(int, int) bool {
					seen++
					return seen < 2
				})
				if seen != 2 {
					t.Errorf("n=%d %s: range went on for %d pairs after yield stopped it at 2", n, bl, seen)
				}
			}
		}
	}
}
