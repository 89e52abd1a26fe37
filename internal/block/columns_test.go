package block

import (
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
)

func normColumnSet(n int) *model.ObjectSet {
	set := model.NewObjectSet(model.LDS{Source: "NC", Type: model.Publication})
	for i := 0; i < n; i++ {
		set.AddNew(model.ID(fmt.Sprintf("n%d", i)), map[string]string{
			"title": fmt.Sprintf("Normalized KEY columns %d", i),
		})
	}
	return set
}

func TestNormColumn(t *testing.T) {
	set := normColumnSet(6)
	c1 := normColumn(set, "title")
	if len(c1) != set.Len() {
		t.Fatalf("column has %d entries for a %d-instance set", len(c1), set.Len())
	}
	for i, key := range c1 {
		if want := sim.Normalize(set.At(i).Attr("title")); key != want {
			t.Fatalf("entry %d = %q, want %q", i, key, want)
		}
	}
	c2 := normColumn(set, "title")
	if &c1[0] != &c2[0] {
		t.Fatal("second fetch must serve the kept slice")
	}

	// Token and key columns of one attribute coexist in the set's store.
	toks := tokenColumn(set, "title")
	c3 := normColumn(set, "title")
	toks2 := tokenColumn(set, "title")
	if &c1[0] != &c3[0] {
		t.Fatal("building the token column must not evict the key column")
	}
	if len(toks) == 0 || &toks[0] != &toks2[0] {
		t.Fatal("building the key column must not evict the token column")
	}

	// SetAttr invalidates.
	inv := blockInvalidations.Load()
	set.SetAttr(0, "title", "A Different Value")
	c4 := normColumn(set, "title")
	if c4[0] != sim.Normalize("A Different Value") {
		t.Fatalf("stale key served after SetAttr: %q", c4[0])
	}
	if got := blockInvalidations.Load() - inv; got != 2 {
		t.Errorf("SetAttr dropped a token and a key column, counted %d invalidations", got)
	}
}

// TestTokenBlockingColumnsFollowSet proves token blocking serves the same
// token column and index while a set is unchanged and rebuilds them after an
// Add.
func TestTokenBlockingColumnsFollowSet(t *testing.T) {
	a, b := blockFixture()
	tb := TokenBlocking{AttrA: "title", AttrB: "title", MinShared: 1}
	miss, hit := blockMisses[colTokens].Load(), blockHits[colTokens].Load()
	ixMiss := blockMisses[colIndex].Load()
	before := len(Pairs(tb, a, b))
	if got := blockMisses[colTokens].Load() - miss; got != 2 {
		t.Fatalf("cold pass built %d token columns, want one per side", got)
	}
	col1 := tokenColumn(b, "title")
	if len(col1) != b.Len() {
		t.Fatalf("token column after blocking has %d entries, want %d", len(col1), b.Len())
	}
	Pairs(tb, a, b)
	if col2 := tokenColumn(b, "title"); &col1[0] != &col2[0] {
		t.Fatal("unchanged set must be served the kept column")
	}
	if blockMisses[colTokens].Load()-miss != 2 || blockMisses[colIndex].Load()-ixMiss != 1 {
		t.Fatal("warm passes must not rebuild columns or the index")
	}
	if got := blockHits[colTokens].Load() - hit; got != 4 {
		t.Errorf("token hits = %d, want 4 (warm pass both sides, two fetches)", got)
	}

	b.AddNew("b4", map[string]string{"title": "the view selection problem again"})
	after := Pairs(tb, a, b)
	if col3 := tokenColumn(b, "title"); len(col3) != b.Len() {
		t.Fatalf("rebuilt column has %d entries, want %d", len(col3), b.Len())
	}
	if blockMisses[colIndex].Load()-ixMiss != 2 {
		t.Error("Add must rebuild the index")
	}
	if len(after) <= before {
		t.Fatalf("new instance must produce new candidates: %d -> %d", before, len(after))
	}
	if !pairIDs(after)[Pair{"a2", "b4"}] {
		t.Error("candidates must include the added instance")
	}
}

// TestSortedNeighborhoodKeptKeysMatch pins that a pass over kept key columns
// emits exactly the sequence the pass that built them produced.
func TestSortedNeighborhoodKeptKeysMatch(t *testing.T) {
	a := model.NewObjectSet(model.LDS{Source: "A", Type: model.Publication})
	b := model.NewObjectSet(model.LDS{Source: "B", Type: model.Publication})
	for i := 0; i < 12; i++ {
		attrs := map[string]string{"title": fmt.Sprintf("shared stem %c tail", 'a'+i%7)}
		if i%5 == 0 {
			attrs = map[string]string{} // attribute-less instances are skipped
		}
		a.AddNew(model.ID(fmt.Sprintf("a%d", i)), attrs)
		b.AddNew(model.ID(fmt.Sprintf("b%d", i)), attrs)
	}
	sn := SortedNeighborhood{AttrA: "title", AttrB: "title", Window: 4}
	first := Pairs(sn, a, b)  // cold: builds the key columns
	second := Pairs(sn, a, b) // warm: served from the sets' stores
	if len(first) == 0 {
		t.Fatal("expected candidates")
	}
	if len(first) != len(second) {
		t.Fatalf("warm pass emitted %d pairs, cold %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("pair %d differs: %+v vs %+v", i, first[i], second[i])
		}
	}
}
