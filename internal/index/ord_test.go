package index

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/race"
	"repro/internal/sim"
)

// ids interns a test token slice in the global dictionary.
func ids(toks ...string) []uint32 {
	out := make([]uint32, len(toks))
	for i, tok := range toks {
		out[i] = sim.Terms.ID(tok)
	}
	return out
}

// sharing is the oracle of the differential tests: the documents sharing at
// least minShared distinct tokens with q, by direct count, in ascending
// ordinal order.
func sharing(docToks [][]uint32, q []uint32, minShared int) []int {
	var out []int
	for d, toks := range docToks {
		shared := 0
		for i, tok := range q {
			if !seenBefore(q, i) && slices.Contains(toks, tok) {
				shared++
			}
		}
		if shared >= max(minShared, 1) {
			out = append(out, d)
		}
	}
	return out
}

func collectOrds(x *Ords, toks []uint32, minShared int) []int {
	var out []int
	x.EachCandidate(toks, minShared, func(ord int) bool {
		out = append(out, ord)
		return true
	})
	return out
}

func TestOrdsCandidates(t *testing.T) {
	x := NewOrds()
	x.Add(0, ids("view", "selection", "problem"))
	x.Add(1, ids("view", "maintenance"))
	x.Add(2, ids("query", "optimization"))

	if got := collectOrds(x, ids("view", "selection"), 1); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("minShared=1: got %v", got)
	}
	if got := collectOrds(x, ids("view", "selection"), 2); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("minShared=2: got %v", got)
	}
	if got := collectOrds(x, ids("nothing"), 1); got != nil {
		t.Fatalf("unknown token: got %v", got)
	}
	// Duplicate query tokens count once.
	if got := collectOrds(x, ids("view", "view"), 2); got != nil {
		t.Fatalf("duplicate query tokens must not double-count: got %v", got)
	}
}

func TestOrdsRemove(t *testing.T) {
	x := NewOrds()
	toks1 := ids("a", "b")
	toks2 := ids("b", "c")
	x.Add(0, toks1)
	x.Add(1, toks2)
	if x.Docs() != 2 {
		t.Fatalf("docs = %d, want 2", x.Docs())
	}
	x.Remove(0, toks1)
	if x.Docs() != 1 {
		t.Fatalf("docs after remove = %d, want 1", x.Docs())
	}
	if got := collectOrds(x, ids("a", "b"), 1); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("after remove: got %v", got)
	}
	// Removing again is a no-op.
	x.Remove(0, toks1)
	if x.Docs() != 1 {
		t.Fatalf("docs after double remove = %d, want 1", x.Docs())
	}
	// Re-add at the same ordinal (replace flow: Remove then Add).
	x.Add(0, ids("c", "d"))
	if got := collectOrds(x, ids("c"), 1); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("after re-add: got %v", got)
	}
}

func TestOrdsOutOfOrderAdd(t *testing.T) {
	x := NewOrds()
	x.Add(5, ids("t"))
	x.Add(1, ids("t"))
	x.Add(3, ids("t"))
	if got := collectOrds(x, ids("t"), 1); !reflect.DeepEqual(got, []int{1, 3, 5}) {
		t.Fatalf("out-of-order adds must keep postings sorted: got %v", got)
	}
}

// TestOrdsMatchesIndexCandidates pins the candidates of an index over real
// interned terms against the direct count, on random documents over a small
// uniform vocabulary: posting lists of like length, none set aside.
func TestOrdsMatchesIndexCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vocab := ids("data", "view", "query", "match", "join", "web", "graph", "xml", "mining", "cache")
	randToks := func() []uint32 {
		out := make([]uint32, 1+rng.Intn(5))
		for i := range out {
			out[i] = vocab[rng.Intn(len(vocab))]
		}
		return out
	}
	x := NewOrds()
	docToks := make([][]uint32, 60)
	for d := range docToks {
		docToks[d] = randToks()
		x.Add(d, docToks[d])
	}
	for probe := 0; probe < 50; probe++ {
		q := randToks()
		for minShared := 1; minShared <= 3; minShared++ {
			if got, want := collectOrds(x, q, minShared), sharing(docToks, q, minShared); !slices.Equal(got, want) {
				t.Fatalf("probe %v minShared=%d:\n got %v\nwant %v", q, minShared, got, want)
			}
		}
	}
}

// TestEachCandidateSkewedMatchesCount pins the probe that sets long posting
// lists aside against a direct count of shared tokens, on the vocabulary
// that triggers it: token 0 is in nearly every document, token 1 in half,
// the rest are rare. Same candidates in the same ascending order for every
// minShared, with duplicate and unknown query tokens, after removals, and
// with an early stop.
func TestEachCandidateSkewedMatchesCount(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const docs = 400
	x := NewOrds()
	docToks := make([][]uint32, docs)
	for d := range docToks {
		var toks []uint32
		if rng.Intn(10) > 0 {
			toks = append(toks, 0)
		}
		if rng.Intn(2) == 0 {
			toks = append(toks, 1)
		}
		for n := rng.Intn(4); n > 0; n-- {
			toks = append(toks, uint32(2+rng.Intn(60)))
		}
		docToks[d] = toks
		x.Add(d, toks)
	}
	for d := 0; d < docs; d += 7 {
		x.Remove(d, docToks[d])
		docToks[d] = nil
	}
	for probe := 0; probe < 300; probe++ {
		q := []uint32{uint32(2 + rng.Intn(60)), uint32(2 + rng.Intn(60)), 1000}
		for _, common := range []uint32{0, 1} {
			if rng.Intn(3) > 0 {
				q = append(q, common)
			}
		}
		q = append(q, q[rng.Intn(len(q))])
		rng.Shuffle(len(q), func(i, j int) { q[i], q[j] = q[j], q[i] })
		for minShared := 0; minShared <= 5; minShared++ {
			want := sharing(docToks, q, minShared)
			if got := collectOrds(x, q, minShared); !slices.Equal(got, want) {
				t.Fatalf("probe %v minShared=%d:\n got %v\nwant %v", q, minShared, got, want)
			}
			if len(want) > 1 {
				var first []int
				x.EachCandidate(q, minShared, func(ord int) bool {
					first = append(first, ord)
					return len(first) < 2
				})
				if !slices.Equal(first, want[:2]) {
					t.Fatalf("probe %v minShared=%d stopped early with %v, want %v", q, minShared, first, want[:2])
				}
			}
		}
	}
}

func TestOrdsRealTokens(t *testing.T) {
	x := NewOrds()
	x.Add(0, sim.Terms.TokenIDs("A Formal Perspective on the View Selection Problem"))
	x.Add(1, sim.Terms.TokenIDs("The View Selection Problem Revisited"))
	got := collectOrds(x, sim.Terms.TokenIDs("view selection"), 2)
	if !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("got %v", got)
	}
}

// TestEachCandidateZeroAllocs pins EachCandidate's pooled-buffer contract:
// once the hit buffer has grown to the probe's high-water mark, a candidate
// probe performs zero heap allocations — including the yield closure, which
// must stay stack-allocated.
func TestEachCandidateZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	x := NewOrds()
	for i := 0; i < 500; i++ {
		x.Add(i, []uint32{uint32(i % 7), uint32(i % 11), uint32(i % 13), 99})
	}
	toks := []uint32{3, 5, 99, 99}
	n := 0
	probe := func() {
		n = 0
		x.EachCandidate(toks, 2, func(ord int) bool {
			n++
			return true
		})
	}
	if allocs := testing.AllocsPerRun(100, probe); allocs != 0 {
		t.Errorf("EachCandidate allocates %.0f times per run, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("probe matched nothing; fixture broken")
	}
}
