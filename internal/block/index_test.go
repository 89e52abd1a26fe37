package block

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
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
			if !slices.Contains(q[:i], tok) && slices.Contains(toks, tok) {
				shared++
			}
		}
		if shared >= max(minShared, 1) {
			out = append(out, d)
		}
	}
	return out
}

func collectOrds(x *Index, toks []uint32, minShared int) []int {
	var out []int
	x.EachCandidate(toks, minShared, func(ord int) bool {
		out = append(out, ord)
		return true
	})
	return out
}

func TestIndexCandidates(t *testing.T) {
	x := NewIndex(Tokens{ids("view", "selection", "problem"), ids("view", "maintenance"), ids("query", "optimization")})

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

func TestIndexSetRemovesAndReplaces(t *testing.T) {
	x := NewIndex(nil)
	x.Set(0, ids("a", "b"))
	x.Set(1, ids("b", "c"))
	if x.Docs() != 2 {
		t.Fatalf("docs = %d, want 2", x.Docs())
	}
	x.Set(0, nil)
	if x.Docs() != 1 {
		t.Fatalf("docs after remove = %d, want 1", x.Docs())
	}
	if got := collectOrds(x, ids("a", "b"), 1); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("after remove: got %v", got)
	}
	// Removing again is a no-op.
	x.Set(0, nil)
	if x.Docs() != 1 || x.PostingLen(ids("b")[0]) != 1 {
		t.Fatalf("docs after double remove = %d, want 1", x.Docs())
	}
	// Re-add at the same ordinal, then replace it: its old tokens let go.
	x.Set(0, ids("c", "d"))
	if got := collectOrds(x, ids("c"), 1); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("after re-add: got %v", got)
	}
	x.Set(0, ids("a", "c"))
	if got := collectOrds(x, ids("d"), 1); got != nil || x.Docs() != 2 {
		t.Fatalf("after replace: %d docs, the old token yields %v", x.Docs(), got)
	}
}

func TestIndexOutOfOrderSet(t *testing.T) {
	x := NewIndex(nil)
	x.Set(5, ids("t"))
	x.Set(1, ids("t"))
	x.Set(3, ids("t"))
	if got := collectOrds(x, ids("t"), 1); !reflect.DeepEqual(got, []int{1, 3, 5}) {
		t.Fatalf("out-of-order sets must keep postings sorted: got %v", got)
	}
	if len(x.rows) != 6 || x.Docs() != 3 {
		t.Fatalf("%d rows and %d docs, want 6 and 3", len(x.rows), x.Docs())
	}
}

// TestIndexRandomCandidates pins the candidates of an index over real
// interned terms against the direct count, on random documents over a small
// uniform vocabulary: posting lists of like length, none set aside.
func TestIndexRandomCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vocab := ids("data", "view", "query", "match", "join", "web", "graph", "xml", "mining", "cache")
	randToks := func() []uint32 {
		out := make([]uint32, 1+rng.Intn(5))
		for i := range out {
			out[i] = vocab[rng.Intn(len(vocab))]
		}
		return out
	}
	x := NewIndex(nil)
	docToks := make([][]uint32, 60)
	for d := range docToks {
		docToks[d] = randToks()
		x.Set(d, docToks[d])
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
	x := NewIndex(nil)
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
		x.Set(d, toks)
	}
	for d := 0; d < docs; d += 7 {
		x.Set(d, nil)
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

func TestIndexRealTokens(t *testing.T) {
	x := NewIndex(Tokens{
		sim.Terms.TokenIDs("A Formal Perspective on the View Selection Problem"),
		sim.Terms.TokenIDs("The View Selection Problem Revisited"),
	})
	got := collectOrds(x, sim.Terms.TokenIDs("view selection"), 2)
	if !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("got %v", got)
	}
}

// TestEachCandidateZeroAllocs pins EachCandidate's pooled-scratch contract:
// once the scratch fits the index and the query, a candidate probe performs
// zero heap allocations — including the yield closure, which must stay
// stack-allocated — and an index that has grown since costs one growth of
// the scratch, then zero again.
func TestEachCandidateZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	x := NewIndex(nil)
	grow := func(to int) {
		for i := len(x.rows); i < to; i++ {
			x.Set(i, []uint32{uint32(i % 7), uint32(i % 11), uint32(i % 13), 99})
		}
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
	for _, size := range []int{500, 5000} {
		grow(size)
		probe() // the one growth: AllocsPerRun's own warm-up call would hide it
		if allocs := testing.AllocsPerRun(100, probe); allocs != 0 {
			t.Errorf("%d rows: EachCandidate allocates %.0f times per run, want 0", size, allocs)
		}
		if n == 0 {
			t.Fatal("probe matched nothing; fixture broken")
		}
	}
	// Row-by-row growth, the live resolver's: the scratch's headroom must
	// absorb it, not regrow per probe.
	grows := testing.AllocsPerRun(200, func() {
		grow(len(x.rows) + 1)
		probe()
	})
	if grows > 1 { // Set's own appends average well under one allocation
		t.Errorf("a probe after every added row allocates %.2f times per run: the scratch regrows per probe", grows)
	}
}

// scratchIsZero checks the invariant every probe relies on, on the scratch
// the pool hands out next: all counters and touched bits zero.
func scratchIsZero(t *testing.T, when string) {
	t.Helper()
	pb := probePool.Get().(*probe)
	defer probePool.Put(pb)
	for o, c := range pb.cnt {
		if c != 0 {
			t.Fatalf("%s: pooled scratch holds count %d at ordinal %d", when, c, o)
		}
	}
	for w, word := range pb.seen {
		if word != 0 {
			t.Fatalf("%s: pooled scratch holds touched bits %#x in word %d", when, word, w)
		}
	}
}

// FuzzEachCandidateMatchesCount expands a byte string into Sets (in and out
// of ordinal order, replacing, removing), a query with repeated and unknown
// tokens, minShared 1-4 and an optional early stop, and checks the yielded
// sequence against the direct count — also for the probe right after an
// early stop and after a recovered panic in yield, when the scratch must be
// as zero as after a complete walk.
func FuzzEachCandidateMatchesCount(f *testing.F) {
	f.Add([]byte{6,
		1, 5, 2, 1, 2, 3, // add 5: 1 2 3
		1, 3, 1, 1, 2, // add 3: 1 2
		1, 9, 2, 2, 3, 4, // add 9: 2 3 4
		1, 1, 0, 1, // add 1: 1, out of ordinal order
		0, 3, // remove 3
		1, 150, 3, 1, 2, 3, 4, // add 150: 1 2 3 4
		5, 1, 2, 2, 13, 3, // query 1 2 2 13 3: a repeat and an unknown
		1, 1}) // minShared 2, stop after 1 of 3
	skewed := []byte{40} // token 0 in every document, two rarer ones each: a list set aside
	for d := byte(0); d < 40; d++ {
		skewed = append(skewed, 1, 7*d, 2, 0, 1+d%5, 6+d%3)
	}
	f.Add(append(skewed, 4, 0, 2, 7, 0, 2, 3)) // query 0 2 7 0, minShared 3, stop after 3
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		x := NewIndex(nil)
		docToks := make([][]uint32, 200)
		for ops := next() % 64; ops > 0; ops-- {
			op, ord := next(), next()%len(docToks)
			docToks[ord] = nil
			if op%4 > 0 {
				docToks[ord] = make([]uint32, 1+next()%6)
				for i := range docToks[ord] {
					docToks[ord][i] = uint32(next() % 12)
				}
			}
			x.Set(ord, docToks[ord])
		}
		q := make([]uint32, next()%10)
		for i := range q {
			q[i] = uint32(next() % 16) // 12-15 are in no document
		}
		minShared, stopAfter := 1+next()%4, next()%8
		want := sharing(docToks, q, minShared)
		if got := collectOrds(x, q, minShared); !slices.Equal(got, want) {
			t.Fatalf("query %v minShared=%d:\n got %v\nwant %v", q, minShared, got, want)
		}
		if stopAfter > 0 && stopAfter < len(want) {
			var first []int
			x.EachCandidate(q, minShared, func(ord int) bool {
				first = append(first, ord)
				return len(first) < stopAfter
			})
			if !slices.Equal(first, want[:stopAfter]) {
				t.Fatalf("query %v minShared=%d stopped after %d with %v, want %v", q, minShared, stopAfter, first, want[:stopAfter])
			}
			scratchIsZero(t, "after an early stop")
		}
		func() {
			defer func() { _ = recover() }()
			x.EachCandidate(q, minShared, func(int) bool { panic("yield") })
		}()
		scratchIsZero(t, "after a panic in yield")
		if got := collectOrds(x, q, minShared); !slices.Equal(got, want) {
			t.Fatalf("query %v minShared=%d after a stop and a panic:\n got %v\nwant %v", q, minShared, got, want)
		}
	})
}

// TestEachCandidateDedupsLongQueries is the regression test of the quadratic
// token dedup: 200 000 query tokens, each of 40 000 terms five times, probe
// like the 40 000 distinct ones (and in well under the second the quadratic
// scan took).
func TestEachCandidateDedupsLongQueries(t *testing.T) {
	const terms = 40000
	x := NewIndex(nil)
	for d := 0; d < 2000; d++ {
		x.Set(d, []uint32{uint32(d), uint32(d + 1), uint32(terms + d%3)})
	}
	distinct := make([]uint32, terms)
	for i := range distinct {
		distinct[i] = uint32(i)
	}
	var repeated []uint32
	for r := 0; r < 5; r++ {
		repeated = append(repeated, distinct...)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(repeated), func(i, j int) { repeated[i], repeated[j] = repeated[j], repeated[i] })
	for minShared := 1; minShared <= 3; minShared++ {
		want := collectOrds(x, distinct, minShared)
		if got := collectOrds(x, repeated, minShared); !slices.Equal(got, want) {
			t.Fatalf("minShared=%d: the repeated query yields %d ordinals, the distinct one %d", minShared, len(got), len(want))
		}
		if wantLen := []int{2000, 2000, 0}[minShared-1]; len(want) != wantLen {
			t.Fatalf("minShared=%d: %d candidates, want %d; fixture broken", minShared, len(want), wantLen)
		}
	}
	// A repeated token is indexed once, and let go once.
	y := NewIndex(nil)
	y.Set(0, repeated)
	if y.Docs() != 1 || y.PostingLen(7) != 1 {
		t.Fatalf("after Set of repeated tokens: docs %d, postings of one token %d, want 1 and 1", y.Docs(), y.PostingLen(7))
	}
	y.Set(0, nil)
	if y.Docs() != 0 || y.Terms() != 0 {
		t.Fatalf("after removing repeated tokens: docs %d, terms %d, want 0 and 0", y.Docs(), y.Terms())
	}
}

// TestEachCandidateCountSaturates probes with more posting lists than a
// counter can count: a document in all of them must not wrap to a small
// count, at the counter's maximum and just past it.
func TestEachCandidateCountSaturates(t *testing.T) {
	for _, lists := range []int{math.MaxUint16, math.MaxUint16 + 1, math.MaxUint16 + 3} {
		toks := make([]uint32, lists)
		for i := range toks {
			toks[i] = uint32(i)
		}
		x := NewIndex(Tokens{toks, toks[:2], toks[5:6]})
		for minShared, want := range map[int][]int{1: {0, 1, 2}, 2: {0, 1}, 3: {0}, math.MaxUint16: {0}, math.MaxUint16 + 9: nil} {
			if got := collectOrds(x, toks, minShared); !slices.Equal(got, want) {
				t.Errorf("%d lists, minShared=%d: got %v, want %v", lists, minShared, got, want)
			}
		}
		scratchIsZero(t, "after saturated counts")
	}
}

// TestEachCandidateSmallIndexAfterLarge probes a small index with a scratch
// the pool last sized for a large one: the walk must stay within the small
// index's rows and leave the rest of the scratch alone.
func TestEachCandidateSmallIndexAfterLarge(t *testing.T) {
	rows := make(Tokens, 10000)
	for d := range rows {
		rows[d] = []uint32{1, uint32(2 + d%5)}
	}
	large, small := NewIndex(rows), NewIndex(Tokens{{1, 2}, nil, {1, 3}})
	for round := 0; round < 3; round++ {
		if got := collectOrds(large, []uint32{1, 2}, 2); len(got) != 2000 {
			t.Fatalf("large index: %d candidates, want 2000", len(got))
		}
		if got := collectOrds(small, []uint32{1, 2, 3}, 2); !slices.Equal(got, []int{0, 2}) {
			t.Fatalf("small index after a large one: got %v, want [0 2]", got)
		}
		scratchIsZero(t, "after a small index followed a large one")
	}
}

// TestEachCandidateConcurrentProbes probes one index from many goroutines at
// once, as resolvers do under a shared read lock: each goroutine's pooled
// scratch is its own, so every probe is exact (and -race stays silent).
func TestEachCandidateConcurrentProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	docToks := make([][]uint32, 3000)
	for d := range docToks {
		docToks[d] = []uint32{0, uint32(1 + rng.Intn(40)), uint32(1 + rng.Intn(40)), uint32(1 + rng.Intn(40))}
	}
	x := NewIndex(docToks)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		q := []uint32{0, uint32(1 + rng.Intn(40)), uint32(1 + rng.Intn(40)), uint32(1 + rng.Intn(40)), 99}
		minShared := 1 + g%3
		want := sharing(docToks, q, minShared)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := collectOrds(x, q, minShared); !slices.Equal(got, want) {
					t.Errorf("concurrent probe %v minShared=%d: %d candidates, want %d", q, minShared, len(got), len(want))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// equalIndex reports whether two indexes hold the same rows, postings and
// Docs; a nil row, or a nil column of rows, equals an empty one.
func equalIndex(a, b *Index) bool {
	return a.docs == b.docs && reflect.DeepEqual(a.postings, b.postings) &&
		slices.EqualFunc(a.rows, b.rows, slices.Equal[[]uint32])
}

// setEach is NewIndex's oracle: the empty index and one Set per row, in
// ordinal order.
func setEach(rows Tokens) *Index {
	x := NewIndex(nil)
	for ord, toks := range rows {
		x.Set(ord, toks)
	}
	return x
}

// checkNewIndex builds rows with NewIndex at GOMAXPROCS w and compares it
// with setEach's index: rows, postings and Docs, and the candidates of the
// given queries.
func checkNewIndex(t *testing.T, rows Tokens, w int, queries [][]uint32) *Index {
	t.Helper()
	want := setEach(rows)
	var got *Index
	atGOMAXPROCS(w, func() { got = NewIndex(rows) })
	if !equalIndex(got, want) {
		t.Fatalf("at %d workers: NewIndex gives %d docs and %d terms, Set %d and %d, or other postings",
			w, got.Docs(), got.Terms(), want.Docs(), want.Terms())
	}
	for _, list := range got.postings {
		if cap(list) != len(list) {
			t.Fatalf("at %d workers: a posting list of %d has capacity %d", w, len(list), cap(list))
		}
	}
	for _, q := range queries {
		for minShared := 1; minShared <= 2; minShared++ {
			if g, w := collectOrds(got, q, minShared), collectOrds(want, q, minShared); !slices.Equal(g, w) {
				t.Fatalf("query %v minShared=%d: NewIndex yields %v, Set %v", q, minShared, g, w)
			}
		}
	}
	return got
}

// atGOMAXPROCS runs f at GOMAXPROCS n, the worker count of the bulk build.
func atGOMAXPROCS(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestNewIndexPartitionInvariant: NewIndex is the Set loop's index at
// GOMAXPROCS 8, 3, 2 and 1 over 8·2048 rows, among them empty rows, rows
// repeating a token and tokens whose IDs differ in their high bits.
func TestNewIndexPartitionInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := make(Tokens, 8*2048)
	for ord := range rows {
		if ord%7 == 3 {
			continue
		}
		toks := make([]uint32, 1+rng.Intn(8))
		for i := range toks {
			toks[i] = uint32(rng.Intn(300)) << (rng.Intn(3) * 10)
		}
		if ord%5 == 0 {
			toks = append(toks, toks[0], toks[len(toks)-1])
		}
		rows[ord] = toks
	}
	for _, w := range []int{8, 3, 2, 1} {
		checkNewIndex(t, rows, w, rows[:20])
	}
	if x := NewIndex(nil); x.Docs() != 0 || x.Terms() != 0 || x.postings == nil {
		t.Fatalf("the empty index has %d docs and %d terms, or no postings map", x.Docs(), x.Terms())
	}
}

// FuzzNewIndexMatchesSet: NewIndex against the empty index and Set in
// ordinal order, at GOMAXPROCS 1 and 3, over a column of up to 6 143 rows
// cycling through rows read from data (empty rows and repeated tokens among
// them, token IDs spread over 22 bits). A tail of Sets read from the rest of
// data — replacing, removing, past the last row — then runs on both
// indexes, which must stay equal: a list that grows is copied out of the
// slab, and one that shrinks stays in its own window. Both must also agree
// with the direct count over the fuzzer's own rows: candidates, Docs and
// each token's posting count.
func FuzzNewIndexMatchesSet(f *testing.F) {
	f.Add([]byte{5, // six rows
		3, 1, 2, 3, // row: 1 2 3
		0,             // an empty row
		4, 2, 2, 5, 2, // row: 2 2 5 2
		1, 9,
		2, 4, 1,
		3, 7, 7, 7,
		5, // tail: five ops
		0, 1, 1, 2, 3, 4, 2, 0, 9, 7, 5, 1, 3, 3, 0, 8}, uint16(4500))
	f.Add([]byte{1, 2, 0, 0}, uint16(70))
	f.Add([]byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, rows uint16) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		const vocab = 23
		tokens := func(n int) []uint32 {
			if n == 0 {
				return nil
			}
			toks := make([]uint32, n)
			for i := range toks {
				toks[i] = uint32(next()%vocab) * 0x2f1d3
			}
			return toks
		}
		base := make([][]uint32, 1+next()%16)
		for i := range base {
			base[i] = tokens(next() % 7)
		}
		col := make(Tokens, int(rows)%6144)
		for ord := range col {
			col[ord] = base[ord%len(base)]
		}
		docToks := slices.Clone(col)
		var got *Index
		for _, w := range []int{1, 3} {
			got = checkNewIndex(t, col, w, base)
		}
		want := setEach(col)
		for ops := next() % 48; ops > 0; ops-- {
			op, ord := next(), (next()*97+next())%(len(col)+8)
			if ord >= len(docToks) {
				docToks = append(docToks, make([][]uint32, ord+1-len(docToks))...)
			}
			docToks[ord] = nil
			if op%3 > 0 {
				docToks[ord] = tokens(1 + next()%6)
			}
			got.Set(ord, docToks[ord])
			want.Set(ord, docToks[ord])
		}
		if !equalIndex(got, want) {
			t.Fatalf("after the same Sets, the bulk-built index has %d docs and %d terms, the set one %d and %d, or their postings differ",
				got.Docs(), got.Terms(), want.Docs(), want.Terms())
		}
		docs := 0
		for _, toks := range docToks {
			if len(toks) > 0 {
				docs++
			}
		}
		for _, x := range []*Index{got, want} {
			if x.Docs() != docs {
				t.Fatalf("after the tail: %d docs, the rows hold %d", x.Docs(), docs)
			}
			for tok := range uint32(vocab) {
				tok *= 0x2f1d3
				if g, w := x.PostingLen(tok), len(sharing(docToks, []uint32{tok}, 1)); g != w {
					t.Fatalf("after the tail: token %d has %d postings, %d rows hold it", tok, g, w)
				}
			}
			for _, q := range base {
				for minShared := 1; minShared <= 2; minShared++ {
					if g, w := collectOrds(x, q, minShared), sharing(docToks, q, minShared); !slices.Equal(g, w) {
						t.Fatalf("after the tail, query %v minShared=%d yields %v, the direct count %v", q, minShared, g, w)
					}
				}
			}
		}
	})
}

// TestIndexCompact: Compact is NewIndex over the kept rows in order — after
// Sets that replaced, removed and grew rows too — and no compacted row
// shares storage with the rows it was copied from.
func TestIndexCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := make(Tokens, 500)
	for ord := range rows {
		if ord%9 == 4 {
			continue
		}
		rows[ord] = make([]uint32, 1+rng.Intn(5))
		for i := range rows[ord] {
			rows[ord][i] = uint32(rng.Intn(80))
		}
	}
	x := NewIndex(rows)
	for ord := 0; ord < 520; ord += 13 {
		x.Set(ord, []uint32{uint32(rng.Intn(80)), 7})
	}
	x.Set(3, nil)
	for _, share := range []int{0, 2, 10} {
		keep := make([]bool, len(x.rows))
		var kept Tokens
		for ord, toks := range x.rows {
			if keep[ord] = rng.Intn(10) < share; keep[ord] {
				kept = append(kept, toks)
			}
		}
		old := make(map[*uint32]bool)
		for _, toks := range x.rows {
			for i := range toks {
				old[&toks[i]] = true
			}
		}
		c := x.Compact(keep)
		if want := NewIndex(kept); !equalIndex(c, want) {
			t.Fatalf("keeping %d of 10: Compact has %d docs and %d terms, NewIndex over the kept rows %d and %d, or other rows or postings",
				share, c.Docs(), c.Terms(), want.Docs(), want.Terms())
		}
		for ord, toks := range c.rows {
			for i := range toks {
				if old[&toks[i]] {
					t.Fatalf("keeping %d of 10: compacted row %d shares storage with the old rows", share, ord)
				}
			}
		}
	}
}
