package par

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func TestSplitCoversEveryRow(t *testing.T) {
	for _, n := range []int{0, 1, 7, minChunkRows - 1, minChunkRows, 2*minChunkRows - 1, 2 * minChunkRows, 100001} {
		for _, w := range []int{0, 1, 2, 3, 8, 64} {
			p := Split(n, w)
			chunks := p.Chunks()
			if chunks < 1 {
				t.Fatalf("Split(%d,%d): %d chunks", n, w, chunks)
			}
			prev := 0
			for c := 0; c < chunks; c++ {
				lo, hi := p.Bounds(c)
				if lo != prev || hi < lo {
					t.Fatalf("Split(%d,%d): chunk %d = [%d,%d), want lo %d", n, w, c, lo, hi, prev)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("Split(%d,%d): chunks end at %d, want %d", n, w, prev, n)
			}
		}
	}
}

func TestSplitSmallInputStaysSequential(t *testing.T) {
	if got := Split(minChunkRows, 8).Chunks(); got != 1 {
		t.Fatalf("small input split into %d chunks, want 1", got)
	}
	if got := Split(0, 8).Chunks(); got != 1 {
		t.Fatalf("empty input split into %d chunks, want 1", got)
	}
}

func TestRunVisitsEveryRowOnce(t *testing.T) {
	n := 3*minChunkRows + 17
	for _, w := range []int{1, 2, 3, 8} {
		seen := make([]int32, n)
		p := Split(n, w)
		p.Run(func(chunk, lo, hi int) {
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: row %d visited %d times", w, i, c)
			}
		}
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic did not propagate")
		}
	}()
	Split(4*minChunkRows, 4).Run(func(chunk, lo, hi int) {
		if chunk == 2 {
			panic("boom")
		}
	})
}

func TestWorkersResolvesDefault(t *testing.T) {
	if Workers(5) != 5 {
		t.Fatal("explicit worker count not honored")
	}
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("default worker count must be at least 1")
	}
}

// planBounds flattens a plan into its bounds for comparison.
func planBounds(p Plan) []int {
	out := []int{0}
	for c := 0; c < p.Chunks(); c++ {
		_, hi := p.Bounds(c)
		out = append(out, hi)
	}
	return out
}

// TestSplitByPartitionProperties pins what every SplitBy plan guarantees,
// over uniform, skewed, sparse and all-zero weights: the chunks cover
// [0, n) contiguously, there are at most `workers` of them and never more
// than rows, the bounds are a pure function of the inputs, and no chunk
// outweighs an even share by more than its heaviest row.
func TestSplitByPartitionProperties(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	shapes := map[string]func(i int) int{
		"uniform": func(int) int { return 700 },
		"skewed":  func(i int) int { return 1 + (i*i)%4099 },
		"sparse": func(i int) int {
			if i%17 == 0 {
				return 50000
			}
			return 0
		},
		"zero": func(int) int { return 0 },
	}
	for name, shape := range shapes {
		for _, n := range []int{0, 1, 2, 5, 100, 4246} {
			weights := make([]int, n)
			total, heaviest := 0, 0
			for i := range weights {
				weights[i] = shape(i + rnd.Intn(3))
				total += weights[i]
				heaviest = max(heaviest, weights[i])
			}
			weight := func(i int) int { return weights[i] }
			for _, w := range []int{1, 2, 3, 8, 64} {
				p := SplitBy(n, w, weight)
				if again := SplitBy(n, w, weight); !slices.Equal(planBounds(p), planBounds(again)) {
					t.Fatalf("%s n=%d w=%d: bounds differ between two calls", name, n, w)
				}
				chunks := p.Chunks()
				if chunks < 1 || chunks > w || chunks > max(n, 1) {
					t.Fatalf("%s n=%d w=%d: %d chunks", name, n, w, chunks)
				}
				prev := 0
				for c := 0; c < chunks; c++ {
					lo, hi := p.Bounds(c)
					if lo != prev || hi < lo {
						t.Fatalf("%s n=%d w=%d: chunk %d = [%d,%d), want lo %d", name, n, w, c, lo, hi, prev)
					}
					load := 0
					for _, x := range weights[lo:hi] {
						load += x
					}
					if load > total/chunks+1+heaviest {
						t.Errorf("%s n=%d w=%d: chunk %d weighs %d of %d, over an even share by more than the heaviest row %d",
							name, n, w, c, load, total, heaviest)
					}
					prev = hi
				}
				if prev != n {
					t.Fatalf("%s n=%d w=%d: chunks end at %d, want %d", name, n, w, prev, n)
				}
			}
		}
	}
}

// TestSplitByUnitWeightsPartitionLikeSplit: rows of weight one are rows, so
// the plan is Split's exactly — same collapse, same bounds.
func TestSplitByUnitWeightsPartitionLikeSplit(t *testing.T) {
	unit := func(int) int { return 1 }
	for _, n := range []int{0, 1, 6, 7, minChunkRows, 2*minChunkRows - 1, 2 * minChunkRows, 3*minChunkRows + 6, 100001} {
		for _, w := range []int{0, 1, 2, 3, 4, 8, 64} {
			if got, want := planBounds(SplitBy(n, w, unit)), planBounds(Split(n, w)); !slices.Equal(got, want) {
				t.Errorf("SplitBy(%d, %d, unit) = %v, Split gives %v", n, w, got, want)
			}
		}
	}
}

// TestSplitByPartitionCountsWorkNotRows: the collapse rule looks at weight.
// A handful of heavy rows is split — one row per chunk when there are fewer
// rows than workers — where Split would keep them on the caller, and many
// weightless rows stay on the caller where Split would fan them out.
func TestSplitByPartitionCountsWorkNotRows(t *testing.T) {
	heavy := func(int) int { return 4 * minChunkRows }
	if got := planBounds(SplitBy(3, 8, heavy)); !slices.Equal(got, []int{0, 1, 2, 3}) {
		t.Errorf("three heavy rows at 8 workers: bounds %v, want one row per chunk", got)
	}
	if got := SplitBy(16*minChunkRows, 8, func(int) int { return 0 }).Chunks(); got != 1 {
		t.Errorf("weightless rows split into %d chunks, want 1", got)
	}
	if got := SplitBy(100, 8, func(int) int { return 10 }).Chunks(); got != 1 {
		t.Errorf("%d total weight split into %d chunks, want 1", 1000, got)
	}
}

// TestSplitByPartitionHugeWeightDoesNotStarveTheRest: a row heavier than
// everything else together ends its chunk, and the rows behind it are still
// spread evenly over the workers that remain instead of piling onto one.
func TestSplitByPartitionHugeWeightDoesNotStarveTheRest(t *testing.T) {
	const n, workers = 9001, 4
	for _, at := range []int{0, n / 2} {
		weight := func(i int) int {
			if i == at {
				return 1 << 40
			}
			return 1
		}
		p := SplitBy(n, workers, weight)
		if p.Chunks() != workers {
			t.Fatalf("huge row at %d: %d chunks, want %d", at, p.Chunks(), workers)
		}
		if _, hi := p.Bounds(0); hi != at+1 {
			t.Fatalf("huge row at %d: first chunk ends at %d, want right behind the row", at, hi)
		}
		share := (n - at - 1) / (workers - 1)
		for c := 1; c < workers; c++ {
			lo, hi := p.Bounds(c)
			if rows := hi - lo; rows < share-1 || rows > share+1 {
				t.Errorf("huge row at %d: chunk %d holds %d of the %d rows behind it, want about %d", at, c, rows, n-at-1, share)
			}
		}
	}
}

// sortStableOracle is SortKeyRows' reference: the standard library's stable
// comparison sort by Key.
func sortStableOracle(s []KeyRow) []KeyRow {
	want := slices.Clone(s)
	slices.SortStableFunc(want, func(a, b KeyRow) int { return cmp.Compare(a.Key, b.Key) })
	return want
}

// checkRadixSort runs SortKeyRows on a copy of keys (rows numbered in
// order, so stability is visible) and fails unless it equals the oracle and
// hands back its two buffers as sorted and spare.
func checkRadixSort(t *testing.T, label string, keys []uint64, workers int) {
	t.Helper()
	s := make([]KeyRow, len(keys))
	for i, k := range keys {
		s[i] = KeyRow{Key: k, Row: uint32(i)}
	}
	want := sortStableOracle(s)
	tmp := make([]KeyRow, len(s))
	got, spare := SortKeyRows(s, tmp, workers)
	if !slices.Equal(got, want) {
		t.Fatalf("%s workers=%d: radix sort differs from the stable comparison sort", label, workers)
	}
	if len(s) >= 2 {
		g, p := &got[0], &spare[0]
		if !(g == &s[0] && p == &tmp[0] || g == &tmp[0] && p == &s[0]) {
			t.Fatalf("%s workers=%d: sorted and spare are not the two buffers passed in", label, workers)
		}
	}
}

// TestRadixSortMatchesSortStable holds SortKeyRows to the stable
// comparison sort across worker counts, lengths around the chunk floor and
// the smallest multi-chunk plan, every key width from 0 to 64 bits with
// heavy duplication, and keys that share their high digits — the passes
// over those digits are skipped, and the result must not notice.
func TestRadixSortMatchesSortStable(t *testing.T) {
	rnd := rand.New(rand.NewSource(31))
	lengths := []int{0, 1, 2, minChunkRows - 1, minChunkRows, minChunkRows + 1, 2*minChunkRows - 1, 2*minChunkRows + 1, 5*minChunkRows + 3}
	for _, n := range lengths {
		for width := 0; width <= 64; width += 4 {
			pool := make([]uint64, max(n/3, 1))
			for i := range pool {
				if width > 0 {
					pool[i] = rnd.Uint64() >> (64 - width)
				}
			}
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = pool[rnd.Intn(len(pool))]
			}
			for _, w := range []int{1, 3, 8} {
				checkRadixSort(t, fmt.Sprintf("width %d n=%d", width, n), keys, w)
			}
		}
		shared := make([]uint64, n)
		for i := range shared {
			// One 44-bit prefix on every key, only the low 12 and the top bit vary.
			shared[i] = 0xABCDE<<44 | rnd.Uint64()&0xFFF | uint64(rnd.Intn(2))<<63
		}
		for _, w := range []int{1, 3, 8} {
			checkRadixSort(t, fmt.Sprintf("shared high digits n=%d", n), shared, w)
			// Ascending inside every chunk of the plan, descending across
			// them: only the chunk boundaries show the keys are out of order.
			p := Split(n, w)
			runs := make([]uint64, n)
			for c := 0; c < p.Chunks(); c++ {
				lo, hi := p.Bounds(c)
				for i := lo; i < hi; i++ {
					runs[i] = uint64(p.Chunks()-c)<<20 | uint64(i-lo)/3
				}
			}
			checkRadixSort(t, fmt.Sprintf("sorted chunks n=%d", n), runs, w)
		}
	}
}

// FuzzRadixSortStable: any byte pattern, shifted anywhere in the key and
// repeated up to 32 times (so duplicates abound and long inputs split into
// chunks), sorts exactly as the stable comparison sort does.
func FuzzRadixSortStable(f *testing.F) {
	f.Add([]byte{3, 1, 2, 1}, uint8(0), uint8(0), uint8(1))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"), uint8(55), uint8(31), uint8(3))
	long := make([]byte, 300)
	for i := range long {
		long[i] = byte(i * 7)
	}
	f.Add(long, uint8(11), uint8(20), uint8(8))
	f.Fuzz(func(t *testing.T, data []byte, shift, reps, workers uint8) {
		if len(data) == 0 {
			checkRadixSort(t, "empty", nil, int(workers%8)+1)
			return
		}
		keys := make([]uint64, len(data)*(1+int(reps%32)))
		for i := range keys {
			b := uint64(data[i%len(data)])
			keys[i] = b<<(shift%57) | (b&1)<<63
		}
		checkRadixSort(t, "fuzz", keys, int(workers%8)+1)
	})
}
