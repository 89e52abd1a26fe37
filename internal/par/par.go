// Package par is the repository's one data-parallel idiom, shared by the
// parallel columnar mapping operators and the batch matchers' block → score
// kernel: a fixed worker count, partition-by-index chunking over row
// ranges (by row count, Split, or by per-row cost, SplitBy), per-worker
// private scratch, and a deterministic merge-back in chunk order.
//
// The contract every user of this package inherits:
//
//   - Work is split into contiguous row ranges [lo, hi) decided before any
//     goroutine starts — never work-stealing, never a shared cursor — so
//     the assignment of rows to chunks is a pure function of (rows,
//     workers).
//   - Each worker writes only its own chunk's scratch (partition by index,
//     which the -race partition suites check); results become visible
//     after the Wait-join, and callers merge them back in chunk order,
//     which restores the sequential row order deterministically.
//   - Worker counts affect wall-clock time only. Any output assembled via
//     chunk-order merge-back is bit-identical to what one worker produces;
//     the mapping package's differential oracles pin exactly this.
//
// A Plan carries the chunk bounds so callers can size per-chunk arenas
// before running; Split(n, workers).Run(fn) is the whole idiom in one
// line, and Plan.Run is the package's only place that starts goroutines.
// SortKeyRows is the shared sort built on the same plan: a stable radix
// sort of (key, row) pairs, so grouping rows by an ordinal key is a sort
// whose result is independent of the worker count, not a hash table.
package par

import (
	"math/bits"
	"runtime"
	"sync"
)

// Workers resolves a requested worker count: n when positive, otherwise
// GOMAXPROCS — which moma-bench -workers and `go test -cpu` cap, so the
// default tracks the harness's intent without extra plumbing.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// minChunkRows is the smallest range worth handing to its own worker:
// below this, goroutine spin-up and the join cost more than the row work
// they buy back. Splits never produce more chunks than ceil(n/minChunkRows).
const minChunkRows = 2048

// Plan is a partition of [0, n) rows into contiguous chunks, one per
// worker. The zero value is an empty single-chunk plan.
type Plan struct {
	n      int
	bounds []int // chunk c covers [bounds[c], bounds[c+1])
}

// Split partitions n rows into at most `workers` near-equal contiguous
// chunks (workers <= 0 means GOMAXPROCS). Small inputs collapse to a
// single chunk so the sequential path stays free of goroutine overhead.
func Split(n, workers int) Plan {
	w := Workers(workers)
	if w > 1 && n < 2*minChunkRows {
		w = 1
	}
	if maxW := (n + minChunkRows - 1) / minChunkRows; w > maxW && maxW > 0 {
		w = maxW
	}
	if w < 1 {
		w = 1
	}
	bounds := make([]int, w+1)
	for c := 0; c <= w; c++ {
		bounds[c] = c * n / w
	}
	return Plan{n: n, bounds: bounds}
}

// SplitBy is Split for rows of unequal cost: it partitions n rows into at
// most `workers` contiguous chunks of near-equal total weight, where
// weight(row) >= 0 estimates the work behind a row (a matcher passes the
// candidate pairs a blocker will stream for it). The collapse rule is
// Split's, counted in weight rather than rows — a total under
// 2*minChunkRows stays on the caller — and no plan has more chunks than
// rows. Cut c falls at the first row where the running weight reaches the
// later of c even shares of the whole and one even share of what cut c-1
// left, so a row heavier than a share ends its chunk and the rows behind it
// are still spread over the workers that remain. The bounds are a pure
// function of (weights, workers); unit weights give exactly Split's.
func SplitBy(n, workers int, weight func(row int) int) Plan {
	total := 0
	for row := 0; row < n; row++ {
		total += weight(row)
	}
	w := min(Split(total, workers).Chunks(), max(n, 1))
	bounds := make([]int, w+1)
	bounds[w] = n
	row, run := 0, 0 // run is the weight of rows [0, row)
	for c := 1; c < w; c++ {
		target := max(c*total/w, run+(total-run)/(w-c+1))
		for row < n && run < target {
			run += weight(row)
			row++
		}
		bounds[c] = row
	}
	return Plan{n: n, bounds: bounds}
}

// Chunks returns the number of chunks in the plan.
func (p Plan) Chunks() int {
	if p.bounds == nil {
		return 1
	}
	return len(p.bounds) - 1
}

// Bounds returns chunk c's row range [lo, hi).
func (p Plan) Bounds(c int) (lo, hi int) {
	if p.bounds == nil {
		return 0, 0
	}
	return p.bounds[c], p.bounds[c+1]
}

// Run executes fn(chunk, lo, hi) for every chunk of the plan, one goroutine
// per chunk, and joins before returning. fn must write only per-chunk
// state (partition by index); a single-chunk plan runs inline on the
// calling goroutine. Panics in workers propagate to the caller after all
// workers have stopped, so a crashed chunk never leaves goroutines writing
// behind the caller's back.
func (p Plan) Run(fn func(chunk, lo, hi int)) {
	chunks := p.Chunks()
	if chunks == 1 {
		lo, hi := p.Bounds(0)
		fn(0, lo, hi)
		return
	}
	panics := make([]any, chunks)
	var wg sync.WaitGroup
	for c := 0; c < chunks; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[c] = r
				}
			}()
			fn(c, p.bounds[c], p.bounds[c+1])
		}(c)
	}
	wg.Wait()
	for _, r := range panics {
		if r != nil {
			panic(r)
		}
	}
}

// KeyRow is one element of SortKeyRows: a sort key and the row it stands
// for. The mapping operators group rows by sorting these — a row's ordinal
// or packed ordinal pair as Key, its position as Row.
type KeyRow struct {
	Key uint64
	Row uint32
}

// radixBits is the digit width of SortKeyRows' passes: 2 048 buckets, whose
// counters and write streams still fit a core's caches.
const radixBits = 11

// SortKeyRows sorts s by Key, stably — elements with equal keys keep their
// order in s — with a least-significant-digit-first radix sort on the plan
// Split(len(s), workers) gives. Each pass sorts one 11-bit digit: chunks
// count their digits, the counts are summed bucket by bucket in chunk order,
// and every chunk scatters its elements in order to its own offsets. A stable
// sort has exactly one result, so the output does not depend on how the rows
// were chunked. Passes cover only the bits in which the keys present differ,
// so ordinals need as many passes as their width, not the 64 bits of Key, and
// a digit every key shares costs nothing; keys already in order — a column
// of ordinals often is — cost the one read that finds this out.
//
// tmp is scratch of at least len(s) elements (nil, or too short, allocates).
// The sorted elements end up in s or in tmp; SortKeyRows returns them as
// sorted, and spare is the other buffer, free for the caller's next sort.
func SortKeyRows(s, tmp []KeyRow, workers int) (sorted, spare []KeyRow) {
	if len(s) < 2 {
		return s, tmp
	}
	plan := Split(len(s), workers)
	chunks := plan.Chunks()
	// diff has a bit set wherever some key differs from the first one: the
	// only bits a pass needs to look at. Keys already in order need none.
	diffs := make([]uint64, chunks)
	ordered := make([]bool, chunks)
	first := s[0].Key
	plan.Run(func(c, lo, hi int) {
		var d uint64
		in, prev := true, s[max(lo-1, 0)].Key
		for _, e := range s[lo:hi] {
			d |= e.Key ^ first
			in = in && prev <= e.Key
			prev = e.Key
		}
		diffs[c], ordered[c] = d, in
	})
	var diff uint64
	done := true
	for c, d := range diffs {
		diff |= d
		done = done && ordered[c]
	}
	if done {
		return s, tmp
	}
	if len(tmp) < len(s) {
		tmp = make([]KeyRow, len(s))
	}
	const mask = 1<<radixBits - 1
	offs := make([][1 << radixBits]int, chunks)
	src, dst := s, tmp[:len(s)]
	for diff != 0 {
		shift := uint(bits.TrailingZeros64(diff))
		diff &^= mask << shift
		plan.Run(func(c, lo, hi int) {
			cnt := &offs[c]
			clear(cnt[:])
			for _, e := range src[lo:hi] {
				cnt[e.Key>>shift&mask]++
			}
		})
		at := 0
		for b := 0; b < 1<<radixBits; b++ {
			for c := range offs {
				n := offs[c][b]
				offs[c][b] = at
				at += n
			}
		}
		plan.Run(func(c, lo, hi int) {
			off := &offs[c]
			for _, e := range src[lo:hi] {
				b := e.Key >> shift & mask
				dst[off[b]] = e
				off[b]++
			}
		})
		src, dst = dst, src
	}
	return src, dst[:cap(dst)]
}
