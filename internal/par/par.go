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
// line. SortFunc is the shared parallel sort built on the same plan:
// chunked sorts merged pairwise with merge-path splitting, so the sorted
// result (under a total order) is independent of the worker count.
package par

import (
	"runtime"
	"slices"
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
	w := min(Team(total, workers), max(n, 1))
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

// Team sizes a hash-partitioned worker team over n items with the same
// collapse heuristics as Split: small inputs get a team of one so they
// run inline on the caller. Hash partitioning is the variant of the idiom
// for grouped folds — every worker scans all rows but owns the keys that
// hash to its partition, so each key's fold happens on one worker in
// global row order (order-sensitive float folds stay bit-identical).
func Team(n, workers int) int {
	return Split(n, workers).Chunks()
}

// RunTeam executes fn(w) for every worker w in [0, team), one goroutine
// per worker, and joins before returning — Plan.Run for hash-partitioned
// work, with the same private-scratch contract and panic propagation. A
// team of one runs inline on the calling goroutine.
func RunTeam(team int, fn func(w int)) {
	if team <= 1 {
		fn(0)
		return
	}
	panics := make([]any, team)
	var wg sync.WaitGroup
	for w := 0; w < team; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[w] = r
				}
			}()
			fn(w)
		}(w)
	}
	wg.Wait()
	for _, r := range panics {
		if r != nil {
			panic(r)
		}
	}
}

// Partition maps ordinal x to a partition in [0, team) by Fibonacci
// hashing — the shared partition function of hash-partitioned operators.
// It is a pure function of (x, team), so the row-to-worker assignment is
// deterministic for a fixed team size.
func Partition(x uint32, team int) int {
	return int((uint64(x*2654435761) * uint64(team)) >> 32)
}

// SortFunc sorts s by cmp across `workers` goroutines: the plan's chunks
// are sorted independently, then merged pairwise in rounds with each merge
// itself split by merge-path search. cmp must describe a TOTAL order over
// the elements actually present (no two distinct elements compare equal) —
// the operators guarantee this by including a sequence number in the key —
// so the result is the unique sorted permutation regardless of worker
// count. Allocates one scratch slice of len(s).
func SortFunc[T any](s []T, workers int, cmp func(a, b T) int) {
	p := Split(len(s), workers)
	chunks := p.Chunks()
	if chunks == 1 {
		slices.SortFunc(s, cmp)
		return
	}
	p.Run(func(c, lo, hi int) {
		slices.SortFunc(s[lo:hi], cmp)
	})
	// Pairwise merge rounds over the chunk boundaries: src holds the runs,
	// dst receives merged pairs; odd runs carry over by copy. Every round
	// halves the run count, and each merge is itself parallel.
	src, dst := s, make([]T, len(s))
	bounds := append([]int(nil), p.bounds...)
	for len(bounds) > 2 {
		nb := []int{bounds[0]}
		for i := 0; i+2 < len(bounds); i += 2 {
			mergeParallel(dst[bounds[i]:bounds[i+2]], src[bounds[i]:bounds[i+1]], src[bounds[i+1]:bounds[i+2]], workers, cmp)
			nb = append(nb, bounds[i+2])
		}
		if (len(bounds)-1)%2 == 1 {
			last := len(bounds) - 1
			copy(dst[bounds[last-1]:bounds[last]], src[bounds[last-1]:bounds[last]])
			nb = append(nb, bounds[last])
		}
		bounds = nb
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

// mergeParallel merges sorted runs a and b into dst (len(dst) ==
// len(a)+len(b)), splitting the merge into near-equal segments found by
// merge-path search: segment k takes a[ak:ak+1) and the b-prefix strictly
// smaller than a[ak], so concatenated segments are exactly the stable
// sequential merge.
func mergeParallel[T any](dst, a, b []T, workers int, cmp func(x, y T) int) {
	p := Split(len(a), workers)
	chunks := p.Chunks()
	if chunks == 1 {
		mergeRuns(dst, a, b, cmp)
		return
	}
	// Boundaries in b for each a-chunk: bk = first index with b[j] >= a[ak]
	// (ties go to a, keeping the merge stable).
	bb := make([]int, chunks+1)
	bb[chunks] = len(b)
	for c := 1; c < chunks; c++ {
		ak, _ := p.Bounds(c)
		bb[c], _ = slices.BinarySearchFunc(b, a[ak], cmp)
	}
	p.Run(func(c, lo, hi int) {
		mergeRuns(dst[lo+bb[c]:hi+bb[c+1]], a[lo:hi], b[bb[c]:bb[c+1]], cmp)
	})
}

// mergeRuns is the sequential stable two-run merge (a wins ties).
func mergeRuns[T any](dst, a, b []T, cmp func(x, y T) int) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if cmp(a[i], b[j]) <= 0 {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
		k++
	}
	copy(dst[k:], a[i:])
	copy(dst[k+len(a)-i:], b[j:])
}
