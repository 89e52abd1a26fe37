// Grouping and output plumbing shared by Compose, Merge and the selections.
// Each operator groups rows by sorting (key, row) pairs with par.SortKeyRows,
// folds every run of equal keys on one worker, marks the result at the
// position of the group's first row, path or record, and gathers the marked
// positions in position order into the output columns. A stable sort has
// one result however the rows are chunked, and every fold reads its run in
// input order, so the output is bit-identical at every worker count (see
// the parallel-operator section of moma.go).

package mapping

import "repro/internal/par"

// sortBufs passes one operator call's sort buffers from sort to sort: what
// one sort leaves spare is the next one's input or scratch, so compose's
// five sorts share three buffers when its inputs and paths are of one size.
// Nothing here is sized by a dictionary, only by rows.
type sortBufs struct {
	workers int
	free    [][]par.KeyRow
}

// reuse returns a free buffer of n elements, or nil when none is large
// enough.
func (b *sortBufs) reuse(n int) []par.KeyRow {
	for i, f := range b.free {
		if cap(f) >= n {
			b.free = append(b.free[:i], b.free[i+1:]...)
			return f[:n]
		}
	}
	return nil
}

// get returns a buffer of n elements, reused when possible.
func (b *sortBufs) get(n int) []par.KeyRow {
	if s := b.reuse(n); s != nil {
		return s
	}
	return make([]par.KeyRow, n)
}

// put hands back a buffer whose contents are dead.
func (b *sortBufs) put(s []par.KeyRow) {
	if cap(s) > 0 {
		b.free = append(b.free, s)
	}
}

// sort sorts s stably by key and keeps the spare buffer for later sorts.
func (b *sortBufs) sort(s []par.KeyRow) []par.KeyRow {
	sorted, spare := par.SortKeyRows(s, b.reuse(len(s)), b.workers)
	b.put(spare)
	return sorted
}

// keyRows returns one column as (ordinal, row) pairs in row order.
func (b *sortBufs) keyRows(col []uint32) []par.KeyRow {
	s := b.get(len(col))
	par.Split(len(col), b.workers).Run(func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			s[i] = par.KeyRow{Key: uint64(col[i]), Row: uint32(i)}
		}
	})
	return s
}

// groupSizes returns, for every row of col, how many rows of col hold the
// same ordinal — n(a) and n(b) of Figure 5 — counted by sorting rather than
// in a table indexed by ordinal.
func (b *sortBufs) groupSizes(col []uint32) []uint32 {
	sorted := b.sort(b.keyRows(col))
	sizes := make([]uint32, len(col))
	eachRun(sorted, b.workers, func() func(lo, hi int) {
		return func(lo, hi int) {
			for _, r := range sorted[lo:hi] {
				sizes[r.Row] = uint32(hi - lo)
			}
		}
	})
	b.put(sorted)
	return sizes
}

// eachRun calls fold(lo, hi) for every run sorted[lo:hi] of equal keys,
// spread over the workers of Split(len(sorted), workers). Chunk bounds move
// forward to the next run start before any worker starts, so each run is
// folded whole by one worker, which may reorder it in place. newFold is
// called once per chunk for the chunk's own fold and scratch.
func eachRun(sorted []par.KeyRow, workers int, newFold func() func(lo, hi int)) {
	plan := par.Split(len(sorted), workers)
	starts := make([]int, plan.Chunks()+1)
	for c := 1; c < plan.Chunks(); c++ {
		s, _ := plan.Bounds(c)
		s = max(s, starts[c-1])
		for s > 0 && s < len(sorted) && sorted[s].Key == sorted[s-1].Key {
			s++
		}
		starts[c] = s
	}
	starts[plan.Chunks()] = len(sorted)
	plan.Run(func(c, _, _ int) {
		fold := newFold()
		end := starts[c+1]
		for lo := starts[c]; lo < end; {
			hi := lo + 1
			for hi < end && sorted[hi].Key == sorted[lo].Key {
				hi++
			}
			fold(lo, hi)
			lo = hi
		}
	})
}

// gatherColumns builds an operator's output columns in position order over
// [0, n): count(lo, hi) returns how many rows positions [lo, hi) emit, and
// emit(lo, hi, ...) writes exactly those rows, in order, into columns of
// that length. Chunks count first and then write at prefix-summed offsets,
// so each column is allocated once, at its final size.
func gatherColumns(n, workers int, count func(lo, hi int) int, emit func(lo, hi int, dom, rng []uint32, sim []float64)) (dom, rng []uint32, sim []float64) {
	plan := par.Split(n, workers)
	offs := make([]int, plan.Chunks()+1)
	plan.Run(func(c, lo, hi int) { offs[c+1] = count(lo, hi) })
	for c := 0; c < plan.Chunks(); c++ {
		offs[c+1] += offs[c]
	}
	total := offs[plan.Chunks()]
	dom, rng, sim = make([]uint32, total), make([]uint32, total), make([]float64, total)
	plan.Run(func(c, lo, hi int) {
		at, end := offs[c], offs[c+1]
		emit(lo, hi, dom[at:end], rng[at:end], sim[at:end])
	})
	return dom, rng, sim
}
