package model

import (
	"cmp"
	"slices"
)

// CompareRank is MOMA's one rank order of scored ids: the higher similarity
// first, then the ascending id. Best-N and Best-1+δ (§3.3), the GS keyword
// queries and moma-serve's responses all rank by it, usually through Top.
func CompareRank(simA float64, idA ID, simB float64, idB ID) int {
	if c := cmp.Compare(simB, simA); c != 0 {
		return c
	}
	return cmp.Compare(idA, idB)
}

// Top reorders xs in place so that its first min(k, len(xs)) elements are
// its best under cmp, best first, and returns them; cmp(a, b) < 0 ranks a
// before b. The rest of xs keeps the other elements in no set order. The
// result is fully determined only when cmp is a strict total order: of
// elements that compare equal, which make the cut and in what order is
// unspecified.
//
// A cut below len(xs) keeps the k best seen so far as a heap with the worst
// at the root, so it costs O(len(xs)·log k) comparisons and no allocation.
func Top[T any](xs []T, k int, cmp func(a, b T) int) []T {
	if k <= 0 {
		return xs[:0]
	}
	if k >= len(xs) {
		slices.SortFunc(xs, cmp)
		return xs
	}
	h := xs[:k]
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(h, i, cmp)
	}
	for i := k; i < len(xs); i++ {
		if cmp(xs[i], h[0]) < 0 {
			h[0], xs[i] = xs[i], h[0]
			siftDown(h, 0, cmp)
		}
	}
	slices.SortFunc(h, cmp)
	return h
}

// siftDown restores the worst-at-the-root heap order of h below position i.
func siftDown[T any](h []T, i int, cmp func(a, b T) int) {
	for {
		child := 2*i + 1
		if child >= len(h) {
			return
		}
		if r := child + 1; r < len(h) && cmp(h[r], h[child]) > 0 {
			child = r
		}
		if cmp(h[child], h[i]) <= 0 {
			return
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
}
