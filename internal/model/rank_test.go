package model

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"
)

// scoredID is one element of FuzzTopMatchesSortThenCut's input.
type scoredID struct {
	sim float64
	id  ID
}

func byRank(a, b scoredID) int { return CompareRank(a.sim, a.id, b.sim, b.id) }

// rankScores are few on purpose, so that ties on similarity are common and
// the id decides; -0 and +0 compare equal.
var rankScores = [...]float64{math.Copysign(0, -1), 0, 0.25, 0.5, 1}

// FuzzTopMatchesSortThenCut checks Top against slices.SortFunc followed by
// the cut, element by element down to the sign of a zero, for every k in
// [0, n+2], and that Top leaves the whole slice a permutation of its input.
// Each byte of data makes one element: its low bits pick a score, its high
// bits lead a distinct id, so the id order is not the input order.
func FuzzTopMatchesSortThenCut(f *testing.F) {
	f.Add([]byte{}, byte(0))
	f.Add([]byte{0, 1, 2, 3, 4}, byte(2))
	f.Add([]byte{9, 4, 4, 1, 0, 0, 1, 255, 8, 3, 17, 12}, byte(5))
	f.Add([]byte{5, 0, 5, 0, 5, 0, 5, 0}, byte(9))
	f.Fuzz(func(t *testing.T, data []byte, kb byte) {
		in := make([]scoredID, len(data))
		for i, b := range data {
			in[i] = scoredID{rankScores[int(b)%len(rankScores)], ID(fmt.Sprintf("%d/%d", b>>3, i))}
		}
		k := int(kb) % (len(in) + 3)
		want := slices.Clone(in)
		slices.SortFunc(want, byRank)
		want = want[:min(k, len(want))]

		xs := slices.Clone(in)
		got := Top(xs, k, byRank)
		same := func(a, b scoredID) bool {
			return a.id == b.id && math.Float64bits(a.sim) == math.Float64bits(b.sim)
		}
		if !slices.EqualFunc(got, want, same) {
			t.Fatalf("Top(k=%d) = %v, sort then cut = %v", k, got, want)
		}
		if len(got) > 0 && &got[0] != &xs[0] {
			t.Fatal("Top must return a prefix of its input")
		}
		byID := func(a, b scoredID) int { return cmp.Compare(a.id, b.id) }
		slices.SortFunc(xs, byID)
		slices.SortFunc(in, byID)
		if !slices.EqualFunc(xs, in, same) {
			t.Fatalf("Top left %v, not a permutation of %v", xs, in)
		}
	})
}
