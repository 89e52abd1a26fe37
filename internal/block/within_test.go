package block

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/mapping"
	"repro/internal/model"
)

// FuzzWithinMatchesTokenBlocking holds Within to its definition: over random
// small sets — repeated tokens, empty and missing values — and a mapping that
// also names ids neither input holds, Within streams exactly the pairs
// TokenBlocking streams that the mapping holds, in token blocking's order,
// and stops when yield says so.
func FuzzWithinMatchesTokenBlocking(f *testing.F) {
	f.Add([]byte{
		3, 4, // 3 instances in a, 4 in b
		2, 0, 0, 3, 1, 2, 3, 0, // a values: "w0 w0", "w1 w2 w3", ""
		1, 0, 2, 1, 2, 3, 0, 0, 0, 1, 4, // b values: "w0", "w1 w2", "w0 w0 w0", "w4"
		9, 0, 0, 1, 1, 1, 2, 0, 3, 7, 1, 2, 0, 2, 2, 1, 0, 1, 1, // 9 pairs, some absent
		0, 3}) // MinShared 1, stop after 3
	f.Add([]byte{2, 2, 3, 1, 1, 2, 2, 5, 5, 2, 1, 5, 2, 2, 5, 4, 0, 0, 0, 1, 1, 0, 1, 1, 1, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := data[0]
			data = data[1:]
			return int(v)
		}
		value := func() string {
			words := make([]string, next()%5)
			for i := range words {
				words[i] = fmt.Sprintf("w%d", next()%6)
			}
			return strings.Join(words, " ")
		}
		a, b := model.NewObjectSet(dblpPub), model.NewObjectSet(acmPub)
		nA, nB := next()%8, next()%8
		for i := range nA {
			a.AddNew(model.ID(fmt.Sprintf("a%d", i)), map[string]string{"title": value()})
		}
		for i := range nB {
			attrs := map[string]string{"name": value()}
			if i%5 == 4 {
				attrs = nil
			}
			b.AddNew(model.ID(fmt.Sprintf("b%d", i)), attrs)
		}
		pairs := mapping.NewSame(dblpPub, acmPub)
		for n := next() % 40; n > 0; n-- {
			pairs.Add(model.ID(fmt.Sprintf("a%d", next()%10)), model.ID(fmt.Sprintf("b%d", next()%10)), 1)
		}
		tokens := TokenBlocking{AttrA: "title", AttrB: "name", MinShared: 1 + next()%3}
		within := Within{Pairs: pairs, Tokens: tokens}

		var want []Pair
		for _, p := range Pairs(tokens, a, b) {
			if pairs.Has(p.A, p.B) {
				want = append(want, p)
			}
		}
		got := Pairs(within, a, b)
		if !slices.Equal(got, want) {
			t.Fatalf("%s:\n got %v\nwant %v", within, got, want)
		}
		if stop := next() % 8; stop > 0 && stop < len(want) {
			var first []Pair
			PairsEach(within, a, b, func(p Pair) bool {
				first = append(first, p)
				return len(first) < stop
			})
			if !slices.Equal(first, want[:stop]) {
				t.Fatalf("%s stopped after %d with %v, want %v", within, stop, first, want[:stop])
			}
		}
	})
}
