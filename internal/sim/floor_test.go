package sim

import (
	"math"
	"math/rand"
	"testing"
)

// checkFloor is the floor contract of ProfiledSim.Compare on one pair of
// profiles: with exact the unbounded score, a bounded call must land on the
// same side of its floor, and at or above the floor it must return exact bit
// for bit. Floors at, one ulp below and one ulp above the score are where a
// bound derived with different rounding than the score would show.
func checkFloor(t *testing.T, name string, ps ProfiledSim, a, b *Profile, floors ...float64) {
	t.Helper()
	exact := ps.Compare(a.Ref(), b.Ref(), 0)
	floors = append(floors, exact, math.Nextafter(exact, -1), math.Nextafter(exact, 2))
	for _, floor := range floors {
		got := ps.Compare(a.Ref(), b.Ref(), floor)
		if (got >= floor) != (exact >= floor) {
			t.Errorf("%s(%s, %s) floor %v: bounded %v and exact %v fall on different sides", name, show(a), show(b), floor, got, exact)
		} else if got >= floor && math.Float64bits(got) != math.Float64bits(exact) {
			t.Errorf("%s(%s, %s) floor %v: bounded %v, exact %v", name, show(a), show(b), floor, got, exact)
		}
	}
}

// floors are the thresholds the benchmark and the experiments use, the
// degenerate ones, and the exactly representable ratios of small sets.
var floors = []float64{math.Inf(-1), -1, 0, 0.25, 0.5, 2.0 / 3, 0.7, 0.75, 0.82, 1, math.Nextafter(1, 2), 1.5, math.Inf(1), math.NaN()}

// TestCompareFloorExactSets is the property on the set measures' own
// representation, where adversarial sets are easy to state: empty,
// one-element, identical, disjoint, nested, interleaved, with and without
// members that can intersect nothing (unknown query tokens), and random ones of
// random sizes. Dice 3/4 at floor 0.75 and Jaccard 1/3 of three at 2/3's
// neighbours are among the generated cases.
func TestCompareFloorExactSets(t *testing.T) {
	seq := func(from, n, step int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(from + i*step)
		}
		return out
	}
	sets := [][]uint64{
		nil, {1}, {7}, {8}, seq(0, 2, 1), seq(0, 3, 1), seq(0, 4, 1), seq(1, 4, 1), seq(0, 8, 1), seq(4, 8, 1),
		seq(0, 8, 2), seq(1, 8, 2), seq(100, 5, 1), seq(0, 40, 1), seq(10, 40, 1), seq(0, 40, 3),
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 60; i++ {
		n := rng.Intn(70)
		seen := map[uint64]bool{}
		for len(seen) < n {
			seen[uint64(rng.Intn(2*n+4))] = true
		}
		var s []uint64
		for v := range seen {
			s = append(s, v)
		}
		sets = append(sets, uniqueSorted(s))
	}
	gramMeasures := map[string]ProfiledSim{"dice": ProfiledOf(Trigram), "jaccard": ProfiledOf(TrigramJaccard)}
	tokenMeasures := map[string]ProfiledSim{"dice": tokenProfiled{dice: true}, "jaccard": tokenProfiled{}}
	for _, sa := range sets {
		for _, sb := range sets {
			for name, ps := range gramMeasures {
				checkFloor(t, "ngram-"+name, ps, gramProfile(sa, signature{}), gramProfile(sb, signature{}), floors...)
			}
			ta, tb := make([]uint32, len(sa)), make([]uint32, len(sb))
			for i, v := range sa {
				ta[i] = uint32(v)
			}
			for i, v := range sb {
				tb[i] = uint32(v)
			}
			for _, extra := range [][2]int{{0, 0}, {1, 0}, {0, 3}, {2, 2}} {
				for name, ps := range tokenMeasures {
					checkFloor(t, "token-"+name, ps,
						tokenProfile(ta, extra[0], signature{}),
						tokenProfile(tb, extra[1], signature{}), floors...)
				}
			}
		}
	}
}

// TestOverlapAtLeastMatchesOverlap pins the bounded merge to the plain one:
// the same count whenever the overlap reaches need, -1 only when it does not.
func TestOverlapAtLeastMatchesOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		var a, b []int
		for v := 0; v < 40; v++ {
			if rng.Intn(3) == 0 {
				a = append(a, v)
			}
			if rng.Intn(3) == 0 {
				b = append(b, v)
			}
		}
		want := overlap(a, b)
		for need := 0; need <= min(len(a), len(b)); need++ {
			got := overlapAtLeast(a, b, need)
			if want >= need && got != want || want < need && got != -1 && got != want {
				t.Fatalf("overlapAtLeast(%v, %v, %d) = %d, overlap = %d", a, b, need, got, want)
			}
		}
	}
}

// TestCompareFloorExactValues runs the property through every registered
// measure and TF-IDF on real values, the floor-ignoring measures included:
// ignoring the floor is one way to honour it.
func TestCompareFloorExactValues(t *testing.T) {
	values := append(scratchValues(), profileEdgeCases...)
	for name, ps := range allMeasures() {
		profs := make([]*Profile, len(values))
		for i, v := range values {
			profs[i] = NewProfile(ps, v)
		}
		for _, a := range profs {
			for _, b := range profs {
				checkFloor(t, name, ps, a, b, floors...)
			}
		}
	}
}

// FuzzCompareFloorExact is the same property over arbitrary strings and
// floors, for every registered measure and TF-IDF, on built profiles and on
// lookup-only query profiles (whose unknown tokens count without being
// materialized).
func FuzzCompareFloorExact(f *testing.F) {
	measures := allMeasures()
	seeds := append(scratchValues(), profileEdgeCases...)
	for i, a := range seeds {
		f.Add(a, seeds[(i*5+2)%len(seeds)], 0.75)
		f.Add(a, a+" revised", 0.82)
		f.Add(a, "zzfloor1 "+a, 0.5)
	}
	f.Add("abcd", "abcdef", 0.75)
	f.Add("view selection", "view maintenance", 2.0/3)
	f.Fuzz(func(t *testing.T, a, b string, floor float64) {
		var q Profile
		var sc Scratch
		for name, ps := range measures {
			pb := NewProfile(ps, b)
			QueryInto(ps, a, &q, &sc)
			checkFloor(t, name+"/query", ps, &q, pb, floor)
			checkFloor(t, name, ps, NewProfile(ps, a), pb, floor)
		}
	})
}

// TestWeightedMatchesUnboundedMean pins Weighted.Score to the loop it
// replaced — sum the weighted similarities in column order, divide by the
// total weight — for random columns, weights (zeros included) and
// thresholds: the same side of the threshold, and the same bits on or above
// it. The thresholds include each pair's own mean and its two neighbours.
func TestWeightedMatchesUnboundedMean(t *testing.T) {
	all := allMeasures()
	names := []string{"Trigram", "TokenJaccard", "Year", "Levenshtein", "PersonName", "NGramJaccard", "Equal"}
	values := append(scratchValues(), profileEdgeCases...)
	rng := rand.New(rand.NewSource(3))
	stoppedSeen := false
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(4)
		measures := make([]ProfiledSim, k)
		weights := make([]float64, k)
		for i := range measures {
			measures[i] = all[names[rng.Intn(len(names))]]
			weights[i] = float64(rng.Intn(4))
		}
		weights[rng.Intn(k)] = 1 + float64(rng.Intn(3)) // never all zero
		var total float64
		for _, w := range weights {
			total += w
		}
		as, bs := make([]*Profile, k), make([]*Profile, k)
		var sum float64
		for i, ps := range measures {
			as[i] = NewProfile(ps, values[rng.Intn(len(values))])
			bs[i] = NewProfile(ps, values[rng.Intn(len(values))])
			sum += weights[i] * ps.Compare(as[i].Ref(), bs[i].Ref(), 0)
		}
		exact := sum / total
		for _, threshold := range []float64{-1, 0, 0.3, 0.5, 0.75, 0.82, 1, 1.5, exact, math.Nextafter(exact, -1), math.Nextafter(exact, 2)} {
			got := NewWeighted(measures, weights, threshold).Score(func(i int) (a, b Ref) {
				return as[i].Ref(), bs[i].Ref()
			})
			stoppedSeen = stoppedSeen || got < 0
			if (got >= threshold) != (exact >= threshold) {
				t.Fatalf("trial %d threshold %v: bounded %v and exact %v fall on different sides (weights %v)", trial, threshold, got, exact, weights)
			}
			if got >= threshold && math.Float64bits(got) != math.Float64bits(exact) {
				t.Fatalf("trial %d threshold %v: bounded %v, exact %v (weights %v)", trial, threshold, got, exact, weights)
			}
		}
	}
	if !stoppedSeen {
		t.Fatal("no trial was ever cut short; the bound is not exercised")
	}
}
