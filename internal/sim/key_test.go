package sim

import (
	"math"
	"testing"
)

// The key check is setSim's size and signature test moved onto two Keys. The
// reference below is that test as it read inline in setSim, on the
// profiles' own fields; the fuzz target holds keyRejects to it and holds
// CompareKeyed — the key check, then the merge — to Compare alone.

// stopsBeforeMerge reports whether setSim, given the two sets, their
// signatures and cardinalities, stops in its size or signature test.
func stopsBeforeMerge[T uint32 | uint64](a, b []T, sa, sb *signature, na, nb int, dice bool, floor float64) bool {
	if na == 0 || nb == 0 || !(floor > 0) {
		return false
	}
	need := minOverlap(na+nb, dice, floor)
	return min(len(a), len(b)) < need || len(a)-sa.lacking(sb) < need || len(b)-sb.lacking(sa) < need
}

// keyedMeasures are the four set measures with the reference test over the
// set each one scores.
var keyedMeasures = []struct {
	name   string
	ps     Keyed
	tokens bool
	dice   bool
}{
	{"Trigram", trigram.(Keyed), false, true},
	{"NGramJaccard", trigramJaccard.(Keyed), false, false},
	{"TokenDice", tokenProfiled{dice: true}, true, true},
	{"TokenJaccard", tokenProfiled{}, true, false},
}

// checkKeyReject checks one pair at floor and at the pair's own score and its
// two neighbours, where minOverlap's rounding correction decides.
func checkKeyReject(t *testing.T, name string, ps Keyed, tokens, dice bool, a, b *Profile, floor float64) {
	t.Helper()
	exact := ps.Compare(a, b, 0)
	ka, kb := ps.Key(a), ps.Key(b)
	for _, floor := range []float64{floor, exact, math.Nextafter(exact, -1), math.Nextafter(exact, 2)} {
		var want bool
		if tokens {
			want = stopsBeforeMerge(a.SortedTokenIDs, b.SortedTokenIDs, &a.sig, &b.sig,
				len(a.SortedTokenIDs)+a.ExtraTokens, len(b.SortedTokenIDs)+b.ExtraTokens, dice, floor)
		} else {
			want = stopsBeforeMerge(a.Grams, b.Grams, &a.sig, &b.sig, len(a.Grams), len(b.Grams), dice, floor)
		}
		rejects := keyRejects(&ka, &kb, dice, floor)
		if rejects != want {
			t.Errorf("%s(%q, %q) floor %v: keys reject %v, setSim's size and signature test %v", name, a.Raw, b.Raw, floor, rejects, want)
		}
		direct := ps.Compare(a, b, floor)
		viaKeys := ps.CompareKeyed(a, b, &ka, &kb, floor)
		if math.Float64bits(viaKeys) != math.Float64bits(direct) {
			t.Errorf("%s(%q, %q) floor %v: CompareKeyed %v, Compare %v", name, a.Raw, b.Raw, floor, viaKeys, direct)
		}
		if rejects && viaKeys != stopped {
			t.Errorf("%s(%q, %q) floor %v: the keys reject but CompareKeyed scored %v", name, a.Raw, b.Raw, floor, viaKeys)
		}
	}
}

// setProfiles builds the gram-set and token-set profiles of the set whose
// elements are raw's bytes; the token set also counts extra unknown tokens.
func setProfiles(raw []byte, extra int) (grams, tokens *Profile) {
	g := make([]uint64, len(raw))
	for i, x := range raw {
		g[i] = uint64(x)
	}
	g = uniqueSorted(g)
	ids := make([]uint32, len(g))
	for i, v := range g {
		ids[i] = uint32(v)
	}
	return &Profile{Raw: string(raw), Grams: g, sig: signatureOf(g)},
		&Profile{Raw: string(raw), SortedTokenIDs: ids, ExtraTokens: extra, sig: signatureOf(ids)}
}

// FuzzKeyRejectMatchesCompare: for all four set measures, the key check
// rejects exactly the pairs Compare stops on in its size or signature test,
// and checking keys before Compare changes no result bit. The pairs are
// random sets (the fuzzed bytes are the elements: empty, nested, disjoint
// and overlapping sets come easily), the query side with up to 7 unknown
// tokens, and the profiles ProfileInto and the lookup-only QueryInto build of
// the same bytes as strings; floors are folded into [0, 1.2).
func FuzzKeyRejectMatchesCompare(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(0), 0.75)
	f.Add([]byte{}, []byte("abc"), uint8(2), 0.5)
	f.Add([]byte("abcd"), []byte("abcdef"), uint8(0), 0.75)
	f.Add([]byte("abcdefgh"), []byte("efghijkl"), uint8(3), 2.0/3)
	f.Add([]byte("view selection problem"), []byte("view selection problems"), uint8(1), 0.82)
	f.Add([]byte("mapping based object matching"), []byte("object matching based on mappings"), uint8(0), 1.0)
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz"), []byte("zyxwvutsrqponmlkjihgfedcba9876543210"), uint8(7), 1.1)
	f.Fuzz(func(t *testing.T, a, b []byte, extra uint8, floor float64) {
		if math.IsNaN(floor) || math.IsInf(floor, 0) {
			floor = 0
		}
		floor = math.Mod(math.Abs(floor), 1.2)
		ga, ta := setProfiles(a, int(extra%8))
		gb, tb := setProfiles(b, 0)
		var q Profile
		var sc Scratch
		for _, m := range keyedMeasures {
			pa, pb := ga, gb
			if m.tokens {
				pa, pb = ta, tb
			}
			checkKeyReject(t, m.name+"/sets", m.ps, m.tokens, m.dice, pa, pb, floor)
			built := NewProfile(m.ps, string(b))
			QueryInto(m.ps, string(a), &q, &sc)
			checkKeyReject(t, m.name+"/query", m.ps, m.tokens, m.dice, &q, built, floor)
			checkKeyReject(t, m.name, m.ps, m.tokens, m.dice, NewProfile(m.ps, string(a)), built, floor)
		}
	})
}

// TestKeyOfEmptyRejectsNothing: the zero Key — a tombstone's, an empty
// value's — is never rejected against any key at any floor, so empty sets
// keep setSim's 1 and 0.
func TestKeyOfEmptyRejectsNothing(t *testing.T) {
	var zero Key
	for _, m := range keyedMeasures {
		for _, v := range append(scratchValues(), profileEdgeCases...) {
			k := m.ps.Key(NewProfile(m.ps, v))
			for _, floor := range floors {
				if keyRejects(&zero, &k, m.dice, floor) || keyRejects(&k, &zero, m.dice, floor) {
					t.Fatalf("%s: the zero key rejected against %q at floor %v", m.name, v, floor)
				}
			}
		}
		if k := m.ps.Key(NewProfile(m.ps, "")); k != zero {
			t.Errorf("%s: the empty value's key is %+v, want the zero key", m.name, k)
		}
	}
}
