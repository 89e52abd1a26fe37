package sim

import (
	"math"
	"testing"
)

// The key test is setSim's size and signature test moved onto two Keys. The
// references below are that test as it read inline in setSim, on the
// profiles' sets, and keyRejects, the same test in closed form over
// two keys; the fuzz targets hold the row filter to both and compareKeyed —
// the key test, then the merge — to Compare alone.

// keyRejects is the closed-form key test: it reports whether the keys show
// that two sets cannot share minOverlap's need at floor. A floor that asks
// for nothing, or an empty set, is never rejected.
func keyRejects(a, b *Key, dice bool, floor float64) bool {
	if !(floor > 0) || a.card == 0 || b.card == 0 {
		return false
	}
	reach := min(int(a.n)-a.sig.lacking(&b.sig), int(b.n)-b.sig.lacking(&a.sig))
	total := int(a.card) + int(b.card)
	// need is overlapCeil or one less: only a reach of exactly one less
	// takes minOverlap's check that tells the two apart.
	if c := overlapCeil(total, dice, floor); reach != c-1 {
		return reach < c
	}
	return reach < minOverlap(total, dice, floor)
}

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
	{"Trigram", ProfiledOf(Trigram).(Keyed), false, true},
	{"NGramJaccard", ProfiledOf(TrigramJaccard).(Keyed), false, false},
	{"TokenDice", tokenProfiled{dice: true}, true, true},
	{"TokenJaccard", tokenProfiled{}, true, false},
}

// checkKeyReject checks one pair at floor and at the pair's own score and its
// two neighbours, where minOverlap's rounding correction decides.
func checkKeyReject(t *testing.T, name string, ps Keyed, tokens, dice bool, a, b *Profile, floor float64) {
	t.Helper()
	ra, rb := a.Ref(), b.Ref()
	exact := ps.Compare(ra, rb, 0)
	ka, kb := a.Key(), b.Key()
	for _, floor := range []float64{floor, exact, math.Nextafter(exact, -1), math.Nextafter(exact, 2)} {
		var want bool
		if tokens {
			want = stopsBeforeMerge(ra.toks(), rb.toks(), &ka.sig, &kb.sig, int(ka.card), int(kb.card), dice, floor)
		} else {
			want = stopsBeforeMerge(ra.grams(), rb.grams(), &ka.sig, &kb.sig, len(ra.grams()), len(rb.grams()), dice, floor)
		}
		rejects := keyRejects(&ka, &kb, dice, floor)
		if rejects != want {
			t.Errorf("%s(%s, %s) floor %v: keys reject %v, setSim's size and signature test %v", name, show(a), show(b), floor, rejects, want)
		}
		untabulated, tabulated := ps.RowFilter(floor), ps.RowFilter(floor)
		tabulated.Cover(int(ka.card + kb.card))
		for _, f := range []RowFilter{untabulated, tabulated} {
			if f.Row(ka); f.Rejects(&kb) != rejects {
				t.Errorf("%s(%s, %s) floor %v: the row filter (table %d) rejects %v, the closed form %v", name, show(a), show(b), floor, len(f.need), !rejects, rejects)
			}
		}
		direct := ps.Compare(ra, rb, floor)
		viaKeys := compareKeyed(ps, ra, rb, floor)
		if math.Float64bits(viaKeys) != math.Float64bits(direct) {
			t.Errorf("%s(%s, %s) floor %v: compareKeyed %v, Compare %v", name, show(a), show(b), floor, viaKeys, direct)
		}
		if rejects && viaKeys != stopped {
			t.Errorf("%s(%s, %s) floor %v: the keys reject but compareKeyed scored %v", name, show(a), show(b), floor, viaKeys)
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
	return gramProfile(g, signatureOf(g)), tokenProfile(ids, extra, signatureOf(ids))
}

// FuzzKeyRejectMatchesCompare: for all four set measures, the key test
// rejects exactly the pairs Compare stops on in its size or signature test,
// with and without a table, and checking keys before the merge changes no
// result bit. The pairs are
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
// value's — is never rejected against any key at any floor, as the row or as
// the candidate, so empty sets keep setSim's 1 and 0.
func TestKeyOfEmptyRejectsNothing(t *testing.T) {
	var zero Key
	for _, m := range keyedMeasures {
		for _, v := range append(scratchValues(), profileEdgeCases...) {
			k := NewProfile(m.ps, v).Key()
			for _, floor := range floors {
				if keyRejects(&zero, &k, m.dice, floor) || keyRejects(&k, &zero, m.dice, floor) {
					t.Fatalf("%s: the zero key rejected against %q at floor %v", m.name, v, floor)
				}
				zf := m.ps.RowFilter(floor)
				zf.Cover(int(k.card))
				kf := zf
				kf.Row(k)
				if !zf.Off() || zf.Rejects(&k) || kf.Rejects(&zero) {
					t.Fatalf("%s: the row filter rejected the zero key against %q at floor %v", m.name, v, floor)
				}
			}
		}
		if k := NewProfile(m.ps, "").Key(); k != zero {
			t.Errorf("%s: the empty value's key is %+v, want the zero key", m.name, k)
		}
	}
}

// FuzzRowFilterMatchesKeyRejects: a row filter decides every pair exactly as
// the closed form does, for arbitrary keys on both sides — zero
// cardinalities, lengths short of the cardinality, signatures of any bits —
// at any floor (≤ 0, inside (0, 1], above 1, not a number), under Dice and
// Jaccard, and for tables that cover the pair's total, stop short of it or
// are absent.
func FuzzRowFilterMatchesKeyRejects(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint16(0), uint16(0), uint64(0), uint64(0), uint64(0), uint64(0), 0.75, true, uint8(16))
	f.Add(uint16(3), uint16(3), uint16(0), uint16(0), uint64(7), uint64(0), uint64(0), uint64(0), 0.5, false, uint8(8))
	f.Add(uint16(10), uint16(12), uint16(9), uint16(9), uint64(0x3ff), uint64(1), uint64(0x1ff), uint64(1), 0.8, true, uint8(40))
	f.Add(uint16(20), uint16(20), uint16(21), uint16(21), ^uint64(0), uint64(0), ^uint64(0), uint64(0), 2.0/3, false, uint8(3))
	f.Add(uint16(5), uint16(5), uint16(5), uint16(5), uint64(31), uint64(0), uint64(31), uint64(0), 1.0, true, uint8(200))
	f.Add(uint16(6), uint16(6), uint16(6), uint16(6), uint64(63), uint64(0), uint64(63), uint64(0), 1.5, false, uint8(0))
	f.Add(uint16(4), uint16(4), uint16(2), uint16(2), uint64(15), uint64(0), uint64(3), uint64(0), -0.5, true, uint8(9))
	f.Add(uint16(300), uint16(310), uint16(290), uint16(300), ^uint64(0), ^uint64(0), ^uint64(0), uint64(1)<<63, 0.9, true, uint8(50))
	f.Fuzz(func(t *testing.T, na, ca, nb, cb uint16, sa0, sa1, sb0, sb1 uint64, floor float64, dice bool, maxTotal uint8) {
		a := Key{n: uint32(min(na, ca)), card: uint32(ca), sig: signature{sa0, sa1}}
		b := Key{n: uint32(min(nb, cb)), card: uint32(cb), sig: signature{sb0, sb1}}
		want := keyRejects(&a, &b, dice, floor)
		untabulated := RowFilter{dice: dice, floor: floor}
		short, whole := untabulated, untabulated
		short.Cover(int(maxTotal))
		whole.Cover(int(ca) + int(cb))
		for _, f := range []RowFilter{untabulated, short, whole} {
			f.Row(a)
			if got := f.Rejects(&b); got != want || got && f.Off() {
				t.Fatalf("keys %+v, %+v floor %v dice %v table %d: the row filter (off %v) rejects %v, the closed form %v", a, b, floor, dice, len(f.need), f.Off(), got, want)
			}
		}
	})
}
