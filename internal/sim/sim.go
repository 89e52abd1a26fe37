// Package sim provides the string-similarity library used by MOMA's
// matchers. The paper's generic attribute matcher is "provided with ... a
// similarity function to be evaluated (e.g. n-gram, TF/IDF or affix)"
// (§2.2); this package implements those plus the standard measures found in
// record-linkage toolkits: Levenshtein, Jaro, Jaro-Winkler, Monge-Elkan,
// token Jaccard, Soundex, year proximity and an initials-aware person-name
// measure.
//
// Every measure is normalized to [0,1] where 1 means identical. Measures are
// exposed as Func values, and one table (builtins) gives each built-in its
// name, so that matcher configurations (and the script language) can refer
// to them textually, e.g. attrMatch(..., Trigram, 0.5, ...) (Lookup).
//
// A measure is one ProfiledSim value (profile.go): ProfileInto hoists
// normalization, tokenization and n-gram construction out of the per-pair
// hot path — once per attribute value — and Compare scores two profiles in
// place.
// The built-in Funcs are that same code applied to two strings, so there is
// one implementation per measure; ProfiledOf maps any Func back to a
// ProfiledSim, which is what the matchers and the live resolver score
// through. Only TokenJaccard and TokenDice keep a string body of their own:
// their profiles intern into the Terms dictionary, which a string call must
// not grow.
package sim

import (
	"cmp"
	"math"
	"slices"
	"strings"
)

// Func computes a normalized similarity in [0,1] between two strings.
type Func func(a, b string) float64

// Lookup returns the built-in similarity function registered under name,
// ignoring case: the names a script (attrMatch(..., Trigram, ...)) or a
// tuning space gives.
func Lookup(name string) (Func, bool) {
	for _, b := range builtins {
		if strings.EqualFold(b.name, name) {
			return b.fn, true
		}
	}
	return nil, false
}

// Equal is exact string equality.
func Equal(a, b string) float64 { return compare(equalProfiled{}, a, b) }

// EqualFold is case-insensitive equality after whitespace normalization.
func EqualFold(a, b string) float64 { return compare(equalFoldProfiled{}, a, b) }

// NormalizeSpace lowercases nothing but collapses runs of whitespace to a
// single space and trims the ends.
func NormalizeSpace(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

// Normalize lowercases, collapses whitespace and strips everything that is
// neither letter, digit nor space. It is the canonical preprocessing for the
// character- and token-based measures.
func Normalize(s string) string {
	return string(appendNormalized(make([]byte, 0, len(s)), s))
}

// Tokens splits s into normalized word tokens.
func Tokens(s string) []string {
	n := Normalize(s)
	if n == "" {
		return nil
	}
	return strings.Split(n, " ")
}

// uniqueSorted sorts and deduplicates in place. It serves every token-set
// representation in the package: strings, hashed grams, interned term IDs.
func uniqueSorted[T cmp.Ordered](xs []T) []T {
	slices.Sort(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || xs[i-1] != x {
			out = append(out, x)
		}
	}
	return out
}

// stopped is what a Compare returns when its floor let it stop before the
// score was known. Every score is at least 0, so a negative result tells the
// caller that work was saved, not merely that the pair scored low.
const stopped = -1.0

// setSim is the Dice (2·|A∩B| / (|A|+|B|)) or Jaccard (|A∩B| / |A∪B|)
// coefficient of two sets given as sorted, deduplicated slices with their
// keys (key.go). A key's cardinality exceeds its slice's length when the set
// has members that can intersect nothing (a query's unknown tokens). Two
// empty sets are identical (1); one empty set never matches (0).
//
// A positive floor bounds the work: need is an overlap no larger than the
// least whose coefficient reaches floor (minOverlap). The callers have
// already rejected, on the keys alone (RowFilter), sets too small to hold
// it and sets whose signatures (both zero: no information) show too many
// elements of one missing from the other; the merge of the rest stops once
// it cannot supply need.
func setSim[T cmp.Ordered](a, b []T, ka, kb *Key, dice bool, floor float64) float64 {
	if ka.card == 0 && kb.card == 0 {
		return 1
	}
	if ka.card == 0 || kb.card == 0 {
		return 0
	}
	total := int(ka.card) + int(kb.card)
	need := 0
	if floor > 0 {
		need = minOverlap(total, dice, floor)
	}
	inter := overlapAtLeast(a, b, need)
	if inter < 0 {
		return stopped
	}
	return setRatio(inter, total, dice)
}

// setRatio is the coefficient of two sets with |A|+|B| = total that share
// inter members. It never decreases as inter grows.
func setRatio(inter, total int, dice bool) float64 {
	if dice {
		return clamp01(2 * float64(inter) / float64(total))
	}
	return clamp01(float64(inter) / float64(total-inter))
}

// minOverlap returns an overlap that every pair of sets with |A|+|B| = total
// and setRatio >= floor reaches. The closed form (overlapCeil) can land one
// above the true minimum — by rounding, or because setRatio itself rounds up
// onto floor (a floor of 2/3 against 1 shared of 3) — so the candidate below
// is tried with setRatio's own expression; landing below the minimum only
// prunes less.
func minOverlap(total int, dice bool, floor float64) int {
	need := overlapCeil(total, dice, floor)
	if need > 0 && setRatio(need-1, total, dice) >= floor {
		need--
	}
	return need
}

// overlapCeil is minOverlap's closed form, the ceiling of the overlap at
// which the coefficient reaches floor, capped at total. The cap is hit only
// by a floor above 1, which setRatio never reaches, so minOverlap keeps it.
func overlapCeil(total int, dice bool, floor float64) int {
	est := floor * float64(total)
	if dice {
		est /= 2
	} else {
		est /= 1 + floor
	}
	if !(est < float64(total)) {
		return total // floor above 1: more than either set can hold
	}
	return int(math.Ceil(est))
}

// overlapAtLeast returns |a ∩ b| for two sorted, deduplicated slices of at
// least need elements each, or -1 as soon as one side has passed over more
// unmatched elements than an overlap of need leaves room for. With need 0 it
// is the plain merge count.
func overlapAtLeast[T cmp.Ordered](a, b []T, need int) int {
	spareA, spareB := len(a)-need, len(b)-need
	i, j, cnt := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			cnt++
			i++
			j++
		case a[i] < b[j]:
			if spareA == 0 {
				return -1
			}
			spareA--
			i++
		default:
			if spareB == 0 {
				return -1
			}
			spareB--
			j++
		}
	}
	return cnt
}

// clamp01 guards against floating-point drift outside [0,1].
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
