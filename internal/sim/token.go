package sim

import (
	"math"
	"slices"
	"strconv"
	"strings"
)

// Token-level and domain-specific measures.

// TokenJaccard is |A∩B| / |A∪B| over the normalized token sets. Unlike the
// other built-ins it is not Compare over two profiles: the token-set profile
// interns into Terms, and a string call must not grow the dictionary.
func TokenJaccard(a, b string) float64 { return tokenSetSim(a, b, false) }

// TokenDice is 2·|A∩B| / (|A|+|B|) over the normalized token sets.
func TokenDice(a, b string) float64 { return tokenSetSim(a, b, true) }

func tokenSetSim(a, b string, dice bool) float64 {
	ta := uniqueSorted(Tokens(a))
	tb := uniqueSorted(Tokens(b))
	// Floor 0: nothing to reject, so the keys carry only the sizes.
	ka := Key{n: uint32(len(ta)), card: uint32(len(ta))}
	kb := Key{n: uint32(len(tb)), card: uint32(len(tb))}
	return setSim(ta, tb, &ka, &kb, dice, 0)
}

// YearExact returns 1 when both strings parse as the same integer year.
// Either side failing to parse yields 0 (the paper notes Google Scholar's
// optional year attribute). A year is an optionally signed decimal numeral
// of at most 18 digits, surrounding whitespace ignored; a longer numeral
// does not parse, so YearExact of a 19-digit numeral with itself is 0.
func YearExact(a, b string) float64 { return compare(yearProfiled{exact: true}, a, b) }

// YearSim returns 1 for equal years, 0.5 for years differing by one (the
// paper's domain constraint "must not differ by more than one year"), and 0
// otherwise or when either side does not parse (see YearExact).
func YearSim(a, b string) float64 { return compare(yearProfiled{}, a, b) }

// NumericProximity returns a similarity for numeric strings that decays
// linearly with |a-b| / scale, clamped to [0,1]. Non-numeric input gives 0.
func NumericProximity(scale float64) Func {
	return func(a, b string) float64 {
		if scale <= 0 {
			return 0
		}
		fa, errA := strconv.ParseFloat(strings.TrimSpace(a), 64)
		fb, errB := strconv.ParseFloat(strings.TrimSpace(b), 64)
		if errA != nil || errB != nil {
			return 0
		}
		return clamp01(1 - math.Abs(fa-fb)/scale)
	}
}

// Soundex computes the classic 4-character Soundex code of the first token
// of the normalized string. Empty input yields "".
func Soundex(s string) string {
	toks := Tokens(s)
	if len(toks) == 0 {
		return ""
	}
	w := toks[0]
	code := func(r rune) byte {
		switch r {
		case 'b', 'f', 'p', 'v':
			return '1'
		case 'c', 'g', 'j', 'k', 'q', 's', 'x', 'z':
			return '2'
		case 'd', 't':
			return '3'
		case 'l':
			return '4'
		case 'm', 'n':
			return '5'
		case 'r':
			return '6'
		default:
			return 0 // vowels, h, w, y and non-letters
		}
	}
	runes := []rune(w)
	first := runes[0]
	if first < 'a' || first > 'z' {
		return ""
	}
	out := []byte{byte(first - 'a' + 'A')}
	prev := code(first)
	for _, r := range runes[1:] {
		c := code(r)
		if c != 0 && c != prev {
			out = append(out, c)
			if len(out) == 4 {
				break
			}
		}
		if r != 'h' && r != 'w' {
			prev = c
		}
	}
	for len(out) < 4 {
		out = append(out, '0')
	}
	return string(out)
}

// SoundexSim returns 1 when the Soundex codes of the first tokens agree and
// both are non-empty, else 0.
func SoundexSim(a, b string) float64 { return compare(soundexProfiled{}, a, b) }

// PersonName compares person names with awareness of initial-only given
// names, the Google Scholar convention the paper calls out ("GS reduces
// authors' first names to their first letter"). The last tokens (surnames)
// are compared with Jaro-Winkler; the remaining given-name tokens are
// aligned pairwise, where an initial matches any name starting with it.
func PersonName(a, b string) float64 { return compare(personNameProfiled{}, a, b) }

// personNameRunes is PersonName over two normalized values: the surnames
// are their last tokens, the given names the tokens before, aligned from
// the first.
func personNameRunes(a, b []rune) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	givenA, lastA := cutSurname(a)
	givenB, lastB := cutSurname(b)
	surname := jaroWinklerRunes(lastA, lastB)
	if len(givenA) == 0 && len(givenB) == 0 {
		return surname
	}
	if len(givenA) == 0 || len(givenB) == 0 {
		// One side has only a surname: surname similarity dominates but is
		// discounted for the missing evidence.
		return clamp01(0.75 * surname)
	}
	var given float64
	n := 0
	for ; len(givenA) > 0 && len(givenB) > 0; n++ {
		var x, y []rune
		x, givenA = nextToken(givenA)
		y, givenB = nextToken(givenB)
		given += givenTokenSim(x, y)
	}
	given /= float64(n)
	return clamp01(0.6*surname + 0.4*given)
}

// cutSurname splits a normalized name at its last space: the given-name
// tokens (none for a single token) and the surname.
func cutSurname(rs []rune) (given, surname []rune) {
	for i := len(rs) - 1; i >= 0; i-- {
		if rs[i] == ' ' {
			return rs[:i], rs[i+1:]
		}
	}
	return nil, rs
}

// givenTokenSim compares two given-name tokens, treating single letters as
// initials that match any name sharing that first letter.
func givenTokenSim(x, y []rune) float64 {
	if slices.Equal(x, y) {
		return 1
	}
	if len(x) == 0 || len(y) == 0 {
		return 0
	}
	if len(x) == 1 || len(y) == 1 {
		if x[0] == y[0] {
			return 0.9 // initial matches, slightly below full-name evidence
		}
		return 0
	}
	return jaroWinklerRunes(x, y)
}
