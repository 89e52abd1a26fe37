package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNGramsPaddingAndDedup(t *testing.T) {
	g := ngrams("aa", 2)
	// padded: \x01 a a \x02 -> grams: \x01a, aa, a\x02 (deduplicated)
	if len(g) != 3 {
		t.Errorf("ngrams(aa,2) = %v, want 3 distinct grams", g)
	}
	if ngrams("", 3) != nil {
		t.Error("empty string should have no grams")
	}
	if ngrams("x", 0) != nil {
		t.Error("n<1 should have no grams")
	}
}

func TestTrigramExactValues(t *testing.T) {
	// "abc" padded: ^^abc$$ -> grams ^^a ^ab abc bc$ c$$ (5 distinct).
	// "abd" -> ^^a ^ab abd bd$ d$$. Overlap = {^^a, ^ab} = 2.
	// Dice = 2*2/(5+5) = 0.4.
	if got := Trigram("abc", "abd"); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("Trigram(abc,abd) = %v, want 0.4", got)
	}
	if Trigram("abc", "abc") != 1 {
		t.Error("identical strings should be 1")
	}
	if Trigram("abc", "xyz") != 0 {
		t.Error("disjoint strings should be 0")
	}
	if Trigram("", "") != 1 {
		t.Error("both empty should be 1")
	}
	if Trigram("abc", "") != 0 {
		t.Error("one empty should be 0")
	}
}

func TestTrigramCaseInsensitive(t *testing.T) {
	if Trigram("Data Integration", "data integration") != 1 {
		t.Error("Trigram should normalize case")
	}
}

func TestTrigramTitleVariants(t *testing.T) {
	// A realistic dirty-title scenario: small typo keeps similarity high,
	// unrelated titles stay low.
	typo := Trigram("Generic Schema Matching with Cupid", "Generic Schema Matchng with Cupid")
	if typo < 0.8 {
		t.Errorf("typo similarity = %v, want >= 0.8", typo)
	}
	other := Trigram("Generic Schema Matching with Cupid", "A formal perspective on the view selection problem")
	if other > 0.3 {
		t.Errorf("unrelated similarity = %v, want <= 0.3", other)
	}
	if typo <= other {
		t.Error("typo variant must outscore unrelated title")
	}
}

func TestNGramJaccardLeqDice(t *testing.T) {
	f := func(a, b string) bool {
		j := TrigramJaccard(a, b)
		d := Trigram(a, b)
		// Jaccard <= Dice always (j = d/(2-d)).
		return j <= d+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAffix(t *testing.T) {
	if got := Affix("SIGMOD Rec", "SIGMOD Record"); got != 1 {
		// lcp of "sigmod rec" (10) vs min length 10 -> 1.0
		t.Errorf("Affix(SIGMOD Rec, SIGMOD Record) = %v, want 1", got)
	}
	if got := Affix("abcx", "abcy"); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("Affix(abcx,abcy) = %v, want 0.75", got)
	}
	if got := Affix("xabc", "yabc"); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("Affix suffix case = %v, want 0.75", got)
	}
	if Affix("", "") != 1 || Affix("a", "") != 0 {
		t.Error("Affix empty handling wrong")
	}
}

func TestPrefixSuffix(t *testing.T) {
	if got := Prefix("abcd", "abxy"); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Prefix = %v, want 0.5", got)
	}
	if got := Suffix("wxcd", "yzcd"); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Suffix = %v, want 0.5", got)
	}
	if Prefix("", "") != 1 || Suffix("", "x") != 0 {
		t.Error("empty handling wrong")
	}
	f := func(a, b string) bool {
		af, p, s := Affix(a, b), Prefix(a, b), Suffix(a, b)
		return af >= p-1e-12 && af >= s-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
