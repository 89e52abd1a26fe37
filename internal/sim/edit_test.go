package sim

import (
	"math"
	"testing"
	"testing/quick"
)

// editDistance is the Levenshtein distance between the raw runes of a and b.
func editDistance(a, b string) int { return editDistanceRunes([]rune(a), []rune(b)) }

func TestEditDistance(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"abc", "abc", 0},
		{"book", "back", 2},
	}
	for _, tc := range tests {
		if got := editDistance(tc.a, tc.b); got != tc.want {
			t.Errorf("editDistance(%q,%q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestEditDistanceMetricProperties(t *testing.T) {
	symmetry := func(a, b string) bool { return editDistance(a, b) == editDistance(b, a) }
	if err := quick.Check(symmetry, &quick.Config{MaxCount: 150}); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	identity := func(a string) bool { return editDistance(a, a) == 0 }
	if err := quick.Check(identity, nil); err != nil {
		t.Errorf("identity: %v", err)
	}
	triangle := func(a, b, c string) bool {
		// Keep inputs short so the O(n^2) DP stays fast under quick.
		if len(a) > 40 || len(b) > 40 || len(c) > 40 {
			return true
		}
		return editDistance(a, c) <= editDistance(a, b)+editDistance(b, c)
	}
	if err := quick.Check(triangle, &quick.Config{MaxCount: 100}); err != nil {
		t.Errorf("triangle inequality: %v", err)
	}
}

func TestLevenshteinNormalized(t *testing.T) {
	// normalize("Kitten") = "kitten" vs "sitting": dist 3, max len 7.
	want := 1 - 3.0/7.0
	if got := Levenshtein("Kitten", "sitting"); math.Abs(got-want) > 1e-12 {
		t.Errorf("Levenshtein = %v, want %v", got, want)
	}
	if Levenshtein("", "") != 1 {
		t.Error("both empty should be 1")
	}
	if Levenshtein("abc", "") != 0 {
		t.Error("one empty should be 0")
	}
}

func TestJaroKnownValues(t *testing.T) {
	// Classic reference values (normalization lowercases only).
	tests := []struct {
		a, b string
		want float64
	}{
		{"MARTHA", "MARHTA", 0.944444},
		{"DIXON", "DICKSONX", 0.766667},
		{"JELLYFISH", "SMELLYFISH", 0.896296},
	}
	for _, tc := range tests {
		if got := Jaro(tc.a, tc.b); math.Abs(got-tc.want) > 1e-4 {
			t.Errorf("Jaro(%q,%q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
	if Jaro("abc", "xyz") != 0 {
		t.Error("no matches should be 0")
	}
}

func TestJaroWinklerKnownValues(t *testing.T) {
	// MARTHA/MARHTA share prefix "mar" (3): 0.944444 + 3*0.1*(1-0.944444)
	want := 0.944444 + 0.3*(1-0.944444)
	if got := JaroWinkler("MARTHA", "MARHTA"); math.Abs(got-want) > 1e-4 {
		t.Errorf("JaroWinkler = %v, want %v", got, want)
	}
	f := func(a, b string) bool { return JaroWinkler(a, b) >= Jaro(a, b)-1e-12 }
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("JaroWinkler must dominate Jaro: %v", err)
	}
}

func TestMongeElkan(t *testing.T) {
	// Token reordering should barely hurt Monge-Elkan.
	s := MongeElkanJaroWinkler("Erhard Rahm", "Rahm Erhard")
	if s < 0.95 {
		t.Errorf("reordered name = %v, want >= 0.95", s)
	}
	if MongeElkan("", "", Equal) != 1 {
		t.Error("both empty should be 1")
	}
	if MongeElkan("a", "", Equal) != 0 {
		t.Error("one empty should be 0")
	}
	// Asymmetry: every token of "a" appears in "a b", but not vice versa.
	fwd := MongeElkan("alpha", "alpha beta", Equal)
	rev := MongeElkan("alpha beta", "alpha", Equal)
	if fwd != 1 || rev != 0.5 {
		t.Errorf("MongeElkan directions = %v, %v; want 1, 0.5", fwd, rev)
	}
	if got := symMongeElkanTokens(Tokens("alpha"), Tokens("alpha beta"), Equal); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("symmetric Monge-Elkan = %v, want 0.75", got)
	}
}
