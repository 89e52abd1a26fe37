package sim

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// runeDistance is the kernel's Levenshtein distance between the raw runes
// of a and b.
func runeDistance(a, b string) int { return editDistance([]rune(a), []rune(b)) }

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
		if got := runeDistance(tc.a, tc.b); got != tc.want {
			t.Errorf("editDistance(%q,%q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		if got := editDistanceDP([]rune(tc.a), []rune(tc.b)); got != tc.want {
			t.Errorf("editDistanceDP(%q,%q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestEditDistanceBlockLengths holds the bit-vector kernel to the dynamic
// program at the pattern lengths around its word boundaries, where the
// horizontal delta passes from one block to the next and the last row sits
// in a partial or a full word: against itself, an edited copy, a shifted
// copy, a text of another length, the empty text, and with runes outside
// ASCII in both.
func TestEditDistanceBlockLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	gen := func(n int, alphabet []rune) []rune {
		out := make([]rune, n)
		for i := range out {
			out[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return out
	}
	edit := func(rs []rune, alphabet []rune) []rune {
		out := slices.Clone(rs)
		for k := 0; k < 1+len(out)/8; k++ {
			switch i := rng.Intn(len(out) + 1); {
			case rng.Intn(3) == 0 || i == len(out):
				out = slices.Insert(out, i, alphabet[rng.Intn(len(alphabet))])
			case rng.Intn(2) == 0:
				out = slices.Delete(out, i, i+1)
			default:
				out[i] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		return out
	}
	alphabets := map[string][]rune{
		"ascii":     []rune("abcde fgh"),
		"binary":    []rune("ab"),
		"non-ascii": []rune("aäöü界 ßé"),
	}
	for name, alphabet := range alphabets {
		for _, m := range []int{0, 1, 63, 64, 65, 127, 128, 129, 300} {
			p := gen(m, alphabet)
			texts := [][]rune{p, edit(p, alphabet), append([]rune{'x'}, p...), gen(m+17, alphabet), gen(m/2, alphabet), nil}
			for _, text := range texts {
				want := editDistanceDP(p, text)
				if got := editDistance(p, text); got != want {
					t.Errorf("%s m=%d n=%d: editDistance = %d, DP %d", name, m, len(text), got, want)
				}
				if got := editDistance(text, p); got != want {
					t.Errorf("%s m=%d n=%d: editDistance swapped = %d, DP %d", name, m, len(text), got, want)
				}
			}
		}
	}
}

// FuzzLevenshteinMatchesDP holds the bit-vector kernel to the dynamic
// program on arbitrary strings: the distance of the raw runes, and the
// measure's Compare on profiles exactly at floor 0 and below a floor a
// quarter above the score.
func FuzzLevenshteinMatchesDP(f *testing.F) {
	long := strings.Repeat("mapping based object matching ", 10)
	f.Add("kitten", "sitting")
	f.Add("", "abc")
	f.Add("Ångström ünïcode Σ", "angstrom unicode s")
	f.Add(long, long[3:]+"x")
	f.Add(long[:64], long[:65])
	f.Add(long[:128], strings.ToUpper(long[:129]))
	f.Add("界界界 a", "a 界界")
	f.Fuzz(func(t *testing.T, a, b string) {
		if got, want := runeDistance(a, b), editDistanceDP([]rune(a), []rune(b)); got != want {
			t.Fatalf("editDistance(%q, %q) = %d, DP %d", a, b, got, want)
		}
		pa, pb := NewProfile(ProfiledOf(Levenshtein), a).Ref(), NewProfile(ProfiledOf(Levenshtein), b).Ref()
		want := 1.0
		if maxLen := max(len(pa.runes()), len(pb.runes())); maxLen > 0 {
			want = editSim(editDistanceDP(pa.runes(), pb.runes()), maxLen)
		}
		if got := ProfiledOf(Levenshtein).Compare(pa, pb, 0); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Levenshtein(%q, %q) = %v, DP %v", a, b, got, want)
		}
		if floor := want + 0.25; ProfiledOf(Levenshtein).Compare(pa, pb, floor) >= floor {
			t.Fatalf("Levenshtein(%q, %q) at floor %v reaches it; DP score %v", a, b, floor, want)
		}
	})
}

func TestEditDistanceMetricProperties(t *testing.T) {
	symmetry := func(a, b string) bool { return runeDistance(a, b) == runeDistance(b, a) }
	if err := quick.Check(symmetry, &quick.Config{MaxCount: 150}); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	identity := func(a string) bool { return runeDistance(a, a) == 0 }
	if err := quick.Check(identity, nil); err != nil {
		t.Errorf("identity: %v", err)
	}
	triangle := func(a, b, c string) bool {
		if len(a) > 40 || len(b) > 40 || len(c) > 40 {
			return true
		}
		return runeDistance(a, c) <= runeDistance(a, b)+runeDistance(b, c)
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

// TestMongeElkan pins the Monge-Elkan combinator on its string reference
// (one direction, any inner measure) and the registered symmetric measure.
func TestMongeElkan(t *testing.T) {
	// Token reordering should barely hurt Monge-Elkan.
	s := MongeElkanJaroWinkler("Erhard Rahm", "Rahm Erhard")
	if s < 0.95 {
		t.Errorf("reordered name = %v, want >= 0.95", s)
	}
	if refMongeElkan("", "", Equal) != 1 || MongeElkanJaroWinkler("", "") != 1 {
		t.Error("both empty should be 1")
	}
	if refMongeElkan("a", "", Equal) != 0 || MongeElkanJaroWinkler("a", "") != 0 {
		t.Error("one empty should be 0")
	}
	// Asymmetry: every token of "a" appears in "a b", but not vice versa.
	fwd := refMongeElkan("alpha", "alpha beta", Equal)
	rev := refMongeElkan("alpha beta", "alpha", Equal)
	if fwd != 1 || rev != 0.5 {
		t.Errorf("MongeElkan directions = %v, %v; want 1, 0.5", fwd, rev)
	}
	if got := MongeElkanJaroWinkler("alpha", "alpha beta"); got != refMongeElkanJaroWinkler("alpha", "alpha beta") {
		t.Errorf("symmetric Monge-Elkan = %v, reference %v", got, refMongeElkanJaroWinkler("alpha", "alpha beta"))
	}
}
