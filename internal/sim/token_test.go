package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTokenJaccardDice(t *testing.T) {
	a := "a formal perspective on the view"
	b := "a formal perspective"
	// tokens a: 6, b: 3, overlap 3 -> jaccard 3/6, dice 2*3/9.
	if got := TokenJaccard(a, b); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("TokenJaccard = %v, want 0.5", got)
	}
	if got := TokenDice(a, b); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("TokenDice = %v, want 2/3", got)
	}
	if TokenJaccard("", "") != 1 || TokenDice("x", "") != 0 {
		t.Error("empty handling wrong")
	}
}

func TestTokenJaccardDuplicateTokens(t *testing.T) {
	// Sets, not bags: repeated tokens count once.
	if got := TokenJaccard("data data data", "data"); got != 1 {
		t.Errorf("duplicate tokens = %v, want 1", got)
	}
}

func TestYearSim(t *testing.T) {
	tests := []struct {
		a, b string
		want float64
	}{
		{"2001", "2001", 1},
		{"2001", "2002", 0.5},
		{"2002", "2001", 0.5},
		{"2001", "2003", 0},
		{"2001", "", 0},
		{"n/a", "2001", 0},
		{" 1999 ", "1999", 1},
	}
	for _, tc := range tests {
		if got := YearSim(tc.a, tc.b); got != tc.want {
			t.Errorf("YearSim(%q,%q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
	if YearExact("2001", "2001") != 1 || YearExact("2001", "2002") != 0 {
		t.Error("YearExact wrong")
	}
}

func TestNumericProximity(t *testing.T) {
	f := NumericProximity(10)
	if got := f("100", "105"); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("proximity = %v, want 0.5", got)
	}
	if f("100", "100") != 1 {
		t.Error("equal should be 1")
	}
	if f("100", "200") != 0 {
		t.Error("far apart should clamp to 0")
	}
	if f("x", "100") != 0 {
		t.Error("non-numeric should be 0")
	}
	if NumericProximity(0)("1", "1") != 0 {
		t.Error("non-positive scale should be 0")
	}
}

func TestSoundexKnownCodes(t *testing.T) {
	tests := []struct{ in, want string }{
		{"Robert", "R163"},
		{"Rupert", "R163"},
		{"Ashcraft", "A261"},
		{"Ashcroft", "A261"},
		{"Tymczak", "T522"},
		{"Pfister", "P236"},
		{"Honeyman", "H555"},
		{"", ""},
		{"123", ""},
	}
	for _, tc := range tests {
		if got := Soundex(tc.in); got != tc.want {
			t.Errorf("Soundex(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestSoundexSim(t *testing.T) {
	if SoundexSim("Robert", "Rupert") != 1 {
		t.Error("Robert/Rupert should share a Soundex code")
	}
	if SoundexSim("Robert", "Miller") != 0 {
		t.Error("different codes should be 0")
	}
	if SoundexSim("", "Robert") != 0 {
		t.Error("empty side should be 0")
	}
}

func TestPersonNameInitials(t *testing.T) {
	// The Google Scholar case: first names reduced to initials.
	full := PersonName("Andreas Thor", "A. Thor")
	if full < 0.9 {
		t.Errorf("initial match = %v, want >= 0.9", full)
	}
	mismatch := PersonName("Andreas Thor", "B. Thor")
	if mismatch >= full {
		t.Errorf("wrong initial (%v) must score below right initial (%v)", mismatch, full)
	}
	if got := PersonName("Erhard Rahm", "Erhard Rahm"); got != 1 {
		t.Errorf("identical names = %v, want 1", got)
	}
	diff := PersonName("Erhard Rahm", "Andreas Thor")
	if diff > 0.6 {
		t.Errorf("different people = %v, want <= 0.6", diff)
	}
}

func TestPersonNameSurnameOnly(t *testing.T) {
	s := PersonName("Rahm", "Erhard Rahm")
	if s <= 0 || s >= 1 {
		t.Errorf("surname-only = %v, want in (0,1)", s)
	}
	if PersonName("", "") != 1 || PersonName("x", "") != 0 {
		t.Error("empty handling wrong")
	}
}

func TestPersonNameCatalinaCase(t *testing.T) {
	// Table 9's hard case: same co-authors, similar first names, different
	// surnames. The name measure alone must NOT consider them equal.
	s := PersonName("Catalina Fan", "Catalina Wei")
	if s >= 0.9 {
		t.Errorf("Catalina Fan vs Catalina Wei = %v, want < 0.9", s)
	}
	if s == 0 {
		t.Error("shared given name should still give partial credit")
	}
}

func TestGivenTokenSim(t *testing.T) {
	given := func(x, y string) float64 { return givenTokenSim([]rune(x), []rune(y)) }
	if given("a", "andreas") != 0.9 {
		t.Error("initial vs full name should be 0.9")
	}
	if given("b", "andreas") != 0 {
		t.Error("wrong initial should be 0")
	}
	if given("andreas", "andreas") != 1 {
		t.Error("equal should be 1")
	}
}

// FuzzTokenMeasuresMatchReference holds PersonName and Monge-Elkan, which
// walk the tokens of one rune profile, bit for bit to their string-level
// references (Tokens, then the string JaroWinkler per token pair), and
// checks the property the rune reuse rests on: a token of Tokens(s) is its
// own normalization, so the string JaroWinkler of two tokens scores the
// very runes the profile holds.
func FuzzTokenMeasuresMatchReference(f *testing.F) {
	seeds := append(scratchValues(), profileEdgeCases...)
	for i, a := range seeds {
		f.Add(a, seeds[(i*3+1)%len(seeds)])
	}
	f.Add("Erhard Rahm", "E. Rahm")
	f.Add("Catalina Fan", "Catalina Wei")
	f.Add("a b c d", "a bee")
	f.Add("İstanbul ǅemal", "istanbul dzemal")
	f.Fuzz(func(t *testing.T, a, b string) {
		for _, s := range []string{a, b} {
			for _, tok := range Tokens(s) {
				if n := Normalize(tok); n != tok {
					t.Fatalf("token %q of %q normalizes to %q", tok, s, n)
				}
			}
		}
		measures := []struct {
			name string
			ps   ProfiledSim
			ref  func(a, b string) float64
		}{
			{"PersonName", ProfiledOf(PersonName), refPersonName},
			{"MongeElkan", ProfiledOf(MongeElkanJaroWinkler), refMongeElkanJaroWinkler},
		}
		for _, m := range measures {
			got := m.ps.Compare(NewProfile(m.ps, a).Ref(), NewProfile(m.ps, b).Ref(), 0)
			if want := m.ref(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s(%q, %q) = %v, reference %v", m.name, a, b, got, want)
			}
		}
	})
}

func TestPersonNameSymmetric(t *testing.T) {
	f := func(a, b string) bool {
		return math.Abs(PersonName(a, b)-PersonName(b, a)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
