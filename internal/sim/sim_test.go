package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// allFuncs lists every built-in measure for property tests.
func allFuncs() map[string]Func {
	out := make(map[string]Func)
	for _, b := range builtins {
		out[b.name] = b.fn
	}
	return out
}

func TestRegistryLookup(t *testing.T) {
	if _, ok := Lookup("Trigram"); !ok {
		t.Error("Trigram should be registered")
	}
	if _, ok := Lookup("trigram"); !ok {
		t.Error("lookup should be case-insensitive")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("unknown name should miss")
	}
}

// TestBuiltinNamesUnique pins that no two built-ins share a name under
// Lookup's case folding, which would hide the later one.
func TestBuiltinNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range builtins {
		key := strings.ToLower(b.name)
		if seen[key] {
			t.Errorf("duplicate built-in name %q", b.name)
		}
		seen[key] = true
		if fn, ok := Lookup(b.name); !ok || ProfiledOf(fn) != b.ps || Name(fn) != b.name {
			t.Errorf("%s does not look up to its own measure and name", b.name)
		}
	}
}

// TestNameOfCustomFunc: a Func that is no built-in renders by its code
// pointer, so closures of one code render alike and other code differently.
func TestNameOfCustomFunc(t *testing.T) {
	var near []string
	for _, d := range []float64{1, 2} {
		near = append(near, Name(NumericProximity(d)))
	}
	custom := Name(func(a, b string) float64 { return 0 })
	if near[0] != near[1] || !strings.HasPrefix(custom, "func@0x") || custom == near[0] {
		t.Errorf("Name: closures %q, custom %q", near, custom)
	}
	if Name(nil) != "func@0x0" {
		t.Errorf("Name(nil) = %q", Name(nil))
	}
}

func TestNormalize(t *testing.T) {
	tests := []struct{ in, want string }{
		{"Generic Schema Matching with Cupid", "generic schema matching with cupid"},
		{"  A  Formal   Perspective ", "a formal perspective"},
		{"VLDB-2002", "vldb 2002"},
		{"CIDR'07!", "cidr07"},
		{"Müller, J.", "müller j"},
		{"", ""},
		{"---", ""},
	}
	for _, tc := range tests {
		if got := Normalize(tc.in); got != tc.want {
			t.Errorf("Normalize(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestTokens(t *testing.T) {
	got := Tokens("A Formal Perspective on the View!")
	want := []string{"a", "formal", "perspective", "on", "the", "view"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokens = %v, want %v", got, want)
	}
	if Tokens("") != nil {
		t.Error("Tokens of empty should be nil")
	}
}

func TestRangeInvariant(t *testing.T) {
	inputs := []string{"", "a", "ab", "abc", "hello world", "VLDB 2002",
		"28th International Conference on Very Large Data Bases",
		"éàü", "x y z", "1234", "Catalina Fan", "C. Fan"}
	for name, fn := range allFuncs() {
		for _, a := range inputs {
			for _, b := range inputs {
				s := fn(a, b)
				if s < 0 || s > 1 || math.IsNaN(s) {
					t.Errorf("%s(%q, %q) = %v out of [0,1]", name, a, b, s)
				}
			}
		}
	}
}

func TestIdentityInvariant(t *testing.T) {
	// Every measure must score a non-empty normalizable string 1 against
	// itself.
	inputs := []string{"hello", "Data Integration", "Catalina Fan", "1999"}
	for name, fn := range allFuncs() {
		if name == "Year" || name == "YearExact" {
			continue // only defined on numeric input; tested separately
		}
		for _, a := range inputs {
			if name == "Soundex" && a == "1999" {
				continue // Soundex is only defined on alphabetic tokens
			}
			if s := fn(a, a); s != 1 {
				t.Errorf("%s(%q, %q) = %v, want 1", name, a, a, s)
			}
		}
	}
}

func TestSymmetryProperty(t *testing.T) {
	symmetric := []string{"Equal", "EqualFold", "Trigram", "Bigram",
		"NGramJaccard", "Levenshtein", "Jaro", "JaroWinkler", "Affix",
		"Prefix", "Suffix", "TokenJaccard", "TokenDice", "MongeElkan",
		"Soundex", "Year", "YearExact"}
	f := func(a, b string) bool {
		for _, name := range symmetric {
			fn, _ := Lookup(name)
			if math.Abs(fn(a, b)-fn(b, a)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRangeProperty(t *testing.T) {
	fns := allFuncs()
	f := func(a, b string) bool {
		for _, fn := range fns {
			s := fn(a, b)
			if s < 0 || s > 1 || math.IsNaN(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEqualFold(t *testing.T) {
	if EqualFold("VLDB  2002", "vldb 2002") != 1 {
		t.Error("EqualFold should normalize whitespace and case")
	}
	if EqualFold("VLDB", "SIGMOD") != 0 {
		t.Error("different strings should be 0")
	}
}
