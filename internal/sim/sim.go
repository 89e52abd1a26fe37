// Package sim provides the string-similarity library used by MOMA's
// matchers. The paper's generic attribute matcher is "provided with ... a
// similarity function to be evaluated (e.g. n-gram, TF/IDF or affix)"
// (§2.2); this package implements those plus the standard measures found in
// record-linkage toolkits: Levenshtein, Jaro, Jaro-Winkler, Monge-Elkan,
// token Jaccard, Soundex, year proximity and an initials-aware person-name
// measure.
//
// Every measure is normalized to [0,1] where 1 means identical. Measures are
// exposed as Func values and registered by name in a Registry so matcher
// configurations (and the script language) can refer to them textually,
// e.g. attrMatch(..., Trigram, 0.5, ...).
//
// A measure is one ProfiledSim value (profile.go): ProfileInto hoists
// normalization, tokenization and n-gram construction out of the per-pair
// hot path — once per attribute value — and Compare scores two profiles.
// The built-in Funcs are that same code applied to two strings, so there is
// one implementation per measure; ProfiledOf maps any Func back to a
// ProfiledSim, which is what the matchers and the live resolver score
// through. Only TokenJaccard and TokenDice keep a string body of their own:
// their profiles intern into the Terms dictionary, which a string call must
// not grow.
package sim

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Func computes a normalized similarity in [0,1] between two strings.
type Func func(a, b string) float64

// Registry maps similarity-function names (case-insensitive) to
// implementations. The zero value is unusable; use NewRegistry.
type Registry struct {
	funcs map[string]Func
	names []string
}

// NewRegistry returns a registry pre-populated with all built-in measures.
func NewRegistry() *Registry {
	r := &Registry{funcs: make(map[string]Func)}
	builtin := []struct {
		name string
		fn   Func
	}{
		{"Equal", Equal},
		{"EqualFold", EqualFold},
		{"Trigram", Trigram},
		{"Bigram", Bigram},
		{"NGramJaccard", TrigramJaccard},
		{"Levenshtein", Levenshtein},
		{"Jaro", Jaro},
		{"JaroWinkler", JaroWinkler},
		{"Affix", Affix},
		{"Prefix", Prefix},
		{"Suffix", Suffix},
		{"TokenJaccard", TokenJaccard},
		{"TokenDice", TokenDice},
		{"MongeElkan", MongeElkanJaroWinkler},
		{"Soundex", SoundexSim},
		{"Year", YearSim},
		{"YearExact", YearExact},
		{"PersonName", PersonName},
	}
	for _, b := range builtin {
		r.MustRegister(b.name, b.fn)
	}
	return r
}

// Register adds a named similarity function. Names are case-insensitive;
// duplicates are rejected.
func (r *Registry) Register(name string, fn Func) error {
	if name == "" || fn == nil {
		return fmt.Errorf("sim: Register needs a name and a function")
	}
	key := strings.ToLower(name)
	if _, dup := r.funcs[key]; dup {
		return fmt.Errorf("sim: duplicate similarity function %q", name)
	}
	r.funcs[key] = fn
	r.names = append(r.names, name)
	return nil
}

// MustRegister is Register that panics on error, for static tables.
func (r *Registry) MustRegister(name string, fn Func) {
	if err := r.Register(name, fn); err != nil {
		panic(err)
	}
}

// Lookup returns the function registered under name (case-insensitive).
func (r *Registry) Lookup(name string) (Func, bool) {
	fn, ok := r.funcs[strings.ToLower(name)]
	return fn, ok
}

// Names returns the registered names in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.names))
	copy(out, r.names)
	return out
}

// Equal is exact string equality.
func Equal(a, b string) float64 { return compare(equal, a, b) }

// EqualFold is case-insensitive equality after whitespace normalization.
func EqualFold(a, b string) float64 { return compare(equalFold, a, b) }

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

// overlap returns |a ∩ b| for two sorted, deduplicated slices.
func overlap[T cmp.Ordered](a, b []T) int {
	i, j, cnt := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			cnt++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
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
