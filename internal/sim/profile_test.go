package sim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// profileEdgeCases are the inputs most likely to expose divergence between
// the string-based measures and their profiled twins: empty strings, pure
// whitespace, punctuation-only values, multi-byte Unicode (exercising the
// []rune padding path in ngrams), strings shorter than the gram size n,
// initials, and numeric/year strings.
var profileEdgeCases = []string{
	"",
	" ",
	" \t\n ",
	"a",
	"ab",
	"abc",
	"!!!",
	"--",
	"界",
	"日本 語",
	"héllo wörld",
	"ÅNGSTRÖM unit",
	"ﬁne",
	"A. Thor",
	"Andreas Thor",
	"thor a",
	"E. Rahm",
	"SIGMOD Rec.",
	"SIGMOD Record",
	"the the the",
	"C++ & Java!",
	"2003",
	" 2004 ",
	"2004",
	"7.5",
	"notayear",
	"A formal perspective on the view selection problem",
	"A formal perspective on the view selection problem revisited",
}

// TestProfiledMatchesFunc asserts that every registered built-in resolves to
// a built-in measure (not the opaque-Func adapter) and that profiles built
// once per value, as a matcher builds them, score bit-identically to the
// string function on the full cross product of the edge cases. For the
// token-set measures the string function is an implementation of its own;
// for the rest this pins fresh profiles against the string forms' pooled,
// reused ones.
func TestProfiledMatchesFunc(t *testing.T) {
	for _, b := range builtins {
		name, fn := b.name, b.fn
		ps := ProfiledOf(fn)
		if _, adapter := ps.(funcProfiled); adapter {
			t.Errorf("%s: no built-in measure registered", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			// Profile each value once, as a matcher would.
			profiles := make([]*Profile, len(profileEdgeCases))
			for i, s := range profileEdgeCases {
				profiles[i] = NewProfile(ps, s)
			}
			for i, a := range profileEdgeCases {
				for j, b := range profileEdgeCases {
					want := fn(a, b)
					got := ps.Compare(profiles[i].Ref(), profiles[j].Ref(), 0)
					if got != want {
						t.Errorf("%s(%q, %q): profiled %v, string %v", name, a, b, got, want)
					}
				}
			}
		})
	}
}

// TestProfiledOfUnknownFunc asserts ProfiledOf is total: a Func it does not
// know becomes a measure that scores exactly as the Func does, and only nil
// has no measure.
func TestProfiledOfUnknownFunc(t *testing.T) {
	custom := func(a, b string) float64 { return float64(len(a)) / float64(len(a)+len(b)+1) }
	for _, fn := range []Func{custom, NumericProximity(10), NewTFIDF().Cosine} {
		ps := ProfiledOf(fn)
		if ps == nil {
			t.Fatal("ProfiledOf returned no measure for a non-nil Func")
		}
		for _, a := range profileEdgeCases {
			for _, b := range profileEdgeCases {
				if got, want := ps.Compare(NewProfile(ps, a).Ref(), NewProfile(ps, b).Ref(), 0), fn(a, b); got != want {
					t.Fatalf("adapter(%q, %q) = %v, Func = %v", a, b, got, want)
				}
			}
		}
	}
	if ProfiledOf(nil) != nil {
		t.Error("ProfiledOf(nil) must be nil")
	}
}

// TestTFIDFAddInvalidatesCache asserts that adding documents after scoring
// drops cached vectors built under stale corpus statistics.
func TestTFIDFAddInvalidatesCache(t *testing.T) {
	corpus := NewTFIDF()
	corpus.Add("view selection")
	corpus.Add("view maintenance")
	before := corpus.Cosine("view selection", "view maintenance")
	// Dilute "view": its idf drops, so the cosine must change.
	for i := 0; i < 20; i++ {
		corpus.Add(fmt.Sprintf("view paper %d", i))
	}
	after := corpus.Cosine("view selection", "view maintenance")
	if before == after {
		t.Errorf("cosine unchanged (%v) after corpus grew; stale vector cache?", before)
	}
	// And the cached path must agree with a fresh corpus built identically.
	fresh := NewTFIDF()
	fresh.Add("view selection")
	fresh.Add("view maintenance")
	for i := 0; i < 20; i++ {
		fresh.Add(fmt.Sprintf("view paper %d", i))
	}
	if want := fresh.Cosine("view selection", "view maintenance"); after != want {
		t.Errorf("cached cosine %v, fresh corpus %v", after, want)
	}
}

// TestTFIDFMatchesStringReference pins the interned, ID-keyed TF-IDF path
// bit-identically (eps 0) against the dictionary-free string reference, for
// both the cached Cosine entry point and the profiled pair path — including
// after removals reshaped the corpus.
func TestTFIDFMatchesStringReference(t *testing.T) {
	corpus := NewTFIDF()
	corpus.AddAll(profileEdgeCases)
	ref := newStringTFIDFReference(profileEdgeCases)
	check := func(label string) {
		t.Helper()
		ps := corpus.Profiled()
		profiles := make([]*Profile, len(profileEdgeCases))
		for i, s := range profileEdgeCases {
			profiles[i] = NewProfile(ps, s)
		}
		for i, a := range profileEdgeCases {
			for j, b := range profileEdgeCases {
				want := ref.cosine(a, b)
				if got := corpus.Cosine(a, b); got != want {
					t.Errorf("%s: Cosine(%q, %q) = %v, string reference %v", label, a, b, got, want)
				}
				if got := ps.Compare(profiles[i].Ref(), profiles[j].Ref(), 0); got != want {
					t.Errorf("%s: profiled(%q, %q) = %v, string reference %v", label, a, b, got, want)
				}
			}
		}
	}
	check("full corpus")
	// Removals shift every idf; the reference and the corpus must keep
	// agreeing on the reshaped statistics.
	for _, doc := range profileEdgeCases[:8] {
		corpus.Remove(doc)
		ref.remove(doc)
	}
	check("after removals")
}

// TestTokenMeasureVectorsMatchStrings asserts the interned token-set
// profiles carry exactly the token sets the string path computes: resolving
// the slot's token IDs back through the dictionary equals uniqueSorted(Tokens(s))
// as a set.
func TestTokenMeasureVectorsMatchStrings(t *testing.T) {
	ps := ProfiledOf(TokenJaccard)
	for _, s := range profileEdgeCases {
		got := map[string]bool{}
		for _, id := range NewProfile(ps, s).Ref().toks() {
			got[Terms.Str(id)] = true
		}
		want := map[string]bool{}
		for _, tok := range uniqueSorted(Tokens(s)) {
			want[tok] = true
		}
		if len(got) != len(want) {
			t.Fatalf("token IDs(%q): %v != %v", s, got, want)
		}
		for tok := range want {
			if !got[tok] {
				t.Fatalf("token IDs(%q) miss %q", s, tok)
			}
		}
	}
}

// TestDictBasics covers the dictionary contract: stable IDs, reverse
// lookup, lookup-only probing, and tokenization equivalence with Tokens.
func TestDictBasics(t *testing.T) {
	d := NewDict()
	if _, ok := d.Lookup("view"); ok {
		t.Fatal("empty dict claims a token")
	}
	id := d.ID("view")
	if again := d.ID("view"); again != id {
		t.Fatalf("re-interning changed the ID: %d != %d", again, id)
	}
	if got, ok := d.Lookup("view"); !ok || got != id {
		t.Fatalf("Lookup = %d/%v, want %d/true", got, ok, id)
	}
	if d.Str(id) != "view" {
		t.Fatalf("Str(%d) = %q", id, d.Str(id))
	}
	if d.Key(id) != dictKey("view") {
		t.Fatal("Key must be the content hash")
	}
	for _, s := range profileEdgeCases {
		toks := Tokens(s)
		ids := d.TokenIDs(s)
		if len(ids) != len(toks) {
			t.Fatalf("TokenIDs(%q): %d ids for %d tokens", s, len(ids), len(toks))
		}
		for i, tok := range toks {
			if d.Str(ids[i]) != tok {
				t.Fatalf("TokenIDs(%q)[%d] = %q, want %q", s, i, d.Str(ids[i]), tok)
			}
		}
		if _, got := d.AppendLookupTokenIDs(s, nil, nil); !reflect.DeepEqual(got, ids) && len(ids) > 0 {
			t.Fatalf("AppendLookupTokenIDs(%q) after interning diverges from TokenIDs", s)
		}
	}
	if d.Len() == 0 {
		t.Fatal("dict is empty after interning the edge cases")
	}
	if _, got := d.AppendLookupTokenIDs("zzz-never-interned-zzz", nil, nil); len(got) != 0 {
		t.Fatalf("AppendLookupTokenIDs of unknown tokens = %v, want none", got)
	}
}

// TestDictConcurrent hammers one dictionary from concurrent interners and
// readers; under -race this proves the sharded locking, and every ID must
// resolve back to its string.
func TestDictConcurrent(t *testing.T) {
	d := NewDict()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tok := fmt.Sprintf("tok%03d", (i*7+w)%200)
				id := d.ID(tok)
				if d.Str(id) != tok {
					t.Errorf("Str(ID(%q)) = %q", tok, d.Str(id))
					return
				}
				if lid, ok := d.Lookup(tok); !ok || lid != id {
					t.Errorf("Lookup(%q) = %d/%v, want %d", tok, lid, ok, id)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if d.Len() != 200 {
		t.Fatalf("dict holds %d terms, want 200", d.Len())
	}
}

// TestHashedGramsMirrorNgrams pins the hashed gram sets against the string
// gram reference: the same cardinality per value (the quantity the Dice and
// Jaccard formulas consume) and the same coefficient per pair.
func TestHashedGramsMirrorNgrams(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		for _, s := range profileEdgeCases {
			want := len(ngrams(s, n))
			got := len(NewProfile(ngramProfiled{n: n}, s).Ref().grams())
			if got != want {
				t.Errorf("|grams(%q, %d)|: hashed %d, strings %d", s, n, got, want)
			}
			for _, o := range profileEdgeCases {
				if got, want := compare(ngramProfiled{n: n, dice: true}, s, o), refNGram(s, o, n, true); got != want {
					t.Errorf("n-gram Dice(%q, %q, %d) = %v, string grams %v", s, o, n, got, want)
				}
				if got, want := compare(ngramProfiled{n: n}, s, o), refNGram(s, o, n, false); got != want {
					t.Errorf("n-gram Jaccard(%q, %q, %d) = %v, string grams %v", s, o, n, got, want)
				}
			}
		}
	}
}
