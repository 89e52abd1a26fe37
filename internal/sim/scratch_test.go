package sim

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/race"
)

// scratchValues mixes the cases buffer-reusing profiling must handle:
// unicode folding, separator classes, empty and blank values, years (signed,
// padded, overlong, garbage), and tokens the dictionary has never seen.
func scratchValues() []string {
	return []string{
		"",
		"   ",
		"Mapping-Based Object_Matching",
		"mapping based object matching for data integration",
		"a formal perspective on the view selection problem",
		"Ångström ünïcode Σ tokens",
		"a",
		"1997",
		" 2003 ",
		"+42",
		"-7",
		"not a year",
		"12345678901234567890123",
		"zzz never-interned qqq never-interned",
	}
}

// allMeasures is every built-in by name plus a TF-IDF
// measure over the edge-case corpus.
func allMeasures() map[string]ProfiledSim {
	corpus := NewTFIDF()
	corpus.AddAll(profileEdgeCases)
	out := map[string]ProfiledSim{"TFIDF": corpus.Profiled()}
	for _, b := range builtins {
		out[b.name] = b.ps
	}
	return out
}

// lookupTokenIDs is the allocating lookup over strings that
// AppendLookupTokenIDs replaced: Normalize, split on spaces, Lookup.
func lookupTokenIDs(d *Dict, s string) []uint32 {
	var out []uint32
	for _, tok := range Tokens(s) {
		if id, ok := d.Lookup(tok); ok {
			out = append(out, id)
		}
	}
	return out
}

// TestAppendLookupTokenIDsMatchesLookupTokenIDs pins the buffer-reusing
// lookup over bytes to the allocating one over strings: same known IDs,
// same order, unknowns dropped.
func TestAppendLookupTokenIDsMatchesLookupTokenIDs(t *testing.T) {
	Terms.TokenIDs("mapping based object matching for data integration")
	Terms.TokenIDs("a formal perspective on the view selection problem")
	var norm []byte
	var ids []uint32
	for _, v := range scratchValues() {
		norm, ids = Terms.AppendLookupTokenIDs(v, norm, ids)
		want := lookupTokenIDs(Terms, v)
		if !slices.Equal(ids, want) {
			t.Errorf("AppendLookupTokenIDs(%q) = %v, lookupTokenIDs = %v", v, ids, want)
		}
	}
}

// TestParseYearIntMatchesAtoi pins the allocation-free parser to
// strconv.Atoi over the fixture values plus strconv edge cases.
func TestParseYearIntMatchesAtoi(t *testing.T) {
	cases := append(scratchValues(), "0", "007", "-0", "+", "-", "1e3", "١٩٩٧")
	for _, v := range cases {
		got, ok := parseYearInt(v)
		want, err := strconv.Atoi(strings.TrimSpace(v))
		if wantOK := err == nil; ok != wantOK || (ok && got != want) {
			t.Errorf("parseYearInt(%q) = (%d, %v), Atoi = (%d, %v)", v, got, ok, want, err)
		}
	}
}

// TestYearFormsAgree is the regression test of the one year parser: the
// string function, Compare over built profiles, and Compare of a QueryInto
// profile against a built one give the same score for every pair of awkward
// numerals — batch and online used to disagree on the 19-digit one — and
// the values the parser decides are pinned.
func TestYearFormsAgree(t *testing.T) {
	vals := []string{"1234567890123456789", "+2005", " 2005 ", "-1", "20o5", "", "2005", "2004"}
	for _, m := range []struct {
		name string
		fn   Func
	}{{"YearExact", YearExact}, {"YearSim", YearSim}} {
		ps := ProfiledOf(m.fn)
		var q Profile
		var sc Scratch
		for _, a := range vals {
			for _, b := range vals {
				str := m.fn(a, b)
				built := ps.Compare(NewProfile(ps, a).Ref(), NewProfile(ps, b).Ref(), 0)
				QueryInto(ps, a, &q, &sc)
				online := ps.Compare(q.Ref(), NewProfile(ps, b).Ref(), 0)
				if str != built || built != online {
					t.Errorf("%s(%q, %q): string %v, built profiles %v, query profile %v", m.name, a, b, str, built, online)
				}
			}
		}
	}
	for _, c := range []struct {
		a, b        string
		exact, near float64
	}{
		{"1234567890123456789", "1234567890123456789", 0, 0}, // longer than 18 digits: not a year
		{"+2005", "2005", 1, 1},
		{" 2005 ", "2005", 1, 1},
		{" 2005 ", "2004", 0, 0.5},
		{"-1", "-1", 1, 1},
		{"20o5", "20o5", 0, 0},
		{"", "", 0, 0},
	} {
		if got := YearExact(c.a, c.b); got != c.exact {
			t.Errorf("YearExact(%q, %q) = %v, want %v", c.a, c.b, got, c.exact)
		}
		if got := YearSim(c.a, c.b); got != c.near {
			t.Errorf("YearSim(%q, %q) = %v, want %v", c.a, c.b, got, c.near)
		}
	}
}

// FuzzQueryIntoMatchesProfileInto pins the one twin that legitimately
// remains — lookup-only versus interning profiling: for every measure, a
// query profile rebuilt by QueryInto into reused memory scores bit-for-bit
// like a built profile of the same value against a stored value's profile,
// and QueryInto never grows the dictionary, whether or not the dictionary
// knows the query's tokens.
func FuzzQueryIntoMatchesProfileInto(f *testing.F) {
	measures := allMeasures()
	seeds := append(scratchValues(), profileEdgeCases...)
	seeds = append(seeds, "\xff\xfe broken \xc3 utf8", "\x01\x02", "a\x01b \x02c", "zzqx1 view selection", "zzqx2 zzqx2 zzqx3")
	for i, q := range seeds {
		f.Add(q, seeds[(i*7+3)%len(seeds)])
		f.Add(q, q)
	}
	f.Fuzz(func(t *testing.T, q, v string) {
		// The stored side first (a build: it may intern v's tokens), then
		// every query profile while q's own tokens are still unknown, then
		// the built profiles of q, which intern them.
		stored := make(map[string]*Profile, len(measures))
		for name, ps := range measures {
			stored[name] = NewProfile(ps, v)
		}
		online := make(map[string]float64, len(measures))
		var p Profile
		var sc Scratch
		before := Terms.Len()
		for name, ps := range measures {
			QueryInto(ps, q, &p, &sc)
			online[name] = ps.Compare(p.Ref(), stored[name].Ref(), 0)
		}
		if got := Terms.Len(); got != before {
			t.Fatalf("QueryInto(%q) grew the dictionary %d -> %d", q, before, got)
		}
		for name, ps := range measures {
			built := ps.Compare(NewProfile(ps, q).Ref(), stored[name].Ref(), 0)
			if math.Float64bits(online[name]) != math.Float64bits(built) {
				t.Errorf("%s: QueryInto(%q) vs %q = %v, built profile %v", name, q, v, online[name], built)
			}
		}
	})
}

// TestProfileIntoReusesBuffers pins the point of the into-scratch primitive:
// once the scratch and profile buffers reach their high-water mark,
// rebuilding a query profile allocates nothing — for every measure whose
// profile keeps no string it builds, including the unknown-token dedup
// of the token-set and TF-IDF measures and the rune profile the
// character-level and token-sequence measures share, as the live resolver's
// pooled query slots rebuild them.
func TestProfileIntoReusesBuffers(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	Terms.TokenIDs("mapping based object matching for data integration")
	queries := []string{
		"Mapping-Based object matching",
		"mapping based integration zzz-unknown qqq-unknown zzz-unknown",
		" 1997 ",
		strings.Repeat("Rahm, E. and Thor, A. ", 14),
	}
	keepsStrings := map[string]bool{"EqualFold": true, "Soundex": true}
	checked := 0
	for name, ps := range allMeasures() {
		if keepsStrings[name] {
			continue
		}
		checked++
		var p Profile
		var sc Scratch
		for _, q := range queries {
			allocs := testing.AllocsPerRun(100, func() {
				QueryInto(ps, q, &p, &sc)
			})
			if allocs != 0 {
				t.Errorf("%s: QueryInto(%q) allocates %.0f times per run, want 0", name, q, allocs)
			}
		}
	}
	if checked != 17 {
		t.Errorf("checked %d measures, want the 16 registered ones that keep no strings plus TF-IDF", checked)
	}
}

// TestCompareZeroAllocs pins the pair stage every matcher and the resolver
// run per candidate: Compare over two built profiles allocates nothing, for
// every measure, both at floor 0 (the full score) and at a floor above the
// pair's score (the early stop). A 300-rune Levenshtein pair runs the
// kernel on a five-word pattern and Jaro past its stack flags.
func TestCompareZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	x, y := "Mapping-based object matching 2007", "object matching based on mappings 2006"
	long := strings.Repeat("rahm e thor a ", 22)[:300]
	checked := 0
	check := func(name string, ps ProfiledSim, x, y string) {
		a, b := NewProfile(ps, x).Ref(), NewProfile(ps, y).Ref()
		score := ps.Compare(a, b, 0)
		for _, floor := range []float64{0, min(1, score+0.25)} {
			allocs := testing.AllocsPerRun(100, func() { ps.Compare(a, b, floor) })
			if allocs != 0 {
				t.Errorf("%s: Compare(%q, %q) at floor %.2f allocates %.0f times per run, want 0", name, x, y, floor, allocs)
			}
		}
	}
	for name, ps := range allMeasures() {
		checked++
		check(name, ps, x, y)
	}
	check("Levenshtein", ProfiledOf(Levenshtein), long, strings.ToUpper(long[7:])+" ünïcode")
	check("Jaro", ProfiledOf(Jaro), long, strings.ToUpper(long[7:])+" ünïcode")
	if checked != 19 {
		t.Errorf("checked %d measures, want the 18 registered ones plus TF-IDF", checked)
	}
}

// TestAppendLookupTokenIDsZeroAllocs pins the blocking-token probe: a warm
// lookup through reused buffers allocates nothing.
func TestAppendLookupTokenIDsZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	Terms.TokenIDs("adaptive blocking techniques for scalable record linkage")
	q := "Adaptive record LINKAGE with unknown-zzz tokens"
	var norm []byte
	var ids []uint32
	allocs := testing.AllocsPerRun(100, func() {
		norm, ids = Terms.AppendLookupTokenIDs(q, norm, ids)
	})
	if allocs != 0 {
		t.Errorf("AppendLookupTokenIDs allocates %.0f times per run, want 0", allocs)
	}
	if len(ids) == 0 {
		t.Fatal("probe found no known tokens; fixture broken")
	}
}
