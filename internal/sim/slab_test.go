package sim

// The per-value profile the slab columns replaced, kept as a test-local
// reference: one struct with a field for every measure kind, built and
// scored as each measure did before its slots moved into column slabs. The
// differential oracle holds the slab columns — bulk build, Append, Set,
// tombstones, compaction, queries interned and lookup-only — to it bit for
// bit, and the resident-bytes gate pins what the slabs were for.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// refProfile is the former sim.Profile. Only the fields the producing
// measure reads are set.
type refProfile struct {
	Raw, NormSpace string
	Runes          []rune
	SortedTokenIDs []uint32
	ExtraTokens    int
	Grams          []uint64
	Sig            signature
	TermIDs        []uint32
	TermKeys       []uint64
	Weights        []float64
	WeightNorm2    float64
	Code           string
	Year           int
	YearOK         bool
}

// refProfileOf builds the reference profile of s under ps, looking tokens
// up without interning them when query is set (the former
// ProfileQueryInto), interning them otherwise.
func refProfileOf(ps ProfiledSim, s string, query bool) *refProfile {
	p := &refProfile{}
	switch m := ps.(type) {
	case ngramProfiled:
		p.Grams = refGramSet(s, m.n)
		p.Sig = signatureOf(p.Grams)
	case tokenProfiled:
		var sc Scratch
		sc.scanTerms(s)
		if !query {
			sc.internTerms()
		}
		sc.sortTerms()
		for i := 0; i < len(sc.terms); i = sc.runEnd(i) {
			if t := sc.terms[i]; t.known {
				p.SortedTokenIDs = append(p.SortedTokenIDs, t.id)
			} else {
				p.ExtraTokens++
			}
		}
		slices.Sort(p.SortedTokenIDs)
		p.Sig = signatureOf(p.SortedTokenIDs)
	case tfidfProfiled:
		var sc Scratch
		sc.scanTerms(s)
		if !query {
			sc.internTerms()
		}
		sc.sortTerms()
		for i := 0; i < len(sc.terms); {
			j := sc.runEnd(i)
			t := sc.terms[i]
			df := 0
			if t.known {
				df = m.t.docFreq[t.id]
			}
			w := (1 + math.Log(float64(j-i))) * m.t.idf(df)
			p.WeightNorm2 += w * w
			if t.known {
				p.TermIDs = append(p.TermIDs, t.id)
				p.TermKeys = append(p.TermKeys, t.key)
				p.Weights = append(p.Weights, w)
			} else {
				p.ExtraTokens++
			}
			i = j
		}
	case levenshteinProfiled, jaroProfiled, affixProfiled, mongeElkanProfiled, personNameProfiled:
		p.Runes = []rune(Normalize(s))
	case equalProfiled, funcProfiled:
		p.Raw = s
	case equalFoldProfiled:
		p.NormSpace = NormalizeSpace(s)
	case soundexProfiled:
		p.Code = Soundex(s)
	case yearProfiled:
		p.Year, p.YearOK = parseYearInt(s)
	default:
		panic(fmt.Sprintf("no reference profile for %T", ps))
	}
	return p
}

// refGramSet is the sorted, deduplicated FNV-1a set of the padded n-grams.
func refGramSet(s string, n int) []uint64 {
	norm := []rune(Normalize(s))
	if n < 1 || len(norm) == 0 {
		return nil
	}
	pad := slices.Concat(slices.Repeat([]rune{'\x01'}, n-1), norm, slices.Repeat([]rune{'\x02'}, n-1))
	var out []uint64
	for i := 0; i+n <= len(pad); i++ {
		h := fnvOffset64
		for _, r := range pad[i : i+n] {
			h ^= uint64(uint32(r))
			h *= fnvPrime64
		}
		out = append(out, h)
	}
	return uniqueSorted(out)
}

// refKey is the former Keyed.Key: the zero Key for a measure without keys.
func refKey(ps ProfiledSim, p *refProfile) Key {
	switch ps.(type) {
	case ngramProfiled:
		return Key{n: uint32(len(p.Grams)), card: uint32(len(p.Grams)), sig: p.Sig}
	case tokenProfiled:
		n := len(p.SortedTokenIDs)
		return Key{n: uint32(n), card: uint32(n + p.ExtraTokens), sig: p.Sig}
	}
	return Key{}
}

// refCompare is the former Compare of ps over two reference profiles.
func refCompare(ps ProfiledSim, a, b *refProfile, floor float64) float64 {
	switch m := ps.(type) {
	case ngramProfiled, tokenProfiled:
		ka, kb := refKey(ps, a), refKey(ps, b)
		k := ps.(Keyed)
		if k.RowFilter(floor).rejects(&ka, &kb) {
			return stopped
		}
		if _, grams := ps.(ngramProfiled); grams {
			return setSim(a.Grams, b.Grams, &ka, &kb, m.(ngramProfiled).dice, floor)
		}
		return setSim(a.SortedTokenIDs, b.SortedTokenIDs, &ka, &kb, m.(tokenProfiled).dice, floor)
	case tfidfProfiled:
		na, nb := len(a.TermIDs)+a.ExtraTokens, len(b.TermIDs)+b.ExtraTokens
		if na == 0 && nb == 0 {
			return 1
		}
		if na == 0 || nb == 0 {
			return 0
		}
		var dot float64
		i, j := 0, 0
		for i < len(a.TermIDs) && j < len(b.TermIDs) {
			switch {
			case a.TermIDs[i] == b.TermIDs[j]:
				dot += a.Weights[i] * b.Weights[j]
				i++
				j++
			case a.TermKeys[i] < b.TermKeys[j]:
				i++
			case a.TermKeys[i] > b.TermKeys[j]:
				j++
			case Terms.Str(a.TermIDs[i]) < Terms.Str(b.TermIDs[j]):
				i++
			default:
				j++
			}
		}
		if a.WeightNorm2 == 0 || b.WeightNorm2 == 0 {
			return 0
		}
		return clamp01(dot / (math.Sqrt(a.WeightNorm2) * math.Sqrt(b.WeightNorm2)))
	case levenshteinProfiled:
		maxLen := max(len(a.Runes), len(b.Runes))
		if maxLen == 0 {
			return 1
		}
		if editSim(maxLen-min(len(a.Runes), len(b.Runes)), maxLen) < floor {
			return stopped
		}
		return editSim(editDistance(a.Runes, b.Runes), maxLen)
	case jaroProfiled:
		if m.winkler {
			return jaroWinklerRunes(a.Runes, b.Runes)
		}
		return jaroRunes(a.Runes, b.Runes)
	case affixProfiled:
		return refAffix(m.mode, a.Runes, b.Runes)
	case mongeElkanProfiled:
		return clamp01((mongeElkanRunes(a.Runes, b.Runes) + mongeElkanRunes(b.Runes, a.Runes)) / 2)
	case personNameProfiled:
		return personNameRunes(a.Runes, b.Runes)
	case equalProfiled:
		return boolScore(a.Raw == b.Raw)
	case funcProfiled:
		return m.fn(a.Raw, b.Raw)
	case equalFoldProfiled:
		return boolScore(strings.EqualFold(a.NormSpace, b.NormSpace))
	case soundexProfiled:
		return boolScore(a.Code != "" && b.Code != "" && a.Code == b.Code)
	case yearProfiled:
		if !a.YearOK || !b.YearOK {
			return 0
		}
		switch d := a.Year - b.Year; {
		case d == 0:
			return 1
		case !m.exact && (d == 1 || d == -1):
			return 0.5
		}
		return 0
	}
	panic(fmt.Sprintf("no reference Compare for %T", ps))
}

func boolScore(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}

func refAffix(mode affixMode, ra, rb []rune) float64 {
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	minLen := min(len(ra), len(rb))
	lcp, lcs := 0, 0
	for lcp < minLen && ra[lcp] == rb[lcp] {
		lcp++
	}
	for lcs < minLen && ra[len(ra)-1-lcs] == rb[len(rb)-1-lcs] {
		lcs++
	}
	best := max(lcp, lcs)
	switch mode {
	case affixPrefix:
		best = lcp
	case affixSuffix:
		best = lcs
	}
	return clamp01(float64(best) / float64(minLen))
}

// viewSlot reads slot i of a column of ps back into the reference shape.
func viewSlot(ps ProfiledSim, c *ProfileColumn, i int) *refProfile {
	p := &refProfile{}
	r := c.At(i)
	switch c.lay {
	case gramSlab:
		p.Grams, p.Sig = r.grams(), r.key().sig
	case tokenSlab:
		k := r.key()
		p.SortedTokenIDs, p.ExtraTokens, p.Sig = r.toks(), int(k.card-k.n), k.sig
	case runeSlab:
		p.Runes = r.runes()
	case termSlab:
		terms, v := r.terms()
		for _, t := range terms {
			p.TermIDs = append(p.TermIDs, t.id)
			p.TermKeys = append(p.TermKeys, t.key)
			p.Weights = append(p.Weights, t.w)
		}
		p.WeightNorm2, p.ExtraTokens = v.norm2, int(v.n)-len(terms)
	case strSlot:
		if _, fold := ps.(equalFoldProfiled); fold {
			p.NormSpace = r.str()
		} else {
			p.Raw = r.str()
		}
	case codeSlot:
		if code := r.code(); code[0] != 0 {
			p.Code = string(code[:])
		}
	case yearSlot:
		if y := r.year(); y != noYear {
			p.Year, p.YearOK = int(y), true
		}
	}
	return p
}

// sameProfile reports whether two reference profiles hold the same sets,
// runes, vectors and scalars, nil and empty slices alike.
func sameProfile(a, b *refProfile) bool {
	norm := func(p *refProfile) refProfile {
		q := *p
		if len(q.Runes) == 0 {
			q.Runes = nil
		}
		if len(q.SortedTokenIDs) == 0 {
			q.SortedTokenIDs = nil
		}
		if len(q.Grams) == 0 {
			q.Grams = nil
		}
		if len(q.TermIDs) == 0 {
			q.TermIDs, q.TermKeys, q.Weights = nil, nil, nil
		}
		return q
	}
	return reflect.DeepEqual(norm(a), norm(b))
}

// FuzzProfileColumnMatchesReference is the differential oracle of the slab
// columns. For one measure per input — every built-in and a TF-IDF cosine
// over the input's values, picked by the seed (the seed corpus names each
// of them) — a column is built in bulk from the fuzzed values, then driven
// through Appends, Sets (whose payloads go to the tail), tombstones (Drop),
// a churn of values appended and mostly dropped again (so the tail, or the
// whole slab, is rewritten) and a Compact, mirrored on a slice of reference
// profiles. After every phase each slot reads back as
// its reference profile, each key is the reference key, MaxCard is the
// reference's, and Compare at random floors — slot against slot, and
// interned and lookup-only query profiles against slots — returns the
// reference's bits.
func FuzzProfileColumnMatchesReference(f *testing.F) {
	for i := range len(builtins) + 1 {
		f.Add("mapping based object matching|view selection problem||2004|ab|the the the", uint64(i))
		f.Add("A. Thor|Andreas Thor|E. Rahm|SIGMOD Rec.|SIGMOD Record|界|héllo wörld", uint64(i+7*(len(builtins)+1)))
		f.Add("zzfuzz unseen|1997| 2003 |notayear|C++ & Java!|ﬁne", uint64(i+42*(len(builtins)+1)))
	}
	f.Fuzz(func(t *testing.T, joined string, seed uint64) {
		values := strings.Split(joined, "|")
		if len(values) > 32 {
			values = values[:32]
		}
		for i, v := range values {
			if len(v) > 128 {
				values[i] = v[:128]
			}
		}
		name, ps := "TFIDF", ProfiledSim(nil)
		if k := seed % uint64(len(builtins)+1); k < uint64(len(builtins)) {
			name, ps = builtins[k].name, builtins[k].ps
		} else {
			corpus := NewTFIDF()
			corpus.AddAll(values)
			ps = corpus.Profiled()
		}
		checkColumnAgainstReference(t, name, ps, values, rand.New(rand.NewSource(int64(seed))))
	})
}

// checkColumnAgainstReference runs one measure through the phases of
// FuzzProfileColumnMatchesReference.
func checkColumnAgainstReference(t *testing.T, name string, ps ProfiledSim, values []string, rng *rand.Rand) {
	t.Helper()
	pick := func() string {
		v := values[rng.Intn(len(values))]
		if rng.Intn(4) == 0 {
			v += " zzslab" + fmt.Sprint(rng.Intn(3))
		}
		return v
	}
	col := BuildProfileColumn(ps, len(values), func(i int) string { return values[i] })
	ref := make([]*refProfile, len(values))
	maxCard := 0
	for i, v := range values {
		ref[i] = refProfileOf(ps, v, false)
		maxCard = max(maxCard, int(refKey(ps, ref[i]).card))
	}
	check := func(phase string) {
		t.Helper()
		if col.Len() != len(ref) || col.MaxCard() != maxCard {
			t.Fatalf("%s %s: %d slots, MaxCard %d; reference %d, %d", name, phase, col.Len(), col.MaxCard(), len(ref), maxCard)
		}
		for i := range ref {
			if got := viewSlot(ps, &col, i); !sameProfile(got, ref[i]) {
				t.Fatalf("%s %s: slot %d is %+v, reference %+v", name, phase, i, got, ref[i])
			}
			if got, want := col.Key(i), refKey(ps, ref[i]); got != want {
				t.Fatalf("%s %s: slot %d has key %+v, reference %+v", name, phase, i, got, want)
			}
		}
		for range 2 * len(ref) {
			i, j := rng.Intn(len(ref)), rng.Intn(len(ref))
			floor := rng.Float64() * 1.1
			checkScore(t, name, phase, ps, col.At(i), col.At(j), ref[i], ref[j], floor)
			v := pick()
			built := NewProfile(ps, v)
			checkScore(t, name, phase+"/built query", ps, built.Ref(), col.At(j), refProfileOf(ps, v, false), ref[j], floor)
			q := pick()
			var qp Profile
			var sc Scratch
			QueryInto(ps, q, &qp, &sc)
			checkScore(t, name, phase+"/lookup query", ps, qp.Ref(), col.At(j), refProfileOf(ps, q, true), ref[j], floor)
		}
	}
	check("bulk build")
	for range 1 + rng.Intn(8) {
		v := pick()
		col.Append(v)
		ref = append(ref, refProfileOf(ps, v, false))
		maxCard = max(maxCard, int(refKey(ps, ref[len(ref)-1]).card))
	}
	check("append")
	for range 1 + rng.Intn(3*len(ref)) {
		i, v := rng.Intn(len(ref)), pick()
		col.Set(i, v)
		ref[i] = refProfileOf(ps, v, false)
		maxCard = max(maxCard, int(refKey(ps, ref[i]).card))
	}
	check("set")
	keep := make([]bool, len(ref))
	for i := range ref {
		if keep[i] = rng.Intn(3) > 0; !keep[i] {
			col.Drop(i)
			ref[i] = refProfileOf(ps, "", false)
		}
	}
	check("drop")
	// Churn: values added and dropped again leave dead payload in the
	// tail, which is rewritten once it outnumbers the tail's live part.
	for range 64 {
		v := strings.Repeat(pick()+" ", 1+rng.Intn(24))
		col.Append(v)
		ref = append(ref, refProfileOf(ps, v, false))
		maxCard = max(maxCard, int(refKey(ps, ref[len(ref)-1]).card))
		keep = append(keep, rng.Intn(4) == 0)
		if !keep[len(ref)-1] {
			col.Drop(len(ref) - 1)
			ref[len(ref)-1] = refProfileOf(ps, "", false)
		}
	}
	check("churn")
	col = col.Compact(keep)
	var kept []*refProfile
	maxCard = 0
	for i, p := range ref {
		if keep[i] {
			kept = append(kept, p)
			maxCard = max(maxCard, int(refKey(ps, p).card))
		}
	}
	if ref = kept; len(ref) > 0 {
		check("compact")
	}
}

// checkScore holds Compare over two slots, and a Keyed measure's key test
// then merge, to the reference's bits at floor.
func checkScore(t *testing.T, name, phase string, ps ProfiledSim, a, b Ref, ra, rb *refProfile, floor float64) {
	t.Helper()
	want := refCompare(ps, ra, rb, floor)
	if got := ps.Compare(a, b, floor); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s %s floor %v: Compare %v, reference %v (%+v vs %+v)", name, phase, floor, got, want, ra, rb)
	}
	if k, ok := ps.(Keyed); ok {
		if got := compareKeyed(k, a, b, floor); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s %s floor %v: key test and merge %v, reference %v", name, phase, floor, got, want)
		}
	}
}

// TestProfileColumnResidentBytes pins what a resident trigram column costs:
// at most 8 bytes per gram of its slab plus 48 bytes per slot (a span, a
// filter key, spare slab capacity), over 20 000 eight-word titles of
// pseudo-words. A column of one struct per value spent about 250 bytes per
// slot beyond its grams.
func TestProfileColumnResidentBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 20 000-title column")
	}
	const n = 20000
	rng := rand.New(rand.NewSource(51))
	vocab := make([]string, n/5)
	for i := range vocab {
		var b strings.Builder
		for range 3 + rng.Intn(2) {
			b.WriteByte("bcdfghjklmnprstvwz"[rng.Intn(18)])
			b.WriteByte("aeiou"[rng.Intn(5)])
		}
		vocab[i] = b.String()
	}
	titles := make([]string, n)
	for i := range titles {
		words := make([]string, 8)
		for w := range words {
			words[w] = vocab[rng.Intn(len(vocab))]
		}
		titles[i] = strings.Join(words, " ")
	}
	ps := ProfiledOf(Trigram)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	col := BuildProfileColumn(ps, n, func(i int) string { return titles[i] })
	runtime.GC()
	runtime.ReadMemStats(&after)
	grams := slabLen(&col)
	delta := int64(after.HeapInuse) - int64(before.HeapInuse)
	perSlot := float64(delta-int64(8*grams)) / n
	if budget := int64(8*grams + 48*n); delta > budget {
		t.Fatalf("the column of %d titles (%d grams) holds %d heap bytes, %.1f per slot beyond its grams; budget %d",
			n, grams, delta, perSlot, budget)
	}
	t.Logf("%d titles, %d grams: %.1f heap bytes per slot beyond the grams", n, grams, perSlot)
	runtime.KeepAlive(col)
	runtime.KeepAlive(titles)
}

// gramProfile is a one-slot n-gram profile of the sorted, deduplicated set
// g with signature sig (the zero signature carries no information).
func gramProfile(g []uint64, sig signature) *Profile {
	p := &Profile{NewProfileColumn(ProfiledOf(Trigram), 1)}
	p.col.grams.tail = append(p.col.grams.tail, g...)
	p.col.pushSpan(0, len(g))
	p.col.pushKey(Key{n: uint32(len(g)), card: uint32(len(g)), sig: sig})
	return p
}

// tokenProfile is a one-slot token-set profile of the sorted, deduplicated
// set ids and extra unknown tokens, with signature sig.
func tokenProfile(ids []uint32, extra int, sig signature) *Profile {
	p := &Profile{NewProfileColumn(tokenProfiled{}, 1)}
	p.col.toks.tail = append(p.col.toks.tail, ids...)
	p.col.pushSpan(0, len(ids))
	p.col.pushKey(Key{n: uint32(len(ids)), card: uint32(len(ids) + extra), sig: sig})
	return p
}

// show renders a profile for a failure message: its slot's payload.
func show(p *Profile) string {
	c := &p.col
	switch c.lay {
	case gramSlab:
		return fmt.Sprint(c.At(0).grams())
	case tokenSlab:
		return fmt.Sprint(c.At(0).toks(), c.Key(0))
	case runeSlab:
		return fmt.Sprintf("%q", string(c.At(0).runes()))
	case termSlab:
		terms, v := c.At(0).terms()
		return fmt.Sprint(terms, *v)
	case strSlot:
		return fmt.Sprintf("%q", c.strs[0])
	case codeSlot:
		return fmt.Sprintf("%q", c.codes[0][:])
	}
	return fmt.Sprint(c.years)
}

// slabLen is the length of a column's slab, bulk and tail: 0 for a layout
// without one.
func slabLen(c *ProfileColumn) int {
	if !c.lay.spanned() {
		return 0
	}
	return c.payload().end()
}

// TestProfileColumnReclaimsTail: values added to a built column and dropped
// again (a resolver's churn) leave their payloads in the tail, which is
// rewritten once they outnumber its live part — without rewriting the bulk
// — so the dead payload stays bounded while every slot still reads back as
// its reference profile.
func TestProfileColumnReclaimsTail(t *testing.T) {
	values := columnValues(2048, "tail")
	for _, name := range []string{"Trigram", "Levenshtein"} {
		fn, _ := Lookup(name)
		ps := ProfiledOf(fn)
		col := BuildProfileColumn(ps, len(values), func(i int) string { return values[i] })
		ref := make([]string, len(values))
		copy(ref, values)
		bulk, end, rewrites := col.payload().end(), col.payload().end(), 0
		for i := range 600 {
			v := fmt.Sprintf("churning value number %d of the tail %s", i, values[i])
			col.Append(v)
			ref = append(ref, v)
			if i%5 != 0 {
				col.Drop(len(ref) - 1)
				ref[len(ref)-1] = ""
			}
			pl := col.payload()
			if pl.end() < bulk {
				t.Fatalf("%s: cycle %d rewrote the bulk", name, i)
			}
			if pl.end() < end { // only a rewrite shrinks the slab
				rewrites++
			}
			end = pl.end()
			if dead := pl.deadLen(); dead > minTailDead+pl.end()-bulk {
				t.Fatalf("%s: cycle %d keeps %d dead elements", name, i, dead)
			}
		}
		if rewrites == 0 {
			t.Fatalf("%s: the tail was never rewritten", name)
		}
		for i, v := range ref {
			if got, want := viewSlot(ps, &col, i), refProfileOf(ps, v, false); !sameProfile(got, want) {
				t.Fatalf("%s: slot %d reads %+v, reference %+v", name, i, got, want)
			}
		}
	}
}
