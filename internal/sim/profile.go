package sim

// Similarity profiles: one constructor, one scoring stage.
//
// A match workflow evaluates O(n·m) candidate pairs over only n+m distinct
// attribute values, so every measure is split in two: ProfileInto derives,
// once per value, whatever the measure reads (runes, interned token set,
// hashed character n-gram set, TF-IDF weight vector, Soundex code, parsed
// year) and appends it as the next slot of a profile column (column.go),
// and Compare scores two slots read-only — safe for concurrent workers.
//
// A matcher keeps only the pairs that reach its threshold, so Compare takes
// a floor, the least score its caller still has a use for, and the contract
// is: the result is the exact score whenever that score is >= floor; below
// the floor it is only some value < floor, and a negative one when the
// measure stopped before the score was known (callers count those as
// pruned). A floor may therefore only ever be conservative — at or below
// what the caller really needs, 0 for "always the exact score" — and a
// measure is free to ignore it: the set measures (n-gram and token Dice and
// Jaccard) turn it into a size filter, a signature filter and a bounded
// merge, Levenshtein into a length filter in front of its bit-vector
// kernel, the rest compute the score regardless. Every filter is exact — it
// rejects only pairs whose score is below the floor. Weighted carries the
// floor through a weighted mean of several columns.
//
// No Compare profiles anything: the character-level measures (Levenshtein,
// Jaro, Jaro-Winkler, the affixes) and the token-sequence measures
// (Monge-Elkan, PersonName) all read a slot's runes in place, the latter
// token by token, and none of them allocates once its pooled buffers have
// grown.
//
// The set measures' size and signature filters read nothing but a 24-byte
// Key per slot (key.go), so they are Keyed: their ProfileInto writes each
// slot's key into the column's dense key array, the candidate loop checks a
// pair's keys against its row's filter (RowFilter) before it reads either
// slab, and Keyed.Merge scores the pairs that pass. Compare is that filter,
// untabulated, then Merge, so the results and the pruned counts are
// Compare's, and each pair is checked once.
//
// ProfileInto is the only way a profile is built. It appends into the
// arrays the column already owns and takes its working memory from a
// Scratch, so a caller that keeps both (the live resolver's pooled query
// slots, the string forms below) rebuilds a one-slot Profile without
// allocating. A column of profiles (a matcher's per-set column, a
// resolver's resident one) comes from BuildProfileColumn (column.go), the
// one bulk build, on every core; NewProfile is the single-value path, for a
// caller that keeps one profile (tuning's features), and
// ProfileColumn.Append and Set profile one value into a kept column (a
// resolver's Add). Measures whose ProfileInto interns
// into a dictionary (token sets, TF-IDF) also have a lookup-only
// ProfileQueryInto; QueryInto picks it, so read paths never grow a
// dictionary. The string Funcs of the built-in measures are Compare over two
// profiles (compare), and ProfiledOf is total: a Func it does not know
// scores through an adapter whose profile is the raw value.

import (
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"strings"
	"sync"
)

// Profile is the profile of one value: a one-slot ProfileColumn. It is the
// query side of a comparison — a resolver's pooled query slot (QueryInto),
// the string forms' pooled operands — and it rebuilds in place without
// allocating once its arrays have grown; a run of values is a ProfileColumn.
type Profile struct{ col ProfileColumn }

// Ref returns the profile's slot.
func (p *Profile) Ref() Ref { return Ref{&p.col, 0} }

// Key returns the profile's filter key: the zero Key when the measure is
// not Keyed.
func (p *Profile) Key() Key { return p.col.Key(0) }

// signature is a 128-bit bitmap of a set: each element sets the one bit a
// mixed hash of it selects. A bit set in A's signature and not in B's is an
// element of A that B lacks, and distinct such bits are distinct elements, so
// |A| minus their count bounds |A∩B| from above.
type signature [1 << sigLog / 64]uint64

const sigLog = 7 // log2 of the signature width

// signatureOf builds the signature of a set of hashes or term IDs. The
// Fibonacci multiplier spreads dense small IDs and FNV hashes alike over the
// top bits, which select the bit.
func signatureOf[T uint32 | uint64](set []T) (sig signature) {
	for _, x := range set {
		bit := uint64(x) * 0x9E3779B97F4A7C15 >> (64 - sigLog)
		sig[bit>>6] |= 1 << (bit & 63)
	}
	return sig
}

// lacking counts the bits of s that o lacks.
func (s *signature) lacking(o *signature) (n int) {
	for i := range s {
		n += bits.OnesCount64(s[i] &^ o[i])
	}
	return n
}

// ProfiledSim is a similarity measure: a per-value profiling stage and a
// pair-scoring stage. The built-in measures, the TF-IDF cosine and the
// adapter of any other Func (ProfiledOf) are all there are: a column's
// layout is the measure's.
type ProfiledSim interface {
	// ProfileInto appends the measure's profile of s to c, a column of this
	// measure, as its next slot, taking its working memory from sc. The
	// contract permits interning into the process-global Terms dictionary
	// (token and TF-IDF measures do); read paths profile via QueryInto. A
	// measure that interns is a QueryProfiler; any other runs ProfileInto
	// on several goroutines at once in BuildProfileColumn, each into its
	// own window of the column.
	//
	//moma:interns
	ProfileInto(s string, c *ProfileColumn, sc *Scratch)
	// Compare scores two slots of this measure's columns, exactly whenever
	// the score is >= floor; otherwise it returns some value < floor,
	// negative when it stopped early (see the package comment above). It
	// must be pure and safe for concurrent use.
	Compare(a, b Ref, floor float64) float64
	// layout is what a slot of the measure's column holds (column.go) and,
	// for a slab the measure fills on several goroutines, the most elements
	// a value's payload takes beyond the value's runes.
	layout() (l layout, pad int)
}

// QueryProfiler is implemented by the measures whose ProfileInto interns
// tokens. ProfileQueryInto leaves p scoring bit-identically to ProfileInto
// against any profile of interned values, but looks tokens up without
// interning them: a token the dictionary has never seen cannot match
// anything interned, so it contributes only its cardinality (token sets) or
// its weight (TF-IDF norms).
type QueryProfiler interface {
	ProfiledSim
	ProfileQueryInto(s string, c *ProfileColumn, sc *Scratch)
}

// NewProfile is the single-value build: a fresh profile of s, interning as
// the measure does, that the caller keeps. A column of values is built by
// BuildProfileColumn.
func NewProfile(ps ProfiledSim, s string) *Profile {
	p := &Profile{NewProfileColumn(ps, 1)}
	p.col.Append(s)
	return p
}

// QueryInto is the read side: it rebuilds p as the profile of a query value
// without growing any dictionary — an unbounded stream of distinct queries
// leaves Terms untouched — and, once p and sc have reached the working-set
// high-water mark, without allocating for the measures that build no string
// (all but EqualFold and Soundex).
func QueryInto(ps ProfiledSim, s string, p *Profile, sc *Scratch) {
	lay, _ := ps.layout()
	p.col.reset(lay)
	if qp, ok := ps.(QueryProfiler); ok {
		qp.ProfileQueryInto(s, &p.col, sc)
		return
	}
	//moma:dictgrowth-ok only measures without ProfileQueryInto reach this call, and none of them interns (pinned by TestProfiledFallbacksDoNotIntern)
	ps.ProfileInto(s, &p.col, sc)
}

// pair is the pooled working memory of the calls that bring none of their
// own: a string-form call uses all of it, a column's Append the scratch.
type pair struct {
	a, b Profile
	sc   Scratch
}

var pairPool = sync.Pool{New: func() any { return new(pair) }}

// compare is the string form of a measure: Compare over the profiles of the
// two values. The profiles are pooled, so a warm call allocates only what
// the measure's own stages do. It is generic so that a built-in's measure
// value reaches it unboxed: converting one to ProfiledSim would allocate on
// every call.
func compare[P ProfiledSim](ps P, a, b string) float64 {
	w := pairPool.Get().(*pair)
	lay, _ := ps.layout()
	w.a.col.reset(lay)
	w.b.col.reset(lay)
	ps.ProfileInto(a, &w.a.col, &w.sc)
	ps.ProfileInto(b, &w.b.col, &w.sc)
	s := ps.Compare(w.a.Ref(), w.b.Ref(), 0)
	pairPool.Put(w)
	return s
}

// builtins is the one list of the built-in measures: the name a script or a
// tuning space gives (Lookup), the string function, and the measure behind
// it (ProfiledOf). Each measure is a comparable value, so the profile
// columns a set keeps for it serve every matcher that names it.
var builtins = [...]struct {
	name string
	fn   Func
	ps   ProfiledSim
}{
	{"Equal", Equal, equalProfiled{}},
	{"EqualFold", EqualFold, equalFoldProfiled{}},
	{"Trigram", Trigram, ngramProfiled{n: 3, dice: true}},
	{"Bigram", Bigram, ngramProfiled{n: 2, dice: true}},
	{"NGramJaccard", TrigramJaccard, ngramProfiled{n: 3}},
	{"Levenshtein", Levenshtein, levenshteinProfiled{}},
	{"Jaro", Jaro, jaroProfiled{}},
	{"JaroWinkler", JaroWinkler, jaroProfiled{winkler: true}},
	{"Affix", Affix, affixProfiled{mode: affixBoth}},
	{"Prefix", Prefix, affixProfiled{mode: affixPrefix}},
	{"Suffix", Suffix, affixProfiled{mode: affixSuffix}},
	{"TokenJaccard", TokenJaccard, tokenProfiled{}},
	{"TokenDice", TokenDice, tokenProfiled{dice: true}},
	{"MongeElkan", MongeElkanJaroWinkler, mongeElkanProfiled{}},
	{"Soundex", SoundexSim, soundexProfiled{}},
	{"Year", YearSim, yearProfiled{}},
	{"YearExact", YearExact, yearProfiled{exact: true}},
	{"PersonName", PersonName, personNameProfiled{}},
}

// ProfiledOf returns the measure behind a similarity function: the built-in
// measure of a built-in Func, and for any other Func (custom closures,
// method values such as (*TFIDF).Cosine, NumericProximity) an adapter whose
// profile is the raw value and whose Compare calls fn. It returns nil only
// for a nil fn.
func ProfiledOf(fn Func) ProfiledSim {
	if fn == nil {
		return nil
	}
	if i, ok := builtin(fn); ok {
		return builtins[i].ps
	}
	return funcProfiled{fn}
}

// Name renders a similarity function: a built-in by its name (the one
// Lookup takes), any other Func by its code pointer ("func@0x4c2a60"; nil is
// "func@0x0"), so closures sharing code render alike whatever they capture.
func Name(fn Func) string {
	if i, ok := builtin(fn); ok {
		return builtins[i].name
	}
	return fmt.Sprintf("func@%#x", reflect.ValueOf(fn).Pointer())
}

// builtin returns the index of fn in builtins. Built-ins are found by code
// pointer, which only static top-level functions have to themselves.
func builtin(fn Func) (int, bool) {
	code := reflect.ValueOf(fn).Pointer()
	for i, b := range builtins {
		if reflect.ValueOf(b.fn).Pointer() == code {
			return i, true
		}
	}
	return 0, false
}

// funcProfiled adapts an opaque Func: nothing can be hoisted out of the pair
// stage, so the profile is the raw value. Holding a func makes the type
// uncomparable, which keeps its columns out of the per-set column store.
type funcProfiled struct{ fn Func }

func (funcProfiled) layout() (layout, int) { return strSlot, 0 }

func (funcProfiled) ProfileInto(s string, c *ProfileColumn, _ *Scratch) {
	c.strs = append(c.strs, s)
}

func (f funcProfiled) Compare(a, b Ref, _ float64) float64 { return f.fn(a.str(), b.str()) }

// --- hashed character n-grams -------------------------------------------

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

type ngramProfiled struct {
	n    int
	dice bool
}

// A value of r runes has at most r+n-1 padded n-grams.
func (g ngramProfiled) layout() (layout, int) { return gramSlab, max(g.n-1, 0) }

// ProfileInto hashes the character n-grams of the normalized value, padded
// with n-1 leading and trailing sentinels so that prefixes and suffixes
// carry weight, into the sorted, deduplicated 64-bit FNV-1a set the slot
// spans in grams, and keys it. Gram strings are never materialized.
func (g ngramProfiled) ProfileInto(s string, c *ProfileColumn, sc *Scratch) {
	lo, t := c.grams.end(), &c.grams.tail
	k := len(*t)
	sc.norm = appendNormalized(sc.norm[:0], s)
	if g.n >= 1 && len(sc.norm) > 0 {
		sc.runes = appendRunes(sc.runes[:0], sc.norm, g.n-1)
		n := len(sc.runes) - g.n + 1
		sc.hashes = grow(sc.hashes, n)[:n]
		for i := range sc.hashes {
			h := fnvOffset64
			for _, r := range sc.runes[i : i+g.n] {
				h ^= uint64(uint32(r))
				h *= fnvPrime64
			}
			sc.hashes[i] = h
		}
		*t = slices.Grow(*t, n)
		set := slices.Compact(sc.sortHashes((*t)[k : k+n]))
		*t = (*t)[:k+len(set)]
	}
	set := (*t)[k:]
	c.pushSpan(lo, c.grams.end())
	c.pushKey(Key{n: uint32(len(set)), card: uint32(len(set)), sig: signatureOf(set)})
}

// Hash sort bounds: a set shorter than minBucketSort, or one with a bucket
// longer than maxBucket, is left to slices.Sort.
const (
	minBucketSort = 16
	maxBucket     = 16
)

// sortHashes writes sc.hashes to dst, of the same length, in ascending
// order. It buckets the hashes on their top bits, into more buckets than
// there are hashes, then orders each bucket by one insertion pass over dst:
// FNV hashes spread evenly, so a bucket holds about one, and a bucket is a
// range of values, so no hash moves past its bucket's start. A short set,
// or one with an oversized bucket (a gram repeated many times), goes to
// slices.Sort instead, so no input is quadratic.
func (sc *Scratch) sortHashes(dst []uint64) []uint64 {
	if !sc.scatterHashes(dst) {
		copy(dst, sc.hashes)
		slices.Sort(dst)
		return dst
	}
	for i := 1; i < len(dst); i++ {
		h, j := dst[i], i
		for ; j > 0 && dst[j-1] > h; j-- {
			dst[j] = dst[j-1]
		}
		dst[j] = h
	}
	return dst
}

// scatterHashes writes sc.hashes to dst bucket by bucket, in bucket order,
// by a counting pass over sc.buckets. It reports false, having written
// nothing, for a set the bucket sort leaves to slices.Sort.
func (sc *Scratch) scatterHashes(dst []uint64) bool {
	src := sc.hashes
	if len(src) < minBucketSort {
		return false
	}
	shift := 64 - bits.Len(uint(len(src)))
	count := grow(sc.buckets, 1<<(64-shift))[:1<<(64-shift)]
	clear(count)
	sc.buckets = count
	for _, h := range src {
		count[h>>shift]++
	}
	var start uint32
	for b, c := range count {
		if c > maxBucket {
			return false
		}
		count[b] = start
		start += c
	}
	for _, h := range src {
		b := h >> shift
		dst[count[b]] = h
		count[b]++
	}
	return true
}

// Compare scores two gram sets by a merge-join over the sorted hashes, Dice
// or Jaccard (setSim), behind the key test; the floor bounds both.
func (g ngramProfiled) Compare(a, b Ref, floor float64) float64 {
	if g.RowFilter(floor).rejects(a.key(), b.key()) {
		return stopped
	}
	return g.Merge(a, b, floor)
}

// --- token-set measures --------------------------------------------------

type tokenProfiled struct {
	dice bool
}

func (tokenProfiled) layout() (layout, int) { return tokenSlab, 0 }

// ProfileInto interns the value's tokens into Terms.
func (t tokenProfiled) ProfileInto(s string, c *ProfileColumn, sc *Scratch) {
	sc.scanTerms(s)
	sc.internTerms()
	t.fill(c, sc)
}

// ProfileQueryInto implements QueryProfiler: unknown tokens are counted, not
// interned — they can intersect nothing, but Jaccard and Dice divide by the
// set sizes, which must include them.
func (t tokenProfiled) ProfileQueryInto(s string, c *ProfileColumn, sc *Scratch) {
	sc.scanTerms(s)
	t.fill(c, sc)
}

// fill builds the token set from the scanned terms: one ID per distinct
// known token in toks, one count per distinct unknown one in the key's
// cardinality.
func (tokenProfiled) fill(c *ProfileColumn, sc *Scratch) {
	sc.sortTerms()
	lo, k, extra := c.toks.end(), len(c.toks.tail), 0
	for i := 0; i < len(sc.terms); i = sc.runEnd(i) {
		if t := sc.terms[i]; t.known {
			c.toks.tail = append(c.toks.tail, t.id)
		} else {
			extra++
		}
	}
	ids := c.toks.tail[k:]
	slices.Sort(ids)
	c.pushSpan(lo, c.toks.end())
	c.pushKey(Key{n: uint32(len(ids)), card: uint32(len(ids) + extra), sig: signatureOf(ids)})
}

// Compare scores two token-ID sets by a merge-join (setSim) behind the key
// test; unknown query tokens enlarge the set sizes through the key's
// cardinality without being materialized.
func (t tokenProfiled) Compare(a, b Ref, floor float64) float64 {
	if t.RowFilter(floor).rejects(a.key(), b.key()) {
		return stopped
	}
	return t.Merge(a, b, floor)
}

// --- equality measures ---------------------------------------------------

type equalProfiled struct{}

func (equalProfiled) layout() (layout, int) { return strSlot, 0 }

func (equalProfiled) ProfileInto(s string, c *ProfileColumn, _ *Scratch) {
	c.strs = append(c.strs, s)
}

func (equalProfiled) Compare(a, b Ref, _ float64) float64 {
	if a.str() == b.str() {
		return 1
	}
	return 0
}

type equalFoldProfiled struct{}

func (equalFoldProfiled) layout() (layout, int) { return strSlot, 0 }

func (equalFoldProfiled) ProfileInto(s string, c *ProfileColumn, _ *Scratch) {
	c.strs = append(c.strs, NormalizeSpace(s))
}

func (equalFoldProfiled) Compare(a, b Ref, _ float64) float64 {
	if strings.EqualFold(a.str(), b.str()) {
		return 1
	}
	return 0
}

// --- rune measures: edit distance and affixes ------------------------------

// runeProfiled is the profiling stage the character-level and
// token-sequence measures share: the runes of the normalized value, whose
// tokens are its runes split at each space (Tokens).
type runeProfiled struct{}

func (runeProfiled) layout() (layout, int) { return runeSlab, 0 }

func (runeProfiled) ProfileInto(s string, c *ProfileColumn, sc *Scratch) {
	sc.norm = appendNormalized(sc.norm[:0], s)
	lo := c.runes.end()
	c.runes.tail = appendRunes(c.runes.tail, sc.norm, 0)
	c.pushSpan(lo, c.runes.end())
}

type levenshteinProfiled struct{ runeProfiled }

// Compare is the normalized edit similarity
// 1 - dist(a', b') / max(len(a'), len(b')). The distance is at least the
// difference of the lengths, which settles a pair whose lengths alone put it
// under the floor without running the bit-vector kernel (editDistance).
func (levenshteinProfiled) Compare(a, b Ref, floor float64) float64 {
	ra, rb := a.runes(), b.runes()
	maxLen := max(len(ra), len(rb))
	if maxLen == 0 {
		return 1
	}
	if editSim(maxLen-min(len(ra), len(rb)), maxLen) < floor {
		return stopped
	}
	return editSim(editDistance(ra, rb), maxLen)
}

func editSim(dist, maxLen int) float64 { return clamp01(1 - float64(dist)/float64(maxLen)) }

type jaroProfiled struct {
	runeProfiled
	winkler bool
}

func (j jaroProfiled) Compare(a, b Ref, _ float64) float64 {
	if j.winkler {
		return jaroWinklerRunes(a.runes(), b.runes())
	}
	return jaroRunes(a.runes(), b.runes())
}

type affixMode int

const (
	affixBoth affixMode = iota
	affixPrefix
	affixSuffix
)

type affixProfiled struct {
	runeProfiled
	mode affixMode
}

// Compare scores the longest common prefix and/or suffix relative to the
// shorter value, max(lcp, lcs) / min(len(a), len(b)), scanning the profiled
// runes in place.
func (m affixProfiled) Compare(a, b Ref, _ float64) float64 {
	ra, rb := a.runes(), b.runes()
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	minLen := min(len(ra), len(rb))
	best := 0
	if m.mode != affixSuffix {
		lcp := 0
		for lcp < minLen && ra[lcp] == rb[lcp] {
			lcp++
		}
		best = lcp
	}
	if m.mode != affixPrefix {
		lcs := 0
		for lcs < minLen && ra[len(ra)-1-lcs] == rb[len(rb)-1-lcs] {
			lcs++
		}
		best = max(best, lcs)
	}
	return clamp01(float64(best) / float64(minLen))
}

// --- token-sequence measures ---------------------------------------------

// The token-sequence measures profile as the rune measures do and walk the
// tokens of the runes in place (nextToken).

type mongeElkanProfiled struct{ runeProfiled }

// Compare is the symmetric Monge-Elkan similarity, the mean of its two
// directions.
func (mongeElkanProfiled) Compare(a, b Ref, _ float64) float64 {
	ra, rb := a.runes(), b.runes()
	return clamp01((mongeElkanRunes(ra, rb) + mongeElkanRunes(rb, ra)) / 2)
}

type personNameProfiled struct{ runeProfiled }

func (personNameProfiled) Compare(a, b Ref, _ float64) float64 {
	return personNameRunes(a.runes(), b.runes())
}

// --- phonetic and numeric measures ---------------------------------------

// soundexProfiled keeps the Soundex code of a value's first token, four
// bytes, all zero for a value without one.
type soundexProfiled struct{}

func (soundexProfiled) layout() (layout, int) { return codeSlot, 0 }

func (soundexProfiled) ProfileInto(s string, c *ProfileColumn, _ *Scratch) {
	var code [4]byte
	copy(code[:], Soundex(s))
	c.codes = append(c.codes, code)
}

func (soundexProfiled) Compare(a, b Ref, _ float64) float64 {
	ca, cb := a.code(), b.code()
	if ca[0] == 0 || cb[0] == 0 {
		return 0
	}
	if ca == cb {
		return 1
	}
	return 0
}

// yearProfiled keeps the parsed year of a value, noYear when it does not
// parse.
type yearProfiled struct {
	exact bool
}

func (yearProfiled) layout() (layout, int) { return yearSlot, 0 }

func (yearProfiled) ProfileInto(s string, c *ProfileColumn, _ *Scratch) {
	y, ok := parseYearInt(s)
	if !ok {
		c.years = append(c.years, noYear)
		return
	}
	c.years = append(c.years, int64(y))
}

func (p yearProfiled) Compare(a, b Ref, _ float64) float64 {
	ya, yb := a.year(), b.year()
	if ya == noYear || yb == noYear {
		return 0
	}
	switch d := ya - yb; {
	case d == 0:
		return 1
	case !p.exact && (d == 1 || d == -1):
		return 0.5
	default:
		return 0
	}
}
