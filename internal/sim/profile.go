package sim

// Similarity profiles: one constructor, one scoring stage.
//
// A match workflow evaluates O(n·m) candidate pairs over only n+m distinct
// attribute values, so every measure is split in two: ProfileInto derives,
// once per value, whatever the measure reads (rune slice, interned token
// set, hashed character n-gram set, TF-IDF weight vector, Soundex code,
// parsed year) into a caller-owned Profile, and Compare scores two profiles
// read-only — safe for concurrent workers.
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
// (Monge-Elkan, PersonName) all read the one rune profile, the latter token
// by token, and none of them allocates once its pooled buffers have grown.
//
// The set measures' size and signature filters read nothing but a 24-byte
// Key per profile (key.go), so they are Keyed: a ProfileColumn keeps the
// keys of its profiles in a dense array beside them, the candidate loop
// checks a pair's keys against its row's filter (RowFilter) before it
// reads either profile, and Keyed.Merge scores the pairs that pass. Compare
// is that filter, untabulated, over keys it builds from the profiles, then
// Merge, so the results and the pruned counts are Compare's, and each pair
// is checked once.
//
// ProfileInto is the only way a profile is built. It appends into the slices
// the Profile already owns and takes its working memory from a Scratch, so a
// caller that keeps both (the live resolver's pooled query slots, the string
// forms below) rebuilds a profile of slices and numbers without allocating.
// A column of profiles (a matcher's per-set column, a resolver's resident
// one) comes from BuildProfileColumn (key.go), the one bulk build, on every
// core; NewProfile is the single-value path, for a caller that keeps one
// profile (a resolver's Add). Measures whose ProfileInto interns into a
// dictionary (token sets, TF-IDF) also have a lookup-only ProfileQueryInto;
// QueryInto picks it, so read paths never grow a dictionary. The string
// Funcs of the built-in measures are Compare over two profiles (compare),
// and ProfiledOf is total: a Func it does not know scores through an
// adapter that profiles nothing.

import (
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"strings"
	"sync"
)

// Profile caches the derived forms of one attribute value. Only the fields
// the producing ProfiledSim reads are populated; a profile is read-only
// between two ProfileInto calls on it.
type Profile struct {
	// Raw is the original attribute value.
	Raw string
	// NormSpace is NormalizeSpace(Raw) (case-folding equality).
	NormSpace string
	// Runes is []rune(Normalize(Raw)): the edit-distance, Jaro and affix
	// measures read it whole, the token-sequence measures (Monge-Elkan,
	// person names) token by token, since Tokens(Raw) is its runes split at
	// each space.
	Runes []rune
	// SortedTokenIDs is the sorted, deduplicated token-ID set (interned in
	// Terms) for the token-overlap measures. ExtraTokens counts distinct
	// tokens of the value that are absent from the dictionary — produced
	// only by the lookup-only ProfileQueryInto, where unknown tokens cannot
	// intersect anything but still belong to the set cardinality.
	SortedTokenIDs []uint32
	ExtraTokens    int
	// Grams is the sorted, deduplicated FNV-1a hash set of the padded
	// character n-grams (n fixed by the producing measure).
	Grams []uint64
	// sig is the signature of whichever of the two sets above p holds.
	sig signature
	// TermIDs/TermKeys/Weights is the TF-IDF document vector: term IDs
	// (Terms dict) with their content keys (Dict.Key), sorted by key, and
	// the aligned tf-idf weights; WeightNorm2 is the squared Euclidean
	// norm. The content-key order makes the cosine dot product independent
	// of dictionary insertion order (see intern.go).
	TermIDs     []uint32
	TermKeys    []uint64
	Weights     []float64
	WeightNorm2 float64
	// Code is the Soundex code of the first token.
	Code string
	// Year is the parsed integer value; YearOK reports parse success.
	Year   int
	YearOK bool
}

// reset readies p for a rebuild from s: every scalar is cleared and every
// buffer slice is cut to length 0 with its capacity kept, so whichever
// measure fills p next appends into arrays p already owns.
func (p *Profile) reset(s string) {
	*p = Profile{Raw: s, Runes: p.Runes[:0], SortedTokenIDs: p.SortedTokenIDs[:0], Grams: p.Grams[:0],
		TermIDs: p.TermIDs[:0], TermKeys: p.TermKeys[:0], Weights: p.Weights[:0]}
}

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
// pair-scoring stage.
type ProfiledSim interface {
	// ProfileInto rebuilds p as this measure's profile of s, reusing p's
	// slices and sc's buffers; everything else in p is overwritten, and
	// p.Raw is s (matchers and the resolver read values back from it). The
	// contract permits interning into the process-global Terms dictionary
	// (token and TF-IDF measures do); read paths profile via QueryInto. A
	// measure that interns is a QueryProfiler; any other runs ProfileInto
	// on several goroutines at once in BuildProfileColumn.
	//
	//moma:interns
	ProfileInto(s string, p *Profile, sc *Scratch)
	// Compare scores two profiles built by this measure, exactly whenever
	// the score is >= floor; otherwise it returns some value < floor,
	// negative when it stopped early (see the package comment above). It
	// must be pure and safe for concurrent use.
	Compare(a, b *Profile, floor float64) float64
}

// QueryProfiler is implemented by the measures whose ProfileInto interns
// tokens. ProfileQueryInto leaves p scoring bit-identically to ProfileInto
// against any profile of interned values, but looks tokens up without
// interning them: a token the dictionary has never seen cannot match
// anything interned, so it contributes only its cardinality (token sets) or
// its weight (TF-IDF norms).
type QueryProfiler interface {
	ProfiledSim
	ProfileQueryInto(s string, p *Profile, sc *Scratch)
}

// NewProfile is the single-value build: a fresh profile of s that the
// caller keeps. A column of values is built by BuildProfileColumn.
func NewProfile(ps ProfiledSim, s string) *Profile {
	w := pairPool.Get().(*pair)
	p := new(Profile)
	ps.ProfileInto(s, p, &w.sc)
	pairPool.Put(w)
	return p
}

// QueryInto is the read side: it rebuilds p as the profile of a query value
// without growing any dictionary — an unbounded stream of distinct queries
// leaves Terms untouched — and, once p and sc have reached the working-set
// high-water mark, without allocating for the measures whose profile holds
// only slices and numbers.
func QueryInto(ps ProfiledSim, s string, p *Profile, sc *Scratch) {
	if qp, ok := ps.(QueryProfiler); ok {
		qp.ProfileQueryInto(s, p, sc)
		return
	}
	//moma:dictgrowth-ok only measures without ProfileQueryInto reach this call, and none of them interns (pinned by TestProfiledFallbacksDoNotIntern)
	ps.ProfileInto(s, p, sc)
}

// pair is the pooled working memory of the calls that bring none of their
// own: a string-form call uses all of it, NewProfile the scratch.
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
	ps.ProfileInto(a, &w.a, &w.sc)
	ps.ProfileInto(b, &w.b, &w.sc)
	s := ps.Compare(&w.a, &w.b, 0)
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

func (funcProfiled) ProfileInto(s string, p *Profile, _ *Scratch) { p.reset(s) }

func (f funcProfiled) Compare(a, b *Profile, _ float64) float64 { return f.fn(a.Raw, b.Raw) }

// --- hashed character n-grams -------------------------------------------

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

type ngramProfiled struct {
	n    int
	dice bool
}

// ProfileInto hashes the character n-grams of the normalized value, padded
// with n-1 leading and trailing sentinels so that prefixes and suffixes
// carry weight, into the sorted, deduplicated 64-bit FNV-1a set Grams. Gram
// strings are never materialized.
func (g ngramProfiled) ProfileInto(s string, p *Profile, sc *Scratch) {
	p.reset(s)
	sc.norm = appendNormalized(sc.norm[:0], s)
	if g.n < 1 || len(sc.norm) == 0 {
		return
	}
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
	p.Grams = slices.Compact(sc.sortHashes(grow(p.Grams, n)[:n]))
	p.sig = signatureOf(p.Grams)
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
func (g ngramProfiled) Compare(a, b *Profile, floor float64) float64 {
	ka, kb := g.Key(a), g.Key(b)
	if g.RowFilter(floor).rejects(&ka, &kb) {
		return stopped
	}
	return g.Merge(a, b, &ka, &kb, floor)
}

// --- token-set measures --------------------------------------------------

type tokenProfiled struct {
	dice bool
}

// ProfileInto interns the value's tokens into Terms.
func (t tokenProfiled) ProfileInto(s string, p *Profile, sc *Scratch) {
	sc.scanTerms(s)
	sc.internTerms()
	t.fill(s, p, sc)
}

// ProfileQueryInto implements QueryProfiler: unknown tokens are counted, not
// interned — they can intersect nothing, but Jaccard and Dice divide by the
// set sizes, which must include them.
func (t tokenProfiled) ProfileQueryInto(s string, p *Profile, sc *Scratch) {
	sc.scanTerms(s)
	t.fill(s, p, sc)
}

// fill builds the token set from the scanned terms: one ID per distinct
// known token, one count per distinct unknown one.
func (tokenProfiled) fill(s string, p *Profile, sc *Scratch) {
	p.reset(s)
	sc.sortTerms()
	ids := grow(p.SortedTokenIDs, len(sc.terms))[:len(sc.terms)]
	k := 0
	for i := 0; i < len(sc.terms); i = sc.runEnd(i) {
		if t := sc.terms[i]; t.known {
			ids[k] = t.id
			k++
		} else {
			p.ExtraTokens++
		}
	}
	slices.Sort(ids[:k])
	p.SortedTokenIDs = ids[:k]
	p.sig = signatureOf(p.SortedTokenIDs)
}

// Compare scores two token-ID sets by a merge-join (setSim) behind the key
// test; unknown query tokens enlarge the set sizes through ExtraTokens
// without being materialized.
func (t tokenProfiled) Compare(a, b *Profile, floor float64) float64 {
	ka, kb := t.Key(a), t.Key(b)
	if t.RowFilter(floor).rejects(&ka, &kb) {
		return stopped
	}
	return t.Merge(a, b, &ka, &kb, floor)
}

// --- equality measures ---------------------------------------------------

type equalProfiled struct{}

func (equalProfiled) ProfileInto(s string, p *Profile, _ *Scratch) { p.reset(s) }

func (equalProfiled) Compare(a, b *Profile, _ float64) float64 {
	if a.Raw == b.Raw {
		return 1
	}
	return 0
}

type equalFoldProfiled struct{}

func (equalFoldProfiled) ProfileInto(s string, p *Profile, _ *Scratch) {
	p.reset(s)
	p.NormSpace = NormalizeSpace(s)
}

func (equalFoldProfiled) Compare(a, b *Profile, _ float64) float64 {
	if strings.EqualFold(a.NormSpace, b.NormSpace) {
		return 1
	}
	return 0
}

// --- rune measures: edit distance and affixes ------------------------------

// runeProfiled is the profiling stage the character-level and
// token-sequence measures share: the runes of the normalized value.
type runeProfiled struct{}

func (runeProfiled) ProfileInto(s string, p *Profile, sc *Scratch) {
	p.reset(s)
	sc.norm = appendNormalized(sc.norm[:0], s)
	p.Runes = appendRunes(grow(p.Runes, len(sc.norm)), sc.norm, 0)
}

type levenshteinProfiled struct{ runeProfiled }

// Compare is the normalized edit similarity
// 1 - dist(a', b') / max(len(a'), len(b')). The distance is at least the
// difference of the lengths, which settles a pair whose lengths alone put it
// under the floor without running the bit-vector kernel (editDistance).
func (levenshteinProfiled) Compare(a, b *Profile, floor float64) float64 {
	ra, rb := a.Runes, b.Runes
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

func (j jaroProfiled) Compare(a, b *Profile, _ float64) float64 {
	if j.winkler {
		return jaroWinklerRunes(a.Runes, b.Runes)
	}
	return jaroRunes(a.Runes, b.Runes)
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
func (m affixProfiled) Compare(a, b *Profile, _ float64) float64 {
	ra, rb := a.Runes, b.Runes
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
// tokens of Runes in place (nextToken).

type mongeElkanProfiled struct{ runeProfiled }

// Compare is the symmetric Monge-Elkan similarity, the mean of its two
// directions.
func (mongeElkanProfiled) Compare(a, b *Profile, _ float64) float64 {
	return clamp01((mongeElkanRunes(a.Runes, b.Runes) + mongeElkanRunes(b.Runes, a.Runes)) / 2)
}

type personNameProfiled struct{ runeProfiled }

func (personNameProfiled) Compare(a, b *Profile, _ float64) float64 {
	return personNameRunes(a.Runes, b.Runes)
}

// --- phonetic and numeric measures ---------------------------------------

type soundexProfiled struct{}

func (soundexProfiled) ProfileInto(s string, p *Profile, _ *Scratch) {
	p.reset(s)
	p.Code = Soundex(s)
}

func (soundexProfiled) Compare(a, b *Profile, _ float64) float64 {
	if a.Code == "" || b.Code == "" {
		return 0
	}
	if a.Code == b.Code {
		return 1
	}
	return 0
}

type yearProfiled struct {
	exact bool
}

func (yearProfiled) ProfileInto(s string, p *Profile, _ *Scratch) {
	p.reset(s)
	p.Year, p.YearOK = parseYearInt(s)
}

func (p yearProfiled) Compare(a, b *Profile, _ float64) float64 {
	if !a.YearOK || !b.YearOK {
		return 0
	}
	switch d := a.Year - b.Year; {
	case d == 0:
		return 1
	case !p.exact && (d == 1 || d == -1):
		return 0.5
	default:
		return 0
	}
}
