package sim

// Independent string references the single implementations are compared
// against (the counterpart of internal/mapping/ref_test.go): gram sets as
// sorted gram strings, a dictionary-free TF-IDF cosine, the edit distance's
// dynamic program, and the token-sequence measures over token strings.
// Nothing here shares code with the measures beyond Normalize, Tokens, the
// string JaroWinkler and the generic set helpers.

import (
	"cmp"
	"math"
	"sort"
)

// ngrams returns the set (deduplicated, sorted) of character n-grams of the
// normalized string as strings, padded with n-1 leading '\x01' and trailing
// '\x02' sentinels. Returns nil for empty input or n < 1.
func ngrams(s string, n int) []string {
	if n < 1 {
		return nil
	}
	norm := Normalize(s)
	if norm == "" {
		return nil
	}
	pad := make([]rune, 0, len(norm)+2*(n-1))
	for i := 0; i < n-1; i++ {
		pad = append(pad, '\x01')
	}
	pad = append(pad, []rune(norm)...)
	for i := 0; i < n-1; i++ {
		pad = append(pad, '\x02')
	}
	if len(pad) < n {
		return nil
	}
	grams := make([]string, 0, len(pad)-n+1)
	for i := 0; i+n <= len(pad); i++ {
		grams = append(grams, string(pad[i:i+n]))
	}
	return uniqueSorted(grams)
}

// overlap is the unbounded merge count |a ∩ b| of two sorted, deduplicated
// slices: the reference the floor-bounded overlapAtLeast is checked against.
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

// refNGram is the Dice (or Jaccard) coefficient over the string gram sets.
func refNGram(a, b string, n int, dice bool) float64 {
	ga, gb := ngrams(a, n), ngrams(b, n)
	if len(ga) == 0 && len(gb) == 0 {
		return 1
	}
	if len(ga) == 0 || len(gb) == 0 {
		return 0
	}
	inter := overlap(ga, gb)
	if dice {
		return clamp01(2 * float64(inter) / float64(len(ga)+len(gb)))
	}
	return clamp01(float64(inter) / float64(len(ga)+len(gb)-inter))
}

// stringTFIDFReference is a from-scratch, dictionary-free TF-IDF cosine:
// document frequencies keyed by token strings, weights computed exactly as
// the corpus does, and the dot product accumulated over the intersection in
// content-key order (the canonical order of the interned implementation).
// It is the string-keyed reference the ID-keyed path must match at eps 0.
type stringTFIDFReference struct {
	docFreq map[string]int
	docs    int
}

func newStringTFIDFReference(docs []string) *stringTFIDFReference {
	r := &stringTFIDFReference{docFreq: make(map[string]int)}
	for _, d := range docs {
		r.docs++
		for _, tok := range uniqueSorted(Tokens(d)) {
			r.docFreq[tok]++
		}
	}
	return r
}

func (r *stringTFIDFReference) remove(doc string) {
	r.docs--
	for _, tok := range uniqueSorted(Tokens(doc)) {
		if r.docFreq[tok] <= 1 {
			delete(r.docFreq, tok)
		} else {
			r.docFreq[tok]--
		}
	}
}

type refTerm struct {
	tok string
	key uint64
	w   float64
}

func (r *stringTFIDFReference) vector(doc string) ([]refTerm, float64) {
	toks := Tokens(doc)
	if len(toks) == 0 {
		return nil, 0
	}
	counts := make(map[string]int)
	for _, tok := range toks {
		counts[tok]++
	}
	out := make([]refTerm, 0, len(counts))
	for tok, c := range counts {
		df := r.docFreq[tok]
		if df < 1 {
			df = 1
		}
		idf := math.Log(1 + float64(r.docs)/float64(df))
		tf := 1 + math.Log(float64(c))
		out = append(out, refTerm{tok: tok, key: dictKey(tok), w: tf * idf})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].key != out[j].key {
			return out[i].key < out[j].key
		}
		return out[i].tok < out[j].tok
	})
	var norm2 float64
	for _, t := range out {
		norm2 += t.w * t.w
	}
	return out, norm2
}

func (r *stringTFIDFReference) cosine(a, b string) float64 {
	va, na := r.vector(a)
	vb, nb := r.vector(b)
	if len(va) == 0 && len(vb) == 0 {
		return 1
	}
	if len(va) == 0 || len(vb) == 0 {
		return 0
	}
	var dot float64
	i, j := 0, 0
	for i < len(va) && j < len(vb) {
		switch {
		case va[i].tok == vb[j].tok:
			dot += va[i].w * vb[j].w
			i++
			j++
		case va[i].key < vb[j].key:
			i++
		case va[i].key > vb[j].key:
			j++
		case va[i].tok < vb[j].tok:
			i++
		default:
			j++
		}
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return clamp01(dot / (math.Sqrt(na) * math.Sqrt(nb)))
}

// editDistanceDP is the Levenshtein distance by the standard two-row
// dynamic program: the oracle of the bit-vector kernel editDistance.
func editDistanceDP(ra, rb []rune) int {
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// refMongeElkan is the string-level Monge-Elkan the rune measure replaced:
// for each token of a, the best inner similarity against any token of b,
// averaged. It is asymmetric.
func refMongeElkan(a, b string, inner Func) float64 {
	return refMongeElkanTokens(Tokens(a), Tokens(b), inner)
}

func refMongeElkanTokens(ta, tb []string, inner Func) float64 {
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	var sum float64
	for _, x := range ta {
		best := 0.0
		for _, y := range tb {
			if s := inner(x, y); s > best {
				best = s
			}
		}
		sum += best
	}
	return clamp01(sum / float64(len(ta)))
}

// refMongeElkanJaroWinkler is the symmetric mean of refMongeElkan in both
// directions with the string JaroWinkler per token pair.
func refMongeElkanJaroWinkler(a, b string) float64 {
	ta, tb := Tokens(a), Tokens(b)
	return clamp01((refMongeElkanTokens(ta, tb, JaroWinkler) + refMongeElkanTokens(tb, ta, JaroWinkler)) / 2)
}

// refPersonName is the string-level PersonName the rune measure replaced:
// Tokens of both names, the string JaroWinkler on the surnames and on
// given-name tokens that are not initials.
func refPersonName(a, b string) float64 {
	ta, tb := Tokens(a), Tokens(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	surname := JaroWinkler(ta[len(ta)-1], tb[len(tb)-1])
	givenA, givenB := ta[:len(ta)-1], tb[:len(tb)-1]
	if len(givenA) == 0 && len(givenB) == 0 {
		return surname
	}
	if len(givenA) == 0 || len(givenB) == 0 {
		return clamp01(0.75 * surname)
	}
	n := min(len(givenA), len(givenB))
	var given float64
	for i := 0; i < n; i++ {
		given += refGivenTokenSim(givenA[i], givenB[i])
	}
	given /= float64(n)
	return clamp01(0.6*surname + 0.4*given)
}

func refGivenTokenSim(x, y string) float64 {
	if x == y {
		return 1
	}
	if len(x) == 0 || len(y) == 0 {
		return 0
	}
	if len([]rune(x)) == 1 || len([]rune(y)) == 1 {
		if []rune(x)[0] == []rune(y)[0] {
			return 0.9
		}
		return 0
	}
	return JaroWinkler(x, y)
}
