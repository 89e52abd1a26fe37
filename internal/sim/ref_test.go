package sim

// Independent string references the single implementations are compared
// against (the counterpart of internal/mapping/ref_test.go): gram sets as
// sorted gram strings, and a dictionary-free TF-IDF cosine. Nothing here
// shares code with the measures beyond Normalize, Tokens and the generic
// set helpers.

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
