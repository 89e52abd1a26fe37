package sim

import "math"

// TFIDF holds corpus statistics for the TF/IDF cosine measure named in §2.2.
// Build it once from the attribute values of both match inputs, then score
// pairs through Profiled (or, two strings at a time, Cosine). Rare tokens
// then weigh more than stop-words, which is what makes TF/IDF effective on
// titles.
//
// Document frequencies and document vectors are keyed by interned term IDs
// (the global Terms dictionary): registering a document hashes each token
// string once, and everything downstream — idf lookups, vector terms, the
// cosine merge — moves uint32 IDs. Vectors are sorted by the terms' content
// keys (Dict.Key), an order that is a pure function of the term set, so the
// floating-point dot product is bit-identical however the corpus (or the
// dictionary) was grown; see intern.go.
//
// The corpus keeps no document vectors: a vector lives in the Profile its
// measure built, and callers that score many pairs hold those profiles (a
// matcher's profile columns, the live resolver's resident slots). Add and
// Remove must not run concurrently with profiling or with each other; each
// shifts the idf of every term, which stales every profile built before.
type TFIDF struct {
	docFreq map[uint32]int
	docs    int
}

// NewTFIDF returns an empty corpus model.
func NewTFIDF() *TFIDF {
	return &TFIDF{docFreq: make(map[uint32]int)}
}

// Add registers one document (attribute value) with the corpus.
func (t *TFIDF) Add(doc string) {
	t.docs++
	for _, id := range uniqueSorted(Terms.TokenIDs(doc)) {
		t.docFreq[id]++
	}
}

// AddAll registers many documents.
func (t *TFIDF) AddAll(docs []string) {
	for _, d := range docs {
		t.Add(d)
	}
}

// Remove unregisters one previously Added document, reversing its document
// frequencies. Removing a document that was never added corrupts the
// statistics; callers track membership (the live Resolver keeps one raw
// value per slot for exactly this purpose).
func (t *TFIDF) Remove(doc string) {
	t.docs--
	for _, id := range uniqueSorted(Terms.TokenIDs(doc)) {
		if t.docFreq[id] <= 1 {
			delete(t.docFreq, id)
		} else {
			t.docFreq[id]--
		}
	}
}

// Docs returns the number of registered documents.
func (t *TFIDF) Docs() int { return t.docs }

// idf is the smoothed inverse document frequency of a term that occurs in
// df documents. A term the corpus — or the dictionary — has never seen gets
// the maximal weight, as if it occurred in one document.
func (t *TFIDF) idf(df int) float64 {
	if df < 1 {
		df = 1
	}
	return math.Log(1 + float64(t.docs)/float64(df))
}

// Cosine returns the cosine similarity of the tf-idf vectors of a and b.
// Both vectors are built per call; score many pairs through Profiled.
func (t *TFIDF) Cosine(a, b string) float64 { return compare(t.Profiled(), a, b) }

// Profiled returns the corpus cosine as a measure: ProfileInto builds a
// document vector once per attribute value, Compare is the merge dot
// product. Cosine is a method value and therefore opaque to ProfiledOf;
// the corpus-backed callers (match.TFIDFAttribute, a live.Column with TFIDF
// set) score through this.
func (t *TFIDF) Profiled() ProfiledSim { return tfidfProfiled{t: t} }

// tfidfProfiled is uncomparable, like funcProfiled, which keeps its profile
// columns out of the per-set column store: they go stale with every Add and
// Remove of the corpus.
type tfidfProfiled struct {
	t *TFIDF
	_ [0]func()
}

// ProfileInto interns the value's tokens into Terms.
func (p tfidfProfiled) ProfileInto(s string, pr *Profile, sc *Scratch) {
	sc.scanTerms(s)
	sc.internTerms()
	p.fill(s, pr, sc)
}

// ProfileQueryInto implements QueryProfiler: the vector is built with
// lookups only, so scoring a stream of distinct query records never grows
// the dictionary.
func (p tfidfProfiled) ProfileQueryInto(s string, pr *Profile, sc *Scratch) {
	sc.scanTerms(s)
	p.fill(s, pr, sc)
}

// fill builds the tf-idf weight vector from the scanned terms, in content-
// key order. Terms absent from the dictionary cannot match any corpus term
// and are left out of the merge lists, but their weights still enter the
// norm — in the same canonical order and with the same maximal idf an
// interned build gives them (a token unknown to the dictionary has document
// frequency zero in every corpus fed from it) — so a lookup-only vector
// scores bit-identically to an interned one.
func (p tfidfProfiled) fill(s string, pr *Profile, sc *Scratch) {
	pr.reset(s)
	sc.sortTerms()
	n := len(sc.terms)
	ids, keys, weights := grow(pr.TermIDs, n)[:n], grow(pr.TermKeys, n)[:n], grow(pr.Weights, n)[:n]
	k := 0
	for i := 0; i < n; {
		j := sc.runEnd(i)
		t := sc.terms[i]
		df := 0
		if t.known {
			df = p.t.docFreq[t.id]
		}
		w := (1 + math.Log(float64(j-i))) * p.t.idf(df)
		pr.WeightNorm2 += w * w
		if t.known {
			ids[k], keys[k], weights[k] = t.id, t.key, w
			k++
		} else {
			pr.ExtraTokens++
		}
		i = j
	}
	pr.TermIDs, pr.TermKeys, pr.Weights = ids[:k], keys[:k], weights[:k]
}

// Compare is the cosine of two document vectors. The merge walks both term
// lists in content-key order comparing integers; only a 64-bit key collision
// between distinct terms (in practice never) falls back to a string
// comparison to keep the order deterministic. ExtraTokens counts a side's
// un-interned terms (lookup-only query vectors), so the emptiness
// short-circuits see the document's true term count.
func (tfidfProfiled) Compare(a, b *Profile, _ float64) float64 {
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
}
