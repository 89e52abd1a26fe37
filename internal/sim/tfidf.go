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
// The corpus keeps no document vectors: a vector lives in the profile column
// its measure built, and callers that score many pairs hold those columns (a
// matcher's, the live resolver's resident ones). Add and
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
// statistics; callers track membership (the live Resolver keeps the value
// each slot registered for exactly this purpose).
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

func (tfidfProfiled) layout() (layout, int) { return termSlab, 0 }

// ProfileInto interns the value's tokens into Terms.
func (p tfidfProfiled) ProfileInto(s string, c *ProfileColumn, sc *Scratch) {
	sc.scanTerms(s)
	sc.internTerms()
	p.fill(c, sc)
}

// ProfileQueryInto implements QueryProfiler: the vector is built with
// lookups only, so scoring a stream of distinct query records never grows
// the dictionary.
func (p tfidfProfiled) ProfileQueryInto(s string, c *ProfileColumn, sc *Scratch) {
	sc.scanTerms(s)
	p.fill(c, sc)
}

// fill builds the tf-idf weight vector from the scanned terms, in content-
// key order. Terms absent from the dictionary cannot match any corpus term
// and are left out of the slab, but their weights still enter the norm — in
// the same canonical order and with the same maximal idf an interned build
// gives them (a token unknown to the dictionary has document frequency zero
// in every corpus fed from it) — so a lookup-only vector scores
// bit-identically to an interned one.
func (p tfidfProfiled) fill(c *ProfileColumn, sc *Scratch) {
	sc.sortTerms()
	lo := c.terms.end()
	var v tfVec
	for i := 0; i < len(sc.terms); {
		j := sc.runEnd(i)
		t := sc.terms[i]
		df := 0
		if t.known {
			df = p.t.docFreq[t.id]
		}
		w := (1 + math.Log(float64(j-i))) * p.t.idf(df)
		v.norm2 += w * w
		v.n++
		if t.known {
			c.terms.tail = append(c.terms.tail, tfTerm{key: t.key, w: w, id: t.id})
		}
		i = j
	}
	c.pushSpan(lo, c.terms.end())
	c.vecs = append(c.vecs, v)
}

// Compare is the cosine of two document vectors. The merge walks both term
// lists in content-key order comparing integers; only a 64-bit key collision
// between distinct terms (in practice never) falls back to a string
// comparison to keep the order deterministic. A vector's term count includes
// its un-interned terms (lookup-only query vectors), so the emptiness
// short-circuits see the document's true term count.
func (tfidfProfiled) Compare(a, b Ref, _ float64) float64 {
	ta, va := a.terms()
	tb, vb := b.terms()
	if va.n == 0 && vb.n == 0 {
		return 1
	}
	if va.n == 0 || vb.n == 0 {
		return 0
	}
	var dot float64
	i, j := 0, 0
	for i < len(ta) && j < len(tb) {
		switch x, y := &ta[i], &tb[j]; {
		case x.id == y.id:
			dot += x.w * y.w
			i++
			j++
		case x.key < y.key:
			i++
		case x.key > y.key:
			j++
		case Terms.Str(x.id) < Terms.Str(y.id):
			i++
		default:
			j++
		}
	}
	if va.norm2 == 0 || vb.norm2 == 0 {
		return 0
	}
	return clamp01(dot / (math.Sqrt(va.norm2) * math.Sqrt(vb.norm2)))
}
