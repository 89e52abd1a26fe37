package sources

import (
	"math"
	"slices"
	"sync"

	"repro/internal/model"
	"repro/internal/sim"
)

// GSQuery is the query-only access path to the Google Scholar simulation.
// Like the real source, it cannot be downloaded: callers obtain
// publications exclusively via keyword queries, exactly how the paper
// collected its GS dataset ("we had to send numerous queries ... Those
// queries contain the publication titles as well as venue names", §5.1).
//
// Queries are ranked by TF-IDF over the titles and author lists. Postings
// are keyed by interned term id (the global sim.Terms) and name documents by
// their insertion ordinal in the GS set, so a query accumulates scores in a
// dense array and reads a model.ID only to break a tie. A GSQuery is safe
// for concurrent use.
type GSQuery struct {
	pubs     *model.ObjectSet
	version  uint64 // pubs.Version() when indexed: the ordinals name that set only
	postings map[uint32][]posting
	docLen   []int32   // tokens per ordinal, repeats counted, title and authors together
	docs     int       // instances with a non-empty title or authors value
	scratch  sync.Pool // of *searchScratch
}

// posting is one document containing a term.
type posting struct {
	ord int32
	w   float64 // 1 + ln tf
}

// searchScratch is the working memory of one search. acc is all zero between
// searches.
type searchScratch struct {
	norm    []byte
	toks    []uint32
	acc     []float64 // score per ordinal
	touched []int32   // ordinals with a non-zero acc
	top     []int32
}

// NewGSQuery builds the search index over the GS publication titles and
// author lists.
func NewGSQuery(gs *Source) *GSQuery {
	n := gs.Pubs.Len()
	q := &GSQuery{
		pubs:     gs.Pubs,
		version:  gs.Pubs.Version(),
		postings: make(map[uint32][]posting),
		docLen:   make([]int32, n),
	}
	q.scratch.New = func() any { return &searchScratch{acc: make([]float64, n)} }
	var toks []uint32
	for ord := 0; ord < n; ord++ {
		title, authors := gs.Pubs.Attr(ord, "title"), gs.Pubs.Attr(ord, "authors")
		if title == "" && authors == "" {
			continue
		}
		q.docs++
		// Title before authors, instance by instance: sim.Terms numbers terms
		// by first sight, and search adds a document's terms up in that order.
		toks = append(append(toks[:0], sim.Terms.TokenIDs(title)...), sim.Terms.TokenIDs(authors)...)
		q.docLen[ord] = int32(len(toks))
		slices.Sort(toks)
		for i := 0; i < len(toks); {
			end := runEnd(toks, i)
			q.postings[toks[i]] = append(q.postings[toks[i]], posting{int32(ord), 1 + math.Log(float64(end-i))})
			i = end
		}
	}
	return q
}

// runEnd returns the end of the run of equal terms that starts at sorted[i].
func runEnd(sorted []uint32, i int) int {
	end := i + 1
	for end < len(sorted) && sorted[end] == sorted[i] {
		end++
	}
	return end
}

// search returns the ordinals of the k best documents for a keyword query,
// best first, in a buffer of sc. A document scores the sum, over the query's
// distinct terms, of (1 + ln qtf)·idf · (1 + ln tf)·idf with
// idf = ln(1 + docs/df), divided by sqrt(docLen + 1); equal scores rank by
// ascending model.ID. Query tokens are looked up, never interned, so
// searching does not grow sim.Terms.
func (q *GSQuery) search(sc *searchScratch, query string, k int) []int32 {
	if q.pubs.Version() != q.version {
		panic("sources: GS publication set changed after NewGSQuery indexed it")
	}
	if k <= 0 {
		return nil
	}
	sc.norm, sc.toks = sim.Terms.AppendLookupTokenIDs(query, sc.norm, sc.toks)
	// Ascending term id: float addition is not associative, so the order the
	// terms are added up in decides a score's low-order bits, and with them
	// which of two near-equal documents makes the cut.
	slices.Sort(sc.toks)
	acc, touched := sc.acc, sc.touched[:0]
	for i := 0; i < len(sc.toks); {
		end := runEnd(sc.toks, i)
		list := q.postings[sc.toks[i]]
		qtf := end - i
		i = end
		if len(list) == 0 {
			continue
		}
		idf := math.Log(1 + float64(q.docs)/float64(len(list)))
		qw := (1 + math.Log(float64(qtf))) * idf
		for _, p := range list {
			if acc[p.ord] == 0 { // every term adds a positive weight
				touched = append(touched, p.ord)
			}
			dw := p.w * idf
			acc[p.ord] += qw * dw
		}
	}
	for _, ord := range touched {
		acc[ord] /= math.Sqrt(float64(q.docLen[ord]) + 1)
	}
	// top is a heap of at most k ordinals with the worst of them at the root,
	// which the rest of touched has to beat; taking the root off repeatedly
	// then leaves top sorted best first.
	n := min(k, len(touched))
	top := append(sc.top[:0], touched[:n]...)
	for i := n/2 - 1; i >= 0; i-- {
		q.siftDown(acc, top, i)
	}
	for _, ord := range touched[n:] {
		if q.worse(acc, top[0], ord) {
			top[0] = ord
			q.siftDown(acc, top, 0)
		}
	}
	for last := n - 1; last > 0; last-- {
		top[0], top[last] = top[last], top[0]
		q.siftDown(acc, top[:last], 0)
	}
	for _, ord := range touched {
		acc[ord] = 0
	}
	sc.touched, sc.top = touched, top
	return top
}

// worse reports whether document a ranks below document b.
func (q *GSQuery) worse(acc []float64, a, b int32) bool {
	if acc[a] != acc[b] {
		return acc[a] < acc[b]
	}
	return q.pubs.IDAt(int(a)) > q.pubs.IDAt(int(b))
}

// siftDown restores the worst-at-the-root heap order of h below position i.
func (q *GSQuery) siftDown(acc []float64, h []int32, i int) {
	for {
		child := 2*i + 1
		if child >= len(h) {
			return
		}
		if r := child + 1; r < len(h) && q.worse(acc, h[r], h[child]) {
			child = r
		}
		if !q.worse(acc, h[child], h[i]) {
			return
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
}

// Search returns the top-k publication instances for a keyword query, best
// first.
//
//moma:readpath
func (q *GSQuery) Search(query string, k int) *model.ObjectSet {
	sc := q.scratch.Get().(*searchScratch)
	top := q.search(sc, query, k)
	ords := make([]int, len(top))
	for i, ord := range top {
		ords[i] = int(ord)
	}
	q.scratch.Put(sc)
	return q.pubs.Pick(ords)
}

// CollectFor simulates the paper's data acquisition: one title query per
// publication of the driving set, unioned into a GS working set in the
// order the results are first seen. k bounds the results kept per query.
//
//moma:readpath
func (q *GSQuery) CollectFor(driving *model.ObjectSet, titleAttr string, k int) *model.ObjectSet {
	sc := q.scratch.Get().(*searchScratch)
	var ords []int
	for i := range driving.Len() {
		for _, ord := range q.search(sc, driving.Attr(i, titleAttr), k) {
			ords = append(ords, int(ord))
		}
	}
	q.scratch.Put(sc)
	return q.pubs.Pick(ords)
}

// Docs reports the total number of indexed GS documents (the source size,
// which is known even though bulk download is not possible).
func (q *GSQuery) Docs() int { return q.docs }
