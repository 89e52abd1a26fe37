package sources

import (
	"container/heap"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/race"
	"repro/internal/sim"
)

// refIndex is the model.ID-keyed TF-IDF index GSQuery searched through until
// it got its own postings (the former internal/index.Index: Add, AddInstance
// and Search, unchanged but for the lookup call, the guard noted in addIDs
// and a heap capacity that tolerates any k). It is the oracle of the differential tests:
// the paper tables depend on exactly which documents every query returns, in
// which order.
type refIndex struct {
	postings map[uint32][]refPosting
	docLen   map[model.ID]int
	docs     int
}

type refPosting struct {
	doc model.ID
	tf  int
}

// newRefIndex indexes a GS publication set the way NewGSQuery used to.
func newRefIndex(pubs *model.ObjectSet) *refIndex {
	ix := &refIndex{postings: make(map[uint32][]refPosting), docLen: make(map[model.ID]int)}
	pubs.Each(func(in *model.Instance) bool {
		ix.AddInstance(in, "title", "authors")
		return true
	})
	return ix
}

func (ix *refIndex) Add(id model.ID, text string) {
	ix.addIDs(id, sim.Terms.TokenIDs(text))
}

func (ix *refIndex) addIDs(id model.ID, toks []uint32) {
	_, seen := ix.docLen[id]
	if !seen {
		ix.docs++
	}
	ix.docLen[id] += len(toks)
	counts := make(map[uint32]int, len(toks))
	for _, tok := range toks {
		counts[tok]++
	}
	for tok, tf := range counts {
		list := ix.postings[tok]
		// Merge with an existing posting for this doc if present (same doc
		// indexed in several Add calls). The original scanned for one even
		// when the doc was new, which made the build quadratic.
		merged := false
		for i := 0; seen && i < len(list); i++ {
			if list[i].doc == id {
				list[i].tf += tf
				merged = true
				break
			}
		}
		if !merged {
			list = append(list, refPosting{doc: id, tf: tf})
		}
		ix.postings[tok] = list
	}
}

func (ix *refIndex) AddInstance(in *model.Instance, attrs ...string) {
	for _, a := range attrs {
		if v := in.Attr(a); v != "" {
			ix.Add(in.ID, v)
		}
	}
}

type refHit struct {
	ID    model.ID
	Score float64
}

// refHeap is a min-heap of hits used for top-k selection: the weakest hit
// sits at the root and is evicted first.
type refHeap []refHit

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].Score != h[j].Score {
		return h[i].Score < h[j].Score
	}
	return h[i].ID > h[j].ID // prefer smaller ids on equal score
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refHit)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h refHeap) betterThanRoot(hit refHit) bool {
	if hit.Score != h[0].Score {
		return hit.Score > h[0].Score
	}
	return hit.ID < h[0].ID
}

// Search returns the top-k documents for the query under TF-IDF scoring
// with document-length normalization, ranked by descending score (ties by
// ascending id). k <= 0 returns nil.
func (ix *refIndex) Search(query string, k int) []refHit {
	if k <= 0 || ix.docs == 0 {
		return nil
	}
	_, toks := sim.Terms.AppendLookupTokenIDs(query, nil, nil)
	if len(toks) == 0 {
		return nil
	}
	qCounts := make(map[uint32]int, len(toks))
	for _, tok := range toks {
		qCounts[tok]++
	}
	scores := make(map[model.ID]float64)
	// Score query terms in ascending token order: float addition is not
	// associative, so map-order accumulation would leave low-order score
	// bits — and tie-breaks at the heap boundary — nondeterministic.
	qToks := make([]uint32, 0, len(qCounts))
	for tok := range qCounts {
		qToks = append(qToks, tok)
	}
	sort.Slice(qToks, func(i, j int) bool { return qToks[i] < qToks[j] })
	for _, tok := range qToks {
		qtf := qCounts[tok]
		list := ix.postings[tok]
		if len(list) == 0 {
			continue
		}
		idf := math.Log(1 + float64(ix.docs)/float64(len(list)))
		qw := (1 + math.Log(float64(qtf))) * idf
		for _, p := range list {
			dw := (1 + math.Log(float64(p.tf))) * idf
			scores[p.doc] += qw * dw
		}
	}
	if len(scores) == 0 {
		return nil
	}
	h := make(refHeap, 0, min(k, len(scores)))
	heap.Init(&h)
	// Iterate docs in sorted order for full determinism even among equal
	// scores beyond the heap boundary.
	ids := make([]model.ID, 0, len(scores))
	for id := range scores {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		norm := math.Sqrt(float64(ix.docLen[id]) + 1)
		hit := refHit{ID: id, Score: scores[id] / norm}
		if len(h) < k {
			heap.Push(&h, hit)
		} else if h.betterThanRoot(hit) {
			h[0] = hit
			heap.Fix(&h, 0)
		}
	}
	out := make([]refHit, len(h))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(refHit)
	}
	return out
}

// ids returns the hits' ids in rank order, checking on the way that the
// reference itself ranks by descending score, then ascending id.
func (ix *refIndex) ids(t *testing.T, query string, k int) []model.ID {
	t.Helper()
	hits := ix.Search(query, k)
	out := make([]model.ID, len(hits))
	for i, h := range hits {
		out[i] = h.ID
		if i > 0 && (h.Score > hits[i-1].Score || h.Score == hits[i-1].Score && h.ID < hits[i-1].ID) {
			t.Fatalf("reference out of order for %q: %v", query, hits)
		}
	}
	return out
}

// checkAgainstRef asserts that a GSQuery over gs answers exactly as the
// reference does: Search the same ids in the same rank order for every query
// and k, CollectFor over driving the same ids in the same insertion order.
func checkAgainstRef(t *testing.T, gs *Source, driving *model.ObjectSet, queries []string) {
	t.Helper()
	q, ref := NewGSQuery(gs), newRefIndex(gs.Pubs)
	if q.Docs() != ref.docs {
		t.Fatalf("Docs = %d, reference indexed %d", q.Docs(), ref.docs)
	}
	for _, query := range queries {
		for _, k := range []int{-1, 0, 1, 7, 15, math.MaxInt} {
			got, want := q.Search(query, k).IDs(), ref.ids(t, query, k)
			if !slices.Equal(got, want) {
				t.Fatalf("Search(%q, %d):\n got %v\nwant %v", query, k, got, want)
			}
		}
	}
	if driving == nil {
		return
	}
	want := model.NewObjectSet(gs.Pubs.LDS())
	driving.Each(func(in *model.Instance) bool {
		for _, h := range ref.Search(in.Attr("title"), 15) {
			want.Add(gs.Pubs.Get(h.ID))
		}
		return true
	})
	if got := q.CollectFor(driving, "title", 15); !slices.Equal(got.IDs(), want.IDs()) {
		t.Fatalf("CollectFor: %d ids, reference %d, or another order", got.Len(), want.Len())
	}
}

// sampleQueries draws about n queries from a world: DBLP titles, as
// acquisition sends them, and whole GS entries, whose author tokens and
// repeated tokens the titles alone would not exercise.
func sampleQueries(d *Dataset, n int) []string {
	var out []string
	for i := 0; i < d.DBLP.Pubs.Len(); i += max(1, 2*d.DBLP.Pubs.Len()/n) {
		out = append(out, d.DBLP.Pubs.At(i).Attr("title"))
	}
	for i := 0; i < d.GS.Pubs.Len(); i += max(1, 2*d.GS.Pubs.Len()/n) {
		in := d.GS.Pubs.At(i)
		out = append(out, in.Attr("title")+" "+in.Attr("authors")+" "+in.Attr("title"))
	}
	return out
}

// quarterConfig is the benchmark's batch_paper world: PaperConfig with a
// quarter of the GS entries.
func quarterConfig() Config {
	cfg := PaperConfig()
	cfg.GSTargetPublications /= 4
	cfg.GSNoiseDocs /= 4
	return cfg
}

// paperDataset is the full PaperConfig world (64 263 GS entries), generated
// once for the tests that need that scale.
var paperDataset = sync.OnceValue(func() *Dataset { return Generate(PaperConfig()) })

func TestGSQueryMatchesReference(t *testing.T) {
	t.Parallel() // beside TestGenerateManySeeds, the other long one
	t.Run("small", func(t *testing.T) {
		checkAgainstRef(t, smallDataset().GS, smallDataset().DBLP.Pubs, sampleQueries(smallDataset(), 200))
	})
	t.Run("quarter", func(t *testing.T) {
		d := Generate(quarterConfig())
		checkAgainstRef(t, d.GS, d.DBLP.Pubs, sampleQueries(d, 60))
	})
	t.Run("paper", func(t *testing.T) {
		if testing.Short() || race.Enabled {
			t.Skip("the reference needs 8 ms a query at this scale, and several times that under the race detector")
		}
		checkAgainstRef(t, paperDataset().GS, paperDataset().DBLP.Pubs, sampleQueries(paperDataset(), 30))
	})
}
