package sources

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/model"
	"repro/internal/race"
)

// gsOf builds a GS source holding one publication per (id, title, authors)
// triple, in the given order; an empty string leaves the attribute out.
func gsOf(docs ...[3]string) *Source {
	pubs := model.NewObjectSet(model.LDS{Type: "Publication", Source: "GS"})
	for _, d := range docs {
		attrs := map[string]string{}
		if d[1] != "" {
			attrs["title"] = d[1]
		}
		if d[2] != "" {
			attrs["authors"] = d[2]
		}
		pubs.AddNew(model.ID(d[0]), attrs)
	}
	return &Source{Name: "GS", Pubs: pubs}
}

func sampleGS() *Source {
	return gsOf(
		[3]string{"p1", "a formal perspective on the view selection problem"},
		[3]string{"p2", "generic schema matching with cupid"},
		[3]string{"p3", "the view selection problem revisited"},
		[3]string{"p4", "data integration on the web"},
		[3]string{"p5", "schema matching a survey"},
	)
}

// searchIDs is Search reduced to the ids it returns, best first.
func searchIDs(q *GSQuery, query string, k int) []model.ID { return q.Search(query, k).IDs() }

func TestSearchRanking(t *testing.T) {
	gs := sampleGS()
	got := searchIDs(NewGSQuery(gs), "view selection problem", 3)
	if len(got) < 2 || !slices.Contains(got[:2], "p1") || !slices.Contains(got[:2], "p3") {
		t.Errorf("top hits should be p1 and p3, got %v", got)
	}
	// Descending score order is the reference's, which checks its own.
	checkAgainstRef(t, gs, nil, []string{"view selection problem", "the schema view data", "schema matching"})
}

func TestSearchTopKBound(t *testing.T) {
	q := NewGSQuery(sampleGS())
	if got := q.Search("the schema view data", 2); got.Len() != 2 {
		t.Errorf("k=2 returned %d hits", got.Len())
	}
	for _, c := range []struct {
		why, query string
		k          int
	}{
		{"k=0", "view", 0},
		{"k<0", "view", -3},
		{"empty query", "", 5},
		{"query that normalises to nothing", " !?, ", 5},
		{"no known token", "zzz qqq", 5},
	} {
		if got := q.Search(c.query, c.k); got.Len() != 0 {
			t.Errorf("%s: got %v, want no hits", c.why, got.IDs())
		}
	}
	if got := searchIDs(q, "zzz cupid qqq", 5); !slices.Equal(got, []model.ID{"p2"}) {
		t.Errorf("unknown tokens beside a known one: got %v, want [p2]", got)
	}
	if got := searchIDs(q, "schema", 1000); len(got) != 2 {
		t.Errorf("k beyond the hits: got %v, want the two schema documents", got)
	}
}

func TestSearchDeterministic(t *testing.T) {
	q := NewGSQuery(sampleGS())
	if a, b := searchIDs(q, "schema matching", 5), searchIDs(q, "schema matching", 5); !slices.Equal(a, b) || len(a) == 0 {
		t.Errorf("search must be deterministic: %v then %v", a, b)
	}
}

func TestRareTokenBeatsStopword(t *testing.T) {
	if got := searchIDs(NewGSQuery(sampleGS()), "cupid", 5); !slices.Equal(got, []model.ID{"p2"}) {
		t.Errorf("cupid should hit only p2, got %v", got)
	}
}

func TestMultiFieldAdd(t *testing.T) {
	q := NewGSQuery(gsOf([3]string{"p1", "schema matching", "Erhard Rahm"}))
	if q.Docs() != 1 {
		t.Errorf("Docs = %d, want 1 (one instance, two fields)", q.Docs())
	}
	for _, query := range []string{"rahm", "schema"} {
		if got := searchIDs(q, query, 1); !slices.Equal(got, []model.ID{"p1"}) {
			t.Errorf("Search(%q) = %v, want [p1]", query, got)
		}
	}
}

func TestSearchTopKSubsetProperty(t *testing.T) {
	// Top-k results are a prefix of top-(k+5) results.
	var docs [][3]string
	for i := 0; i < 50; i++ {
		docs = append(docs, [3]string{fmt.Sprintf("d%02d", i), fmt.Sprintf("token%d shared common text %d", i%7, i%3)})
	}
	q := NewGSQuery(gsOf(docs...))
	f := func(kRaw uint8) bool {
		k := int(kRaw%10) + 1
		small := searchIDs(q, "shared common token1", k)
		big := searchIDs(q, "shared common token1", k+5)
		return len(small) == k && len(big) == k+5 && slices.Equal(big[:k], small)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEmptyIndexSearch(t *testing.T) {
	for _, gs := range []*Source{gsOf(), gsOf([3]string{"p1"})} {
		q := NewGSQuery(gs)
		if got := q.Search("anything", 5); got.Len() != 0 || q.Docs() != 0 {
			t.Errorf("%d attribute-less instances: Docs = %d, hits %v, want none", gs.Pubs.Len(), q.Docs(), got.IDs())
		}
		if got := q.CollectFor(smallDataset().DBLP.Pubs, "title", 5); got.Len() != 0 {
			t.Errorf("CollectFor over an empty source returned %v", got.IDs())
		}
	}
}

// TestSearchScoring pins, case by case, what decides a rank: each case is
// built so that dropping the rule it names would swap its two documents, and
// all of them must agree with the reference.
func TestSearchScoring(t *testing.T) {
	for _, c := range []struct {
		why   string
		gs    *Source
		query string
		want  []model.ID
	}{
		{"equal scores rank by ascending id, not by ordinal",
			gsOf([3]string{"b", "view selection"}, [3]string{"c", "view selection"}, [3]string{"a", "view selection"}),
			"view selection", []model.ID{"a", "b", "c"}},
		{"ids compare as strings",
			gsOf([3]string{"p9", "view"}, [3]string{"p10", "view"}),
			"view", []model.ID{"p10", "p9"}},
		{"a repeated query token weighs more (qtf 2)",
			gsOf([3]string{"a", "alpha"}, [3]string{"b", "beta"}),
			"alpha beta beta", []model.ID{"b", "a"}},
		{"and the other one when that is repeated",
			gsOf([3]string{"a", "alpha"}, [3]string{"b", "beta"}),
			"beta alpha alpha", []model.ID{"a", "b"}},
		{"a token in title and authors counts twice (tf 2)",
			gsOf([3]string{"p1", "gray codes", "jim white"}, [3]string{"p2", "gray codes", "jim gray"}),
			"gray", []model.ID{"p2", "p1"}},
		{"the document length counts the authors' tokens",
			gsOf([3]string{"p1", "gray", "a b c d e f g h"}, [3]string{"p2", "gray x y"}),
			"gray", []model.ID{"p2", "p1"}},
		{"an instance whose only value has no tokens is a document nobody finds",
			gsOf([3]string{"p0", "!!!"}, [3]string{"p1", "view"}, [3]string{"p2", "", "view"}),
			"view", []model.ID{"p1", "p2"}},
	} {
		q := NewGSQuery(c.gs)
		if got := searchIDs(q, c.query, 5); !slices.Equal(got, c.want) {
			t.Errorf("%s: Search(%q) = %v, want %v", c.why, c.query, got, c.want)
		}
		if got := searchIDs(q, c.query, 1); !slices.Equal(got, c.want[:1]) {
			t.Errorf("%s: Search(%q, 1) = %v, want %v", c.why, c.query, got, c.want[:1])
		}
		checkAgainstRef(t, c.gs, nil, []string{c.query})
	}
	if q := NewGSQuery(gsOf([3]string{"p0", "!!!"}, [3]string{"p1", "view"})); q.Docs() != 2 {
		t.Errorf("Docs = %d, want 2: a non-empty value counts even when it has no tokens", q.Docs())
	}
}

// TestCollectForOrder pins the working set's order: first sight, query by
// query in the driving set's order, each query's hits best first.
func TestCollectForOrder(t *testing.T) {
	gs := gsOf(
		[3]string{"g1", "view selection"},
		[3]string{"g2", "schema matching survey"},
		[3]string{"g3", "schema matching"},
		[3]string{"g4", "view maintenance"},
	)
	driving := model.NewObjectSet(model.LDS{Type: "Publication", Source: "DBLP"})
	driving.AddNew("d1", map[string]string{"title": "schema matching"})
	driving.AddNew("d2", nil)
	driving.AddNew("d3", map[string]string{"title": "view selection schema"})
	got := NewGSQuery(gs).CollectFor(driving, "title", 3).IDs()
	if want := []model.ID{"g3", "g2", "g1", "g4"}; !slices.Equal(got, want) {
		t.Errorf("CollectFor = %v, want %v", got, want)
	}
	checkAgainstRef(t, gs, driving, nil)
}

// TestGSQueryPanicsWhenSetChanges: postings name documents by ordinal, so a
// query over a set that has changed since it was indexed must not answer.
func TestGSQueryPanicsWhenSetChanges(t *testing.T) {
	gs := sampleGS()
	q := NewGSQuery(gs)
	gs.Pubs.AddNew("p6", map[string]string{"title": "view maintenance"})
	for name, call := range map[string]func(){
		"Search":     func() { q.Search("view", 3) },
		"CollectFor": func() { q.CollectFor(smallDataset().DBLP.Pubs, "title", 3) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "changed after NewGSQuery") {
					t.Errorf("%s over a changed set: recovered %q, want the changed-set panic", name, msg)
				}
			}()
			call()
		}()
	}
}

// TestGSSearchZeroAllocs pins the pooled scratch: from the second search on,
// ranking a query allocates nothing; only handing out the result set does.
func TestGSSearchZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	q := NewGSQuery(smallDataset().GS)
	title := smallDataset().DBLP.Pubs.At(0).Attr("title")
	hits := 0
	search := func() {
		sc := q.scratch.Get().(*searchScratch)
		hits = len(q.search(sc, title, 15))
		q.scratch.Put(sc)
	}
	if allocs := testing.AllocsPerRun(100, search); allocs != 0 {
		t.Errorf("search allocates %.0f times per run, want 0", allocs)
	}
	if hits == 0 {
		t.Fatal("query matched nothing; fixture broken")
	}
}

// TestGSQueryConcurrentSearch runs the same queries from several goroutines
// at once (go test -race) and expects the sequential answers.
func TestGSQueryConcurrentSearch(t *testing.T) {
	q := NewGSQuery(smallDataset().GS)
	queries := sampleQueries(smallDataset(), 40)
	want := make([][]model.ID, len(queries))
	for i, query := range queries {
		want[i] = searchIDs(q, query, 7)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, query := range queries {
				if got := searchIDs(q, query, 7); !slices.Equal(got, want[i]) {
					t.Errorf("concurrent Search(%q) = %v, want %v", query, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestNewGSQueryPaperScale is the regression test for the quadratic build:
// indexing a document used to scan each of its tokens' posting lists, which
// took 14 s over the paper's 64 263 entries.
func TestNewGSQueryPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the paper-scale world")
	}
	if race.Enabled {
		t.Skip("the deadline is for an uninstrumented build")
	}
	gs := paperDataset().GS
	start := time.Now()
	q := NewGSQuery(gs)
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("NewGSQuery over %d entries took %v, want well under 2s", gs.Pubs.Len(), took)
	}
	if q.Docs() != 64263 {
		t.Errorf("Docs = %d, want 64263", q.Docs())
	}
}
