package sim

import (
	"math"
	"testing"
)

func corpusModel() *TFIDF {
	t := NewTFIDF()
	t.AddAll([]string{
		"a formal perspective on the view selection problem",
		"generic schema matching with cupid",
		"the view selection problem revisited",
		"data integration on the web",
		"schema matching survey",
		"query processing on the web",
	})
	return t
}

func TestTFIDFIdentity(t *testing.T) {
	m := corpusModel()
	if got := m.Cosine("generic schema matching with cupid", "generic schema matching with cupid"); math.Abs(got-1) > 1e-9 {
		t.Errorf("self similarity = %v, want 1", got)
	}
}

func TestTFIDFRareTokensDominate(t *testing.T) {
	m := corpusModel()
	// "cupid" is rare, "the/on" are common: sharing the rare token must
	// outscore sharing only stop-words.
	rare := m.Cosine("cupid matching", "generic schema matching with cupid")
	common := m.Cosine("on the", "a formal perspective on the view selection problem")
	if rare <= common {
		t.Errorf("rare overlap (%v) should outscore stop-word overlap (%v)", rare, common)
	}
}

func TestTFIDFEmpty(t *testing.T) {
	m := corpusModel()
	if m.Cosine("", "") != 1 {
		t.Error("both empty should be 1")
	}
	if m.Cosine("x", "") != 0 {
		t.Error("one empty should be 0")
	}
}

func TestTFIDFUnknownTokens(t *testing.T) {
	m := corpusModel()
	got := m.Cosine("zebra quagga", "zebra quagga")
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("unknown-token self similarity = %v, want 1", got)
	}
	if m.Cosine("zebra", "quagga") != 0 {
		t.Error("disjoint unknown tokens should be 0")
	}
}

func TestTFIDFRange(t *testing.T) {
	m := corpusModel()
	pairs := [][2]string{
		{"schema matching", "generic schema matching with cupid"},
		{"view selection", "the view selection problem revisited"},
		{"web data", "data integration on the web"},
	}
	for _, p := range pairs {
		s := m.Cosine(p[0], p[1])
		if s <= 0 || s > 1 {
			t.Errorf("Cosine(%q,%q) = %v, want in (0,1]", p[0], p[1], s)
		}
	}
}

func TestTFIDFDocs(t *testing.T) {
	m := corpusModel()
	if m.Docs() != 6 {
		t.Errorf("Docs = %d, want 6", m.Docs())
	}
}

// TestTFIDFInterleavedAddRemoveCompare is the vector-cache invalidation
// test: Compare/Cosine results observed between interleaved Adds and
// Removes must always equal a corpus freshly built to the same document
// multiset — cached vectors from any earlier corpus state must never leak
// into a later score.
func TestTFIDFInterleavedAddRemoveCompare(t *testing.T) {
	docs := []string{
		"a formal perspective on the view selection problem",
		"generic schema matching with cupid",
		"the view selection problem revisited",
		"data integration on the web",
		"schema matching survey",
		"query processing on the web",
		"view maintenance in warehouses",
		"the the the", // degenerate: single repeated stop-word
		"",            // degenerate: empty document
	}
	type op struct {
		remove bool
		doc    string
	}
	script := []op{
		{false, docs[0]}, {false, docs[1]}, {false, docs[2]},
		{true, docs[1]},
		{false, docs[3]}, {false, docs[4]},
		{true, docs[0]},
		{false, docs[5]}, {false, docs[6]}, {false, docs[7]},
		{true, docs[4]},
		{false, docs[8]}, {false, docs[1]},
		{true, docs[2]}, {true, docs[7]},
	}
	corpus := NewTFIDF()
	resident := map[string]int{} // document multiset currently registered
	for step, o := range script {
		if o.remove {
			corpus.Remove(o.doc)
			resident[o.doc]--
		} else {
			corpus.Add(o.doc)
			resident[o.doc]++
		}
		// Score a fixed probe matrix through both the cached Cosine and the
		// profiled path, against a from-scratch corpus of the same state.
		fresh := NewTFIDF()
		for doc, n := range resident {
			for i := 0; i < n; i++ {
				fresh.Add(doc)
			}
		}
		if corpus.Docs() != fresh.Docs() {
			t.Fatalf("step %d: Docs = %d, fresh %d", step, corpus.Docs(), fresh.Docs())
		}
		ps := corpus.Profiled()
		for _, a := range docs {
			pa := NewProfile(ps, a)
			for _, b := range docs {
				want := fresh.Cosine(a, b)
				if got := corpus.Cosine(a, b); got != want {
					t.Fatalf("step %d: Cosine(%q, %q) = %v, fresh corpus %v (stale cache?)", step, a, b, got, want)
				}
				if got := ps.Compare(pa.Ref(), NewProfile(ps, b).Ref(), 0); got != want {
					t.Fatalf("step %d: profiled(%q, %q) = %v, fresh corpus %v", step, a, b, got, want)
				}
			}
		}
	}
}

// TestTFIDFRemoveRestoresStatistics: adding then removing a document batch
// must leave document frequencies — and therefore every score — exactly
// where they started.
func TestTFIDFRemoveRestoresStatistics(t *testing.T) {
	m := corpusModel()
	a, b := "schema matching", "generic schema matching with cupid"
	before := m.Cosine(a, b)
	extra := []string{"schema schema schema", "matching things with other things", "cupid strikes again"}
	for _, d := range extra {
		m.Add(d)
	}
	if mid := m.Cosine(a, b); mid == before {
		t.Fatalf("adding corpus documents did not move the score (%v); dilution broken", before)
	}
	for _, d := range extra {
		m.Remove(d)
	}
	if after := m.Cosine(a, b); after != before {
		t.Fatalf("add+remove must restore the score exactly: before %v, after %v", before, after)
	}
}
