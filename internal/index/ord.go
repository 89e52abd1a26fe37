// Package index provides Ords, the inverted index behind candidate
// generation: which documents share at least so many distinct tokens with a
// probe.
//
// Ords keys postings by dense int ordinals — an ObjectSet's insertion-order
// ordinals in batch token blocking, a live Resolver's slot numbers online —
// and supports incremental Add and Remove, so one resident structure serves
// both the batch blocking path (built once per object-set version and kept
// in the set's column store) and the online resolution path (updated per
// arriving instance, never rebuilt). Candidate probes stream ordinals in
// ascending order, which is the producing set's insertion order.
//
// Tokens are interned term IDs (sim.Dict): the caller tokenizes and interns
// once — batch blocking into the global sim.Terms, a live Resolver into
// its private dictionary — and every Add, Remove and probe after that hashes
// uint32s instead of strings.
//
// Ranked keyword retrieval is not here: the one place that needs it, the
// Google Scholar simulation, carries its own weighted postings
// (sources.GSQuery).
package index

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Ords is an inverted index over dense document ordinals. The zero value is
// not usable; call NewOrds. Methods are not safe for concurrent use; callers
// that share an Ords across goroutines (the live Resolver) synchronize
// around it (EachCandidate is read-only and safe under a shared read lock).
type Ords struct {
	postings map[uint32][]int32
	docs     int
}

// NewOrds returns an empty ordinal index.
func NewOrds() *Ords {
	return &Ords{postings: make(map[uint32][]int32)}
}

// Docs returns the number of indexed documents.
func (x *Ords) Docs() int { return x.docs }

// Terms returns the number of distinct tokens with at least one posting.
func (x *Ords) Terms() int { return len(x.postings) }

// Add indexes the document with the given ordinal under the distinct term
// IDs of toks. Posting lists stay sorted: appends are O(1) for monotonically
// increasing ordinals (the common case — set iteration order, resolver slot
// allocation order) and fall back to a binary-search insert otherwise.
// Adding an ordinal that is already present under a token is a no-op for
// that token, so re-adding a document with its previous tokens is harmless.
func (x *Ords) Add(ord int, toks []uint32) {
	if len(toks) == 0 {
		return
	}
	o := int32(ord)
	added := false
	for i, tok := range toks {
		if seenBefore(toks, i) {
			continue
		}
		list := x.postings[tok]
		if n := len(list); n == 0 || list[n-1] < o {
			x.postings[tok] = append(list, o)
			added = true
			continue
		}
		at := sort.Search(len(list), func(i int) bool { return list[i] >= o })
		if at < len(list) && list[at] == o {
			continue
		}
		list = append(list, 0)
		copy(list[at+1:], list[at:])
		list[at] = o
		x.postings[tok] = list
		added = true
	}
	if added {
		x.docs++
	}
}

// Remove deletes the document's postings. toks must be the token slice the
// ordinal was added with (callers keep it; the live Resolver stores one
// token slice per slot anyway, for exactly this purpose).
func (x *Ords) Remove(ord int, toks []uint32) {
	if len(toks) == 0 {
		return
	}
	o := int32(ord)
	removed := false
	for i, tok := range toks {
		if seenBefore(toks, i) {
			continue
		}
		list := x.postings[tok]
		at := sort.Search(len(list), func(i int) bool { return list[i] >= o })
		if at >= len(list) || list[at] != o {
			continue
		}
		list = append(list[:at], list[at+1:]...)
		removed = true
		if len(list) == 0 {
			delete(x.postings, tok)
		} else {
			x.postings[tok] = list
		}
	}
	if removed {
		x.docs--
	}
}

// probe is the working memory of one EachCandidate call: the posting lists
// the query's tokens hit and the gathered entries of the shorter ones.
type probe struct {
	lists [][]int32
	hits  []int32
}

// probePool recycles the per-probe buffers: a warm probe allocates nothing,
// which keeps EachCandidate's footprint flat however large the index grows.
var probePool = sync.Pool{New: func() any { return new(probe) }}

// EachCandidate streams the ordinals of documents sharing at least minShared
// distinct tokens with toks, in ascending ordinal order, stopping early when
// yield returns false. Per probe, memory is proportional to the number of
// posting entries gathered — independent of the index size — and served from
// a pool, so a warm resolver answers queries without set-sized allocations.
// TestEachCandidateZeroAllocs pins the warm probe at zero heap allocations.
//
// A document found in none but minShared-1 of the lists shares too few tokens
// to be a candidate, so up to that many lists need not be gathered: the
// entries of the others are sorted into runs (a document sharing k of their
// tokens appears k times), and a run short of minShared is looked up in the
// lists set aside, which the ascending runs walk through once. A list is set
// aside when it is longer than all the shorter lists together — then the
// lookups are fewer than the entries they save from the sort. On a vocabulary
// where one token of a query is in a quarter of all documents and the rest
// are rare, that is the difference between sorting the quarter and sorting
// the rest; lists of like length are all gathered, as before.
//
//moma:noalloc
func (x *Ords) EachCandidate(toks []uint32, minShared int, yield func(ord int) bool) {
	if minShared < 1 {
		minShared = 1
	}
	pb := probePool.Get().(*probe)
	lists, hits := pb.lists[:0], pb.hits[:0]
	//moma:noalloc-ok the cleanup closure is stack-allocated: open-coded defer, nothing retains it
	defer func() {
		clear(lists) // the pool must not pin posting lists
		pb.lists, pb.hits = lists[:0], hits[:0]
		probePool.Put(pb)
	}()
	for i, tok := range toks {
		if list := x.postings[tok]; len(list) > 0 && !seenBefore(toks, i) {
			lists = append(lists, list) //moma:noalloc-ok appends into the pooled buffer; grows once to the probe high-water mark
		}
	}
	if len(lists) < minShared {
		return
	}
	gather := 0
	for _, list := range lists {
		gather += len(list)
	}
	long := 0
	for ; long < minShared-1; long++ {
		for j := long + 1; j < len(lists); j++ {
			if len(lists[j]) > len(lists[long]) {
				lists[long], lists[j] = lists[j], lists[long]
			}
		}
		if 2*len(lists[long]) <= gather {
			break
		}
		gather -= len(lists[long])
	}
	for _, list := range lists[long:] {
		hits = append(hits, list...) //moma:noalloc-ok appends into the pooled buffer; grows once to the probe high-water mark
	}
	slices.Sort(hits)
	for i := 0; i < len(hits); {
		ord := hits[i]
		j := i + 1
		for j < len(hits) && hits[j] == ord {
			j++
		}
		shared := j - i
		for l := 0; l < long && shared < minShared; l++ {
			lists[l] = seek(lists[l], ord)
			if len(lists[l]) > 0 && lists[l][0] == ord {
				shared++
			}
		}
		if shared >= minShared && !yield(int(ord)) {
			return
		}
		i = j
	}
}

// seek returns the tail of a sorted posting list from its first entry >= ord
// on: a gallop to bracket the entry, a binary search inside the bracket, so
// walking a list through ascending ords costs the logarithm of each step.
//
//moma:noalloc
func seek(list []int32, ord int32) []int32 {
	bound := 1
	for bound <= len(list) && list[bound-1] < ord {
		bound *= 2
	}
	lo := bound / 2
	at, _ := slices.BinarySearch(list[lo:min(bound, len(list))], ord)
	return list[lo+at:]
}

// seenBefore reports whether toks[i] occurred earlier in toks — an
// allocation-free dedup for the short token slices of blocking attributes.
func seenBefore(toks []uint32, i int) bool {
	for _, prev := range toks[:i] {
		if prev == toks[i] {
			return true
		}
	}
	return false
}

// String summarizes the index.
func (x *Ords) String() string {
	return fmt.Sprintf("ords{docs: %d, terms: %d}", x.docs, len(x.postings))
}
