package index

// Ordinal inverted index: the incremental, allocation-lean counterpart of
// Index for candidate generation.
//
// Index keys postings by model.ID and is built once per match (batch mode).
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

// hitsPool recycles the per-probe posting-gather buffers: a warm probe
// allocates nothing, which keeps EachCandidate's footprint flat however
// large the index grows.
var hitsPool = sync.Pool{New: func() any { return new([]int32) }}

// EachCandidate streams the ordinals of documents sharing at least minShared
// distinct tokens with toks, in ascending ordinal order, stopping early when
// yield returns false. Per probe, memory is proportional to the number of
// posting entries hit — independent of the index size — and served from a
// pool, so a warm resolver answers queries without set-sized allocations.
// TestEachCandidateZeroAllocs pins the warm probe at zero heap allocations.
//
//moma:noalloc
func (x *Ords) EachCandidate(toks []uint32, minShared int, yield func(ord int) bool) {
	if minShared < 1 {
		minShared = 1
	}
	// Gather every posting hit by a distinct query token, then sort and scan
	// runs: a document sharing k distinct tokens appears exactly k times.
	buf := hitsPool.Get().(*[]int32)
	hits := (*buf)[:0]
	for i, tok := range toks {
		if seenBefore(toks, i) {
			continue
		}
		hits = append(hits, x.postings[tok]...) //moma:noalloc-ok appends into the pooled buffer; grows once to the probe high-water mark
	}
	//moma:noalloc-ok the cleanup closure is stack-allocated: open-coded defer, nothing retains it
	defer func() {
		*buf = hits[:0]
		hitsPool.Put(buf)
	}()
	if len(hits) == 0 {
		return
	}
	slices.Sort(hits)
	for i := 0; i < len(hits); {
		j := i + 1
		for j < len(hits) && hits[j] == hits[i] {
			j++
		}
		if j-i >= minShared && !yield(int(hits[i])) {
			return
		}
		i = j
	}
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
