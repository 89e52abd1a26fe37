package block

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"repro/internal/par"
)

// Index is an inverted index over dense document ordinals that keeps its
// rows: row ord is the token slice document ord is indexed under, nil for
// none. A probe's scratch is sized by the number of rows, so ordinals should
// count up from 0 without large gaps. The zero value is not usable; call
// NewIndex. Methods are not safe for concurrent use; callers that share an
// Index (the live Resolver) synchronize around it (EachCandidate is
// read-only and safe under a shared read lock).
type Index struct {
	rows     Tokens
	postings map[uint32][]int32
	docs     int // rows with at least one token
}

// NewIndex returns the index over rows: row ord holds document ord's tokens,
// and a token repeated within a row counts once. The index keeps rows, not a
// copy; NewIndex(nil) is the empty index. It is the bulk build of a whole
// column, on every core: the (token, ordinal) postings are sorted by token
// with par.SortKeyRows, which is stable and so keeps each token's ordinals
// ascending, and the lists are laid out in one slab, the repeats dropped,
// under a postings map sized once. Each list is capped at its own end, so a
// later Set that grows it copies it out and one that shrinks it shifts
// entries only inside it: no list writes into its neighbour. The scratch
// grows with the column's postings, not with the largest token ID, which may
// come from the process-wide dictionary.
func NewIndex(rows Tokens) *Index {
	x := &Index{rows: rows}
	plan := par.Split(len(rows), 0)
	offs := make([]int, plan.Chunks()+1) // chunk c's postings start at offs[c]
	for c := range plan.Chunks() {
		lo, hi := plan.Bounds(c)
		offs[c+1] = offs[c]
		for _, toks := range rows[lo:hi] {
			if len(toks) > 0 {
				offs[c+1] += len(toks)
				x.docs++
			}
		}
	}
	pairs := make([]par.KeyRow, offs[plan.Chunks()])
	plan.Run(func(c, lo, hi int) {
		at := offs[c]
		for ord, toks := range rows[lo:hi] {
			for _, tok := range toks {
				pairs[at] = par.KeyRow{Key: uint64(tok), Row: uint32(lo + ord)}
				at++
			}
		}
	})
	pairs, _ = par.SortKeyRows(pairs, nil, 0)
	terms, postings := 0, 0
	for i, p := range pairs {
		if i == 0 || p.Key != pairs[i-1].Key {
			terms++
		}
		if i == 0 || p != pairs[i-1] {
			postings++
		}
	}
	x.postings = make(map[uint32][]int32, terms)
	slab := make([]int32, 0, postings)
	for lo := 0; lo < len(pairs); {
		start, hi := len(slab), lo
		for ; hi < len(pairs) && pairs[hi].Key == pairs[lo].Key; hi++ {
			if hi == lo || pairs[hi].Row != pairs[hi-1].Row {
				slab = append(slab, int32(pairs[hi].Row))
			}
		}
		x.postings[uint32(pairs[lo].Key)] = slab[start:len(slab):len(slab)]
		lo = hi
	}
	return x
}

// Docs returns the number of indexed documents: rows with a token.
func (x *Index) Docs() int { return x.docs }

// Terms returns the number of distinct tokens with at least one posting.
func (x *Index) Terms() int { return len(x.postings) }

// PostingLen returns the number of documents indexed under tok.
func (x *Index) PostingLen(tok uint32) int { return len(x.postings[tok]) }

// Set makes toks row ord, nil for none: the document's postings move from
// the tokens it was indexed under to the distinct tokens of toks, and the
// rows grow to ord+1 when shorter. Set writes the rows NewIndex was given
// and keeps toks, so only the owner of both calls it — a live Resolver, on
// its private rows; a set's cached blocking index is read-only. Posting
// lists stay sorted: appends are O(1) for ascending ordinals (the resolver's
// slot allocation order) and fall back to a binary-search insert otherwise.
func (x *Index) Set(ord int, toks []uint32) {
	for len(x.rows) <= ord {
		x.rows = append(x.rows, nil)
	}
	o := int32(ord)
	if old := x.rows[ord]; len(old) > 0 {
		x.docs--
		for _, tok := range old {
			list := x.postings[tok]
			at := sort.Search(len(list), func(i int) bool { return list[i] >= o })
			if at >= len(list) || list[at] != o {
				continue // a repeated token, gone the first time
			}
			if list = append(list[:at], list[at+1:]...); len(list) == 0 {
				delete(x.postings, tok)
			} else {
				x.postings[tok] = list
			}
		}
	}
	x.rows[ord] = toks
	if len(toks) == 0 {
		return
	}
	x.docs++
	for _, tok := range toks {
		list := x.postings[tok]
		if n := len(list); n == 0 || list[n-1] < o {
			x.postings[tok] = append(list, o)
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
	}
}

// Compact returns the index over the rows keep marks, one entry per row,
// renumbered in order: the k-th kept row becomes row k. The kept tokens are
// copied into one fresh array, so the result shares no storage with x's
// rows, and the rows of the documents left out go with x.
func (x *Index) Compact(keep []bool) *Index {
	kept, postings := 0, 0
	for ord, toks := range x.rows {
		if keep[ord] {
			kept++
			postings += len(toks)
		}
	}
	rows := make(Tokens, 0, kept)
	slab := make([]uint32, 0, postings)
	for ord, toks := range x.rows {
		if !keep[ord] {
			continue
		}
		if start := len(slab); len(toks) > 0 {
			slab = append(slab, toks...)
			toks = slab[start:len(slab):len(slab)]
		}
		rows = append(rows, toks)
	}
	return NewIndex(rows)
}

// probe is the working memory of one EachCandidate call; cnt and seen are
// all-zero between probes.
type probe struct {
	toks  []uint32  // the query's distinct tokens
	lists [][]int32 // the posting lists they hit
	cnt   []uint16  // saturating: gathered lists holding the ordinal
	seen  []uint64  // bit o is set when cnt[o] was touched
}

// probePool recycles the per-probe scratch: a warm probe allocates nothing.
var probePool = sync.Pool{New: func() any { return new(probe) }}

// EachCandidate streams the ordinals of documents sharing at least minShared
// distinct tokens with toks, in ascending ordinal order, stopping early when
// yield returns false. The scratch comes from a pool and holds 2 bytes + 1
// bit per row of the largest index it has served (≈ 212 KB at 100 000
// rows, per goroutine probing at once); a warm probe allocates nothing,
// which TestEachCandidateZeroAllocs pins. Counts saturate at 65 535; a larger
// minShared is served as that.
//
// The posting lists of the query's distinct tokens are counted into the
// scratch, and one ascending walk over the touched bits yields the ordinals
// counted often enough, zeroing as it goes — an early stop or a panic in
// yield zeroes the rest. A document found in none but minShared-1 of the
// lists shares too few tokens to be a candidate, so up to that many lists
// need not be counted: an ordinal short of minShared is looked up in the
// lists set aside, which the ascending walk goes through once. A list is set
// aside when it is over four times as long as all the shorter lists together
// — a lookup costs about what counting and walking four entries does.
func (x *Index) EachCandidate(toks []uint32, minShared int, yield func(ord int) bool) {
	minShared = max(minShared, 1)
	pb := probePool.Get().(*probe)
	if cap(pb.toks) < len(toks) {
		pb.toks, pb.lists = make([]uint32, len(toks)), make([][]int32, len(toks))
	}
	// The headroom keeps an index growing row by row from regrowing the
	// scratch per probe, and fresh counters are as zero as the ones they
	// replace.
	rows := len(x.rows)
	if len(pb.cnt) < rows {
		n := rows + rows/4
		pb.cnt, pb.seen = make([]uint16, n), make([]uint64, (n+63)/64)
	}
	lists, cnt, seen := pb.lists[:0], pb.cnt, pb.seen[:(rows+63)/64]
	w := len(seen) // the scratch is zero below word w: all of it until the count, what the walk has passed after
	defer func() {
		for ; w < len(seen); w++ {
			for word := seen[w]; word != 0; word &= word - 1 {
				cnt[w<<6|bits.TrailingZeros64(word)] = 0
			}
			seen[w] = 0
		}
		clear(lists) // the pool must not pin posting lists
		probePool.Put(pb)
	}()
	distinct := pb.toks[:copy(pb.toks[:len(toks)], toks)]
	slices.Sort(distinct)
	for _, tok := range slices.Compact(distinct) {
		if list := x.postings[tok]; len(list) > 0 {
			lists = lists[:len(lists)+1]
			lists[len(lists)-1] = list
		}
	}
	if len(lists) < minShared {
		return
	}
	minShared = min(minShared, math.MaxUint16)
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
		if len(lists[long]) <= 4*(gather-len(lists[long])) {
			break
		}
		gather -= len(lists[long])
	}
	w = 0
	for _, list := range lists[long:] {
		for _, o := range list {
			n := uint32(cnt[o]) + 1
			cnt[o] = uint16(n - n>>16)
			seen[o>>6] |= 1 << (o & 63)
		}
	}
	for i, word := range seen {
		for w = i; word != 0; word &= word - 1 {
			ord := int32(i<<6 | bits.TrailingZeros64(word))
			shared := int(cnt[ord])
			cnt[ord] = 0
			for l := 0; l < long && shared < minShared; l++ {
				lists[l] = seek(lists[l], ord)
				if len(lists[l]) > 0 && lists[l][0] == ord {
					shared++
				}
			}
			if shared >= minShared && !yield(int(ord)) {
				return
			}
		}
		seen[i] = 0
	}
	w = len(seen)
}

// seek returns the tail of a sorted posting list from its first entry >= ord
// on: a gallop to bracket the entry, a binary search inside the bracket, so
// walking a list through ascending ords costs the logarithm of each step.
func seek(list []int32, ord int32) []int32 {
	bound := 1
	for bound <= len(list) && list[bound-1] < ord {
		bound *= 2
	}
	lo := bound / 2
	at, _ := slices.BinarySearch(list[lo:min(bound, len(list))], ord)
	return list[lo+at:]
}
