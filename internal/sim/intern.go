package sim

// Interned term dictionary: integer token IDs for the match hot paths.
//
// Every layer that handles attribute tokens — similarity profiles, TF-IDF
// corpora, the blocking caches, the inverted indexes, the live resolver —
// used to carry Go strings and pay string hashing and string comparison on
// every index probe and pair score. A Dict interns each distinct token once
// and hands out a stable uint32 ID; the hot paths then move IDs around:
// posting maps key by uint32, token-set intersections compare ints, and a
// cached token column is a third of its former size.
//
// # Ownership
//
// Terms is the process-global default dictionary. It backs every structure
// that crosses package or object-set boundaries: the profiled token-set
// measures (a token column's slab of IDs), TF-IDF corpora and document
// vectors (a TF-IDF column's slab of terms), the batch blocking caches
// (block.Tokens columns and their ordinal indexes), and sources.GSQuery
// postings. Sharing one dictionary means a column interned once compares against any index or profile in the
// process without translation. A live Resolver additionally owns a private
// Dict (created by live.NewResolver) for its blocking index, so that
// per-resolver vocabulary is released with the resolver; its scored column
// values still intern into Terms.
//
// Only writes intern. Read-side traffic — index probes (AppendLookupTokenIDs)
// and query-record profiling (QueryInto) — looks tokens up without
// assigning IDs, so dictionaries grow with the data stored, never with the
// queries asked.
//
// # ID stability
//
// A Dict is append-only: an ID, once assigned, names the same string for
// the dictionary's lifetime, so IDs may be cached in long-lived structures
// (profiles, posting lists, resident columns) without invalidation. IDs are
// assigned in first-seen order — the bulk column build (TokenColumn)
// tokenizes on every core and keeps that order — and are meaningful only
// within their dictionary; they are not comparable across dictionaries and
// not stable across processes. Memory grows with the distinct-token
// vocabulary and is never reclaimed — bounded in practice, since
// vocabularies grow sublinearly with the data.
//
// # Where strings still appear
//
// Token-sequence measures (Monge-Elkan, PersonName) score tokens with
// character-level measures (Jaro-Winkler over runes), which interning cannot
// replace; they read the tokens in place from the value's runes (a rune
// column's slab), not from the dictionary. TF-IDF vectors keep a per-term
// uint64 content key (Dict.Key) alongside the ID: the cosine merge must visit common terms in an order that is a
// pure function of the term set — not of dictionary insertion order, which
// differs between an incrementally-grown and a freshly-built corpus — for
// the floating-point dot product to be bit-identical across both. Sorting
// by content key provides that order without string comparisons; the raw
// string is consulted only to break a 64-bit key collision (in practice,
// never).
//
// Dict is safe for concurrent use: reads (Lookup, Str, Key) take a shard
// read lock, interning (ID) upgrades to a shard write lock on first sight
// of a token. The shard index lives in the low bits of every ID, so reverse
// lookup is O(1).

import (
	"strings"
	"sync"

	"repro/internal/par"
)

const (
	dictShardBits = 4
	dictShards    = 1 << dictShardBits
	dictShardMask = dictShards - 1
)

// dictShard holds one shard of the symbol table. strs and keys are aligned:
// entry i of the shard is ID uint32(i)<<dictShardBits | shard.
type dictShard struct {
	mu   sync.RWMutex
	ids  map[string]uint32 // guarded by mu
	strs []string          // guarded by mu
	keys []uint64          // guarded by mu
}

// Dict is a concurrency-safe, append-only string↔uint32 symbol table.
// The zero value is not usable; call NewDict (or use the global Terms).
type Dict struct {
	shards [dictShards]dictShard
}

// Terms is the process-global default dictionary; see the package comment
// for which structures intern through it.
var Terms = NewDict()

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	d := &Dict{}
	for i := range d.shards {
		d.shards[i].ids = make(map[string]uint32)
	}
	return d
}

// dictKey is the 64-bit FNV-1a hash of a token — the shard selector and the
// content key TF-IDF vectors sort by.
func dictKey(tok string) uint64 {
	h := fnvOffset64
	for i := 0; i < len(tok); i++ {
		h ^= uint64(tok[i])
		h *= fnvPrime64
	}
	return h
}

// ID interns tok, assigning a fresh ID on first sight.
//
//moma:interns
func (d *Dict) ID(tok string) uint32 {
	key := dictKey(tok)
	sh := &d.shards[key&dictShardMask]
	sh.mu.RLock()
	id, ok := sh.ids[tok]
	sh.mu.RUnlock()
	if ok {
		return id
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if id, ok = sh.ids[tok]; ok {
		return id
	}
	id = uint32(len(sh.strs))<<dictShardBits | uint32(key&dictShardMask)
	sh.strs = append(sh.strs, tok)
	sh.keys = append(sh.keys, key)
	sh.ids[tok] = id
	return id
}

// Lookup returns the ID of tok without interning it. It is the read-only
// probe entry point: a token never seen by ID cannot appear in any
// ID-keyed structure fed from this dictionary.
func (d *Dict) Lookup(tok string) (uint32, bool) {
	sh := &d.shards[dictKey(tok)&dictShardMask]
	sh.mu.RLock()
	id, ok := sh.ids[tok]
	sh.mu.RUnlock()
	return id, ok
}

// Str returns the string an ID was assigned for. Passing an ID from a
// different dictionary (or a never-assigned one) is a bug; Str panics on
// out-of-range IDs.
func (d *Dict) Str(id uint32) string {
	sh := &d.shards[id&dictShardMask]
	sh.mu.RLock()
	s := sh.strs[id>>dictShardBits]
	sh.mu.RUnlock()
	return s
}

// Key returns the 64-bit content key (FNV-1a of the string) of an interned
// ID — the dictionary-independent sort key of TF-IDF vectors.
func (d *Dict) Key(id uint32) uint64 {
	sh := &d.shards[id&dictShardMask]
	sh.mu.RLock()
	k := sh.keys[id>>dictShardBits]
	sh.mu.RUnlock()
	return k
}

// Len returns the number of interned terms.
func (d *Dict) Len() int {
	n := 0
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.RLock()
		n += len(sh.strs)
		sh.mu.RUnlock()
	}
	return n
}

// TokenIDs tokenizes s (Tokens semantics: Normalize, split on spaces) and
// interns each token in order, duplicates preserved. It is the fused
// tokenize-and-intern entry point for one value (TokenColumn is the one for
// a column); the intermediate []string of Tokens is never materialized.
func (d *Dict) TokenIDs(s string) []uint32 {
	n := Normalize(s)
	if n == "" {
		return nil
	}
	out := make([]uint32, 0, strings.Count(n, " ")+1)
	for len(n) > 0 {
		if sp := strings.IndexByte(n, ' '); sp >= 0 {
			out = append(out, d.ID(n[:sp]))
			n = n[sp+1:]
		} else {
			out = append(out, d.ID(n))
			n = ""
		}
	}
	return out
}

// TokenColumn is TokenIDs over the values of ordinals 0..n-1, built on every
// core: row i equals TokenIDs(value(i)), and the dictionary assigns IDs
// exactly as the serial loop over the values would. value must be safe to
// call from several goroutines.
//
// Each chunk of par.Split(n, 0) numbers its distinct tokens in a chunk-local
// vocabulary, in the order it first meets them, and writes its rows into
// one slab of those numbers. Then the chunks intern their vocabularies one
// after another, in chunk order — the global first-seen order — and rewrite
// their slabs to dictionary IDs in place. So the shard locks are taken once
// per distinct token of a chunk, not once per occurrence. A row is a capped
// window of its chunk's slab, so appending to it copies.
func (d *Dict) TokenColumn(n int, value func(ord int) string) [][]uint32 {
	col := make([][]uint32, n)
	plan := par.Split(n, 0)
	vocabs, slabs := make([][]string, plan.Chunks()), make([][]uint32, plan.Chunks())
	plan.Run(func(c, lo, hi int) {
		local := make(map[string]uint32)
		ends := make([]int, hi-lo)
		var norm []byte
		var vocab []string
		var slab []uint32
		for i := range ends {
			norm = appendNormalized(norm[:0], value(lo+i))
			for start := 0; start < len(norm); {
				end := tokenEnd(norm, start)
				id, ok := local[string(norm[start:end])]
				if !ok {
					id = uint32(len(vocab))
					tok := string(norm[start:end])
					local[tok], vocab = id, append(vocab, tok)
				}
				slab = append(slab, id)
				start = end + 1
			}
			ends[i] = len(slab)
		}
		start := 0
		for i, end := range ends {
			if end > start {
				col[lo+i] = slab[start:end:end]
			}
			start = end
		}
		vocabs[c], slabs[c] = vocab, slab
	})
	ids := make([][]uint32, len(vocabs))
	for c, vocab := range vocabs {
		ids[c] = make([]uint32, len(vocab))
		for i, tok := range vocab {
			ids[c][i] = d.ID(tok)
		}
	}
	plan.Run(func(c, _, _ int) {
		for i, local := range slabs[c] {
			slabs[c][i] = ids[c][local]
		}
	})
	return col
}
