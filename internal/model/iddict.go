package model

// Interned object-ID dictionary: dense uint32 ordinals for the mapping core.
//
// The mapping layer stores correspondences as parallel columns of uint32
// ordinals (mapping.Mapping); an IDDict is the symbol table those ordinals
// index into. It mirrors sim.Dict — the term dictionary of PR 4 — but for
// instance IDs, with one deliberate difference: ordinals are DENSE, assigned
// 0..Len()-1 in first-seen order from a single table, so consumers can build
// flat translation arrays and posting structures sized by Len() without the
// shard-interleaved gaps term IDs have. ID volume (one per instance) is
// orders of magnitude below token volume, so a single RWMutex serves the
// write rate that forced sim.Dict to shard.
//
// # Ownership
//
// IDs is the process-global dictionary, and every mapping the program
// builds interns through it: the results of matchers, operators and
// workflows, and the mappings a persistent repository (store.OpenRepository)
// replays from disk. So they all share one ordinal space, and any two of
// them compose, merge and compare ordinal-to-ordinal. There is no second
// space to translate from: the mapping operators reject inputs over
// different dictionaries as a programming error. Ids, a repository's
// replayed ones included, stay interned for the life of the process; every
// repository is held that long anyway.
//
// # Ordinal stability
//
// An IDDict is append-only: an ordinal, once assigned, names the same ID for
// the dictionary's lifetime, so ordinals may be cached in long-lived columns
// without invalidation. Ordinals are meaningful only within their dictionary
// and are not stable across processes; the WAL serializes ID strings, never
// ordinals.

import (
	"strings"
	"sync"
)

// IDDict is a concurrency-safe, append-only ID↔uint32 symbol table with
// dense first-seen ordinals. The zero value is not usable; call NewIDDict
// (or use the global IDs).
type IDDict struct {
	mu   sync.RWMutex
	ords map[ID]uint32 // guarded by mu
	ids  []ID          // guarded by mu

	// block holds AppendOrds' latest ids as substrings, so a batch costs a
	// few blocks, not a string per id; append-only, they never change.
	block strings.Builder // guarded by mu
}

// maxIDBlock caps AppendOrds' blocks, which start small and double.
const maxIDBlock = 64 << 10

// IDs is the process-global default dictionary; see the package comment of
// this file for ownership rules.
var IDs = NewIDDict()

// NewIDDict returns an empty dictionary.
func NewIDDict() *IDDict {
	return &IDDict{ords: make(map[ID]uint32)}
}

// Ord interns id, assigning the next dense ordinal on first sight.
//
//moma:interns
func (d *IDDict) Ord(id ID) uint32 {
	d.mu.RLock()
	ord, ok := d.ords[id]
	d.mu.RUnlock()
	if ok {
		return ord
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if ord, ok = d.ords[id]; ok {
		return ord
	}
	ord = uint32(len(d.ids))
	d.ids = append(d.ids, id)
	d.ords[id] = ord
	return ord
}

// AppendOrds interns a batch of ids and appends their ordinals to dst in
// batch order, assigning new ids exactly the ordinals one Ord per id in
// turn would: a record's ids d₀, r₀, d₁, r₁, … intern as per-row Adds do.
// The batch holds the write lock throughout; concurrent Ord/Lookup callers
// wait. A known id costs a map probe and no allocation, a new one a copy
// into the current block. An empty dictionary sizes its map from the batch.
//
//moma:interns
func (d *IDDict) AppendOrds(dst []uint32, ids [][]byte) []uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.ids) == 0 {
		d.ords = make(map[ID]uint32, len(ids))
	}
	for _, b := range ids {
		ord, ok := d.ords[ID(b)]
		if !ok {
			if d.block.Cap()-d.block.Len() < len(b) {
				size := max(min(2*d.block.Cap(), maxIDBlock), len(b), 64)
				d.block.Reset() // the ids already in the old block keep it alive
				d.block.Grow(size)
			}
			start := d.block.Len()
			d.block.Write(b)
			id := ID(d.block.String()[start:])
			ord = uint32(len(d.ids))
			d.ids = append(d.ids, id)
			d.ords[id] = ord
		}
		dst = append(dst, ord)
	}
	return dst
}

// Lookup returns the ordinal of id without interning it.
func (d *IDDict) Lookup(id ID) (uint32, bool) {
	d.mu.RLock()
	ord, ok := d.ords[id]
	d.mu.RUnlock()
	return ord, ok
}

// IDOf returns the ID an ordinal was assigned for. Passing an ordinal from
// a different dictionary (or a never-assigned one) is a bug; IDOf panics on
// out-of-range ordinals.
func (d *IDDict) IDOf(ord uint32) ID {
	d.mu.RLock()
	id := d.ids[ord]
	d.mu.RUnlock()
	return id
}

// Len returns the number of interned IDs.
func (d *IDDict) Len() int {
	d.mu.RLock()
	n := len(d.ids)
	d.mu.RUnlock()
	return n
}

// All returns the ordinal→ID table as a slice: entry i is the ID of ordinal
// i. The dictionary is append-only, so the returned prefix stays valid
// forever; callers must treat it as read-only. Column-iterating hot loops
// use it to resolve ordinals without per-row locking.
func (d *IDDict) All() []ID {
	d.mu.RLock()
	ids := d.ids[:len(d.ids):len(d.ids)]
	d.mu.RUnlock()
	return ids
}

// SetOrds interns every instance ID of the set in insertion order and
// returns the dense translation column: entry i is the ordinal of the
// instance at set ordinal i (ObjectSet.IDAt). Matchers build this once per
// input — O(n) map hits — and then emit correspondences ordinal-to-ordinal.
func (d *IDDict) SetOrds(s *ObjectSet) []uint32 {
	out := make([]uint32, len(s.order))
	for i, id := range s.order {
		out[i] = d.Ord(id)
	}
	return out
}
