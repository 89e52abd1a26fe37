package model

import "sync"

// columns is an ObjectSet's store of derived columns — token columns,
// sort-key columns, inverted indexes, similarity profiles: pure functions of
// the set's instances, worth building once per set version instead of once
// per match. Only the set refers to its store, so a column lives exactly as
// long as its set.
type columns struct {
	mu      sync.Mutex
	version uint64      // set version the columns were built at; guarded by mu
	vals    map[any]any // guarded by mu
}

// Column returns the derived column kept under key in the set's store,
// building and keeping it when the store has none for the set's current
// version; hit reports that nothing was built. Keys are comparable values of
// a type private to the deriving package, always used with the same T. The
// column is shared by all callers and read-only.
//
// build runs outside the store's lock: goroutines missing on one key at once
// each build, and all get the first column stored. The store drops every
// column once the set's version has moved, calling Invalidated() on keys
// that have the method. Keys come from a fixed set of derivations (the
// built-in measures, the blockers' columns), so the store stays small.
func Column[T any](s *ObjectSet, key any, build func() T) (col T, hit bool) {
	ver := s.version
	if v, ok := s.cols.get(key, ver); ok {
		return v.(T), true
	}
	return s.cols.put(key, ver, build()).(T), false
}

func (c *columns) get(key any, ver uint64) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.version != ver {
		for k := range c.vals {
			if iv, ok := k.(interface{ Invalidated() }); ok {
				iv.Invalidated()
			}
		}
		c.version, c.vals = ver, nil
	}
	v, ok := c.vals[key]
	return v, ok
}

// put keeps val unless a concurrent builder stored first or the set moved on
// while val was being built, and returns the column to use.
func (c *columns) put(key any, ver uint64, val any) any {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.version != ver {
		return val
	}
	if first, ok := c.vals[key]; ok {
		return first
	}
	if c.vals == nil {
		c.vals = make(map[any]any)
	}
	c.vals[key] = val
	return val
}
