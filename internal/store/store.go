// Package store implements MOMA's mapping repository and mapping cache
// (§2.2, Figure 3).
//
// The repository materializes association and same-mappings as relational
// mapping tables under stable names; the cache holds intermediate
// same-mappings derived during a match workflow. Both share the Store type:
// the repository is typically persistent (write-ahead log plus snapshot),
// while the cache is an in-memory bounded store.
package store

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/faultfs"
	"repro/internal/mapping"
	"repro/internal/model"
)

// Store is a named collection of mappings, safe for concurrent use.
type Store struct {
	mu    sync.RWMutex
	maps  map[string]*mapping.Mapping // guarded by mu
	order []string                    // guarded by mu

	// dict is the ID dictionary mappings materialized by this store intern
	// through: the process-global model.IDs for in-memory stores (results
	// stored by matchers and operators already live there), a private
	// dictionary for persistent repositories (OpenRepository), so a closed
	// store's replayed vocabulary is released with it. Mappings stored by
	// reference keep whatever dictionary they were built with.
	dict *model.IDDict

	// wal, dir and fsys are set for persistent stores; fsys is the
	// filesystem seam every WAL/snapshot/compaction operation goes through
	// (faultfs.OS in production, an injector under test).
	wal  *walWriter
	dir  string
	fsys faultfs.FS

	// degraded is the *StorageError that flipped the store read-only, nil
	// while healthy. See fault.go (Degraded, Recover).
	degraded error // guarded by mu

	// Auto-compaction state (persistent stores): walRows counts the
	// correspondence rows appended to the log since open/compact, snapRows
	// the rows covered by the last snapshot. When walRows exceeds both
	// acMinRows and acRatio×snapRows, the next logged write folds the log
	// into a fresh snapshot. A failed fold never fails the write that
	// triggered it (the write is already durable in the log): the error is
	// parked in acErr, auto-compaction stands down until a successful
	// manual Compact clears it. See SetAutoCompact.
	walRows   int     // guarded by mu
	snapRows  int     // guarded by mu
	acRatio   float64 // guarded by mu
	acMinRows int     // guarded by mu
	acErr     error   // guarded by mu

	// limit > 0 bounds the number of entries (cache mode); the oldest
	// entries are evicted first.
	limit int
}

// Auto-compaction defaults: a delta-heavy workload may log the same
// mapping's rows many times over, so the write-ahead log is folded into a
// fresh snapshot once it holds 8× the rows of the last snapshot — but never
// for logs under 4096 rows, where replay is cheap and compaction churn
// would dominate.
const (
	DefaultAutoCompactRatio   = 8.0
	DefaultAutoCompactMinRows = 4096
)

// NewRepository returns an in-memory mapping repository without persistence.
func NewRepository() *Store {
	return &Store{maps: make(map[string]*mapping.Mapping), dict: model.IDs}
}

// NewCache returns a bounded in-memory store evicting oldest-first once
// more than limit mappings are held. limit <= 0 means unbounded.
func NewCache(limit int) *Store {
	return &Store{maps: make(map[string]*mapping.Mapping), dict: model.IDs, limit: limit}
}

// SetAutoCompact configures automatic write-ahead-log compaction: once the
// log holds more than ratio× the last snapshot's rows (and at least minRows
// rows), a logged write triggers Compact inline. ratio <= 0 disables
// auto-compaction; manual Compact always works. minRows <= 0 keeps the
// default floor. The defaults are DefaultAutoCompactRatio and
// DefaultAutoCompactMinRows. A write whose auto-fold fails still succeeds
// (its rows are in the log); the failure is reported by AutoCompactErr and
// stops further auto-folds until a manual Compact succeeds.
func (s *Store) SetAutoCompact(ratio float64, minRows int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.acRatio = ratio
	if minRows <= 0 {
		minRows = DefaultAutoCompactMinRows
	}
	s.acMinRows = minRows
}

// AutoCompactErr returns the error of the last failed automatic
// compaction, or nil. While non-nil, auto-compaction stands down (writes
// keep working, the log keeps growing); a successful Compact clears it.
func (s *Store) AutoCompactErr() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.acErr
}

// noteWALRowsLocked records rows appended to the log and compacts when the
// log has outgrown the snapshot. Callers hold mu and have just appended;
// the append has already succeeded, so a failed fold must not — and does
// not — propagate into the write's result.
func (s *Store) noteWALRowsLocked(rows int) {
	s.walRows += rows
	if s.acRatio <= 0 || s.acErr != nil || s.walRows < s.acMinRows {
		return
	}
	base := s.snapRows
	if base < 1 {
		base = 1
	}
	if float64(s.walRows) < s.acRatio*float64(base) {
		return
	}
	if err := s.compactLocked(); err != nil {
		s.acErr = fmt.Errorf("store: auto-compact: %w", err)
	}
}

// rowsLocked counts the correspondence rows of the current state — the
// snapshot size auto-compaction compares the log against.
//
// Callers hold mu.
func (s *Store) rowsLocked() int {
	n := 0
	for _, m := range s.maps {
		n += m.Len()
	}
	return n
}

// Put stores the mapping under name, replacing any previous entry. The
// mapping is stored by reference; callers must not mutate it afterwards
// (Clone first if needed).
func (s *Store) Put(name string, m *mapping.Mapping) error {
	if name == "" {
		return fmt.Errorf("store: empty mapping name")
	}
	if m == nil {
		return fmt.Errorf("store: nil mapping for %q", name)
	}
	t0 := time.Now()
	defer func() { storePutSeconds.Observe(time.Since(t0).Seconds()) }()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	// Log before mutating: a failed append leaves neither memory nor disk
	// with the mapping, so the error truly means "not recorded" — and the
	// append failure flips the store read-only (the log can no longer make
	// acknowledgements durable) until Recover re-verifies it.
	if s.wal != nil {
		if err := s.wal.logPut(name, m); err != nil {
			return s.degradeLocked("wal-append", filepath.Join(s.dir, walFile), err)
		}
	}
	if _, exists := s.maps[name]; !exists {
		s.order = append(s.order, name)
	} else {
		s.touchLocked(name)
	}
	s.maps[name] = m
	if s.wal != nil {
		s.noteWALRowsLocked(m.Len())
	}
	s.evictLocked()
	return nil
}

// touchLocked refreshes an existing entry's age: it moves to the back of
// order so a bounded cache doesn't evict a just-written hot entry as if it
// were the oldest. Callers hold mu.
func (s *Store) touchLocked(name string) {
	for i, n := range s.order {
		if n == name {
			s.order = append(append(s.order[:i:i], s.order[i+1:]...), name)
			break
		}
	}
}

// PutDelta merges delta correspondences into the named mapping in place —
// AddMax per row, so a repeated pair keeps its best similarity — creating
// the mapping (with the given endpoints and type) when absent. Persistent
// stores log only the delta rows to the write-ahead log, inside the same
// critical section as the in-memory mutation: the online resolution path
// records each arrival's same-mapping delta through this entry point, so a
// crash replay reconstructs exactly the deltas that were acknowledged, and
// the log grows with the deltas instead of rewriting the full mapping per
// arrival (which is what Put does).
func (s *Store) PutDelta(name string, dom, rng model.LDS, mtype model.MappingType, rows []mapping.Correspondence) error {
	if name == "" {
		return fmt.Errorf("store: empty mapping name")
	}
	if len(rows) == 0 {
		return nil
	}
	t0 := time.Now()
	defer func() { storeDeltaSeconds.Observe(time.Since(t0).Seconds()) }()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	m, exists := s.maps[name]
	if exists {
		dom, rng, mtype = m.Domain(), m.Range(), m.Type()
	}
	// Log before mutating: a failed append then leaves neither memory nor
	// disk with the rows, so the caller's error truly means "not recorded"
	// and a later crash replay cannot disagree with what was served. The
	// failure also degrades the store: acknowledged writes can no longer be
	// made durable until Recover re-verifies the log.
	if s.wal != nil {
		rec := walRecord{
			Op:     "add",
			Name:   name,
			Domain: dom.String(),
			Range:  rng.String(),
			Type:   string(mtype),
		}
		for _, c := range rows {
			rec.Rows = append(rec.Rows, corrRecord{D: string(c.Domain), R: string(c.Range), S: c.Sim})
		}
		if err := s.wal.append(rec); err != nil {
			return s.degradeLocked("wal-append", filepath.Join(s.dir, walFile), err)
		}
	}
	if !exists {
		m = mapping.NewWithDict(dom, rng, mtype, s.dict)
		s.maps[name] = m
		s.order = append(s.order, name)
	} else {
		// Like Put, writing refreshes the entry's age in cache mode.
		s.touchLocked(name)
	}
	for _, c := range rows {
		m.AddMax(c.Domain, c.Range, c.Sim)
	}
	s.evictLocked()
	if s.wal != nil {
		s.noteWALRowsLocked(len(rows))
	}
	return nil
}

// DropTouching removes every correspondence touching id from the named
// mapping in place, reporting how many rows went away. A missing mapping or
// an id with no correspondences is a no-op — nothing is logged, so the
// common serve-path case (removing an instance that never matched) costs
// two posting probes and zero log growth. Persistent stores log a compact
// "drop" record — O(1) bytes instead of Put's full-table rewrite — before
// mutating, and degrade on an append failure like every other mutation.
func (s *Store) DropTouching(name string, id model.ID) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return 0, err
	}
	m, ok := s.maps[name]
	if !ok || !m.Touches(id) {
		return 0, nil
	}
	if s.wal != nil {
		if err := s.wal.logDrop(name, id); err != nil {
			return 0, s.degradeLocked("wal-append", filepath.Join(s.dir, walFile), err)
		}
	}
	removed := m.RemoveTouching(id)
	if s.wal != nil {
		s.noteWALRowsLocked(1)
	}
	return removed, nil
}

// evictLocked drops oldest entries beyond the limit. Callers hold mu.
func (s *Store) evictLocked() {
	if s.limit <= 0 {
		return
	}
	for len(s.order) > s.limit {
		victim := s.order[0]
		s.order = s.order[1:]
		delete(s.maps, victim)
		if s.wal != nil {
			// Eviction must proceed regardless (it bounds memory), but a
			// failed delete record means replay would resurrect the victim —
			// that is a durability fault, so the store degrades.
			if err := s.wal.logDelete(victim); err != nil {
				_ = s.degradeLocked("wal-append", filepath.Join(s.dir, walFile), err)
			}
		}
	}
}

// Get returns the mapping stored under name.
func (s *Store) Get(name string) (*mapping.Mapping, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.maps[name]
	return m, ok
}

// Delete removes the named mapping; it reports whether it existed. Like
// every mutation it logs before touching memory, degrades the store on an
// append failure, and is rejected while degraded.
func (s *Store) Delete(name string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return false, err
	}
	if _, ok := s.maps[name]; !ok {
		return false, nil
	}
	if s.wal != nil {
		if err := s.wal.logDelete(name); err != nil {
			return false, s.degradeLocked("wal-append", filepath.Join(s.dir, walFile), err)
		}
	}
	delete(s.maps, name)
	for i, n := range s.order {
		if n == name {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	if s.wal != nil {
		s.noteWALRowsLocked(1)
	}
	return true, nil
}

// Has reports whether a mapping is stored under name.
func (s *Store) Has(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.maps[name]
	return ok
}

// Len returns the number of stored mappings.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.maps)
}

// Names returns the stored names in insertion order.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Clear removes all mappings. On a persistent store each removal is logged
// first and, completed, counted like a Delete's (as replay counts it); an
// append failure degrades the store and stops the clear with the
// already-logged prefix removed (memory and log stay in agreement).
func (s *Store) Clear() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	for len(s.order) > 0 {
		n := s.order[0]
		if s.wal != nil {
			if err := s.wal.logDelete(n); err != nil {
				return s.degradeLocked("wal-append", filepath.Join(s.dir, walFile), err)
			}
		}
		delete(s.maps, n)
		s.order = s.order[1:]
		if s.wal != nil {
			s.noteWALRowsLocked(1)
		}
	}
	return nil
}

// Stats summarizes the store for reports.
type Stats struct {
	Mappings        int
	Correspondences int
	SameMappings    int
}

// Summarize computes store statistics.
func (s *Store) Summarize() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{Mappings: len(s.maps)}
	for _, m := range s.maps {
		st.Correspondences += m.Len()
		if m.IsSame() {
			st.SameMappings++
		}
	}
	return st
}

// String lists the store contents.
func (s *Store) String() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, len(s.order))
	copy(names, s.order)
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "store with %d mappings:\n", len(names))
	for _, n := range names {
		m := s.maps[n]
		fmt.Fprintf(&b, "  %-32s %s -> %s (%s), %d corrs\n", n, m.Domain(), m.Range(), m.Type(), m.Len())
	}
	return b.String()
}
