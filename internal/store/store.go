// Package store implements MOMA's mapping repository (§2.2, Figure 3).
//
// The repository materializes association and same-mappings as relational
// mapping tables under stable names, persistent (write-ahead log plus
// snapshot) or in memory. The intermediate same-mappings of a match
// process, Figure 3's mapping cache, are the step results the workflow
// engine holds.
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

// Store is a named collection of mappings, safe for concurrent use. The
// mappings it builds — a PutDelta's fresh mapping, and every mapping a
// durable repository replays — intern through the process-global
// model.IDs, like every other mapping of the program, so they combine with
// matcher and operator results ordinal-to-ordinal.
type Store struct {
	mu    sync.RWMutex
	maps  map[string]*mapping.Mapping // guarded by mu
	order []string                    // guarded by mu
	// gens counts the changes to each name's mapping (see Generation). It
	// is in memory only and never shrinks, so a name's generation never
	// returns to a value it had.
	gens map[string]uint64 // guarded by mu

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
	// triggered it (the write is already durable in the log); the next fold
	// is tried once walRows reaches acHold, the log having grown past the
	// threshold again. See SetAutoCompact.
	walRows   int     // guarded by mu
	snapRows  int     // guarded by mu
	acRatio   float64 // guarded by mu
	acMinRows int     // guarded by mu
	acHold    int     // guarded by mu
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
	return &Store{maps: make(map[string]*mapping.Mapping), gens: make(map[string]uint64)}
}

// Generation returns the number of changes to the mapping stored under
// name since the store was made: each Put, effective PutDelta,
// DropTouching or Delete of the name, each Clear that removes it, and each
// replayed record that changes it counts one. It is kept in memory only.
// A reader that holds what it derived from a stored mapping compares
// generations to tell whether that mapping moved since, including the
// in-place changes of PutDelta and DropTouching that leave the *Mapping
// the same pointer.
func (s *Store) Generation(name string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gens[name]
}

// SetAutoCompact configures automatic write-ahead-log compaction: once the
// log holds more than ratio× the last snapshot's rows (and at least minRows
// rows), a logged write triggers Compact inline. ratio <= 0 disables
// auto-compaction; manual Compact always works. minRows <= 0 keeps the
// default floor. The defaults are DefaultAutoCompactRatio and
// DefaultAutoCompactMinRows. A write whose auto-fold fails still succeeds
// (its rows are in the log), and the fold is tried again once the log has
// grown past the threshold again.
func (s *Store) SetAutoCompact(ratio float64, minRows int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.acRatio = ratio
	if minRows <= 0 {
		minRows = DefaultAutoCompactMinRows
	}
	s.acMinRows = minRows
}

// noteWALRowsLocked records rows appended to the log and compacts when the
// log has outgrown the snapshot. Callers hold mu and have just appended;
// the append has already succeeded, so a failed fold must not — and does
// not — propagate into the write's result.
func (s *Store) noteWALRowsLocked(rows int) {
	s.walRows += rows
	if s.acRatio <= 0 || s.walRows < s.acMinRows || s.walRows < s.acHold {
		return
	}
	threshold := s.acRatio * float64(max(s.snapRows, 1))
	if float64(s.walRows) < threshold {
		return
	}
	if s.compactLocked() != nil {
		// Not on every write while the fault lasts: a fold rewrites the
		// whole state.
		s.acHold = s.walRows + max(s.acMinRows, int(threshold))
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
	}
	s.maps[name] = m
	s.gens[name]++
	if s.wal != nil {
		s.noteWALRowsLocked(m.Len())
	}
	return nil
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
		m = mapping.New(dom, rng, mtype)
		s.maps[name] = m
		s.order = append(s.order, name)
	}
	for _, c := range rows {
		m.AddMax(c.Domain, c.Range, c.Sim)
	}
	s.gens[name]++
	if s.wal != nil {
		s.noteWALRowsLocked(len(rows))
	}
	return nil
}

// DropTouching removes every correspondence touching id from the named
// mapping in place, reporting how many rows went away. A missing mapping or
// an id with no correspondences is a no-op — nothing is logged, so the
// common serve-path case (removing an instance that never matched) costs
// one scan of the mapping's two ordinal columns and zero log growth. Persistent stores log a compact
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
	s.gens[name]++
	if s.wal != nil {
		s.noteWALRowsLocked(1)
	}
	return removed, nil
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
	s.gens[name]++
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

// Names returns the stored names in first-insertion order: overwriting a
// name keeps its place, as replaying the log does.
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
		s.gens[n]++
		s.order = s.order[1:]
		if s.wal != nil {
			s.noteWALRowsLocked(1)
		}
	}
	return nil
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
