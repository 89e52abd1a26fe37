package store

// Failure semantics of the persistence layer. Every write-path I/O failure
// surfaces as a typed *StorageError naming the operation and path that
// failed; a failure on the acknowledged-write path (a WAL append)
// additionally transitions the store into a read-only degraded state:
// queries keep answering from memory, mutations fail fast with the cause,
// and an explicit Recover re-verifies the log before lifting the
// degradation. Compaction failures never degrade — the log that made the
// triggering write durable is intact — and never publish a partial
// snapshot (the tmp file is synced before the atomic rename and removed on
// every error path).

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// ErrDegraded is matched (errors.Is) by every mutation rejected because
// the store is in read-only degraded mode. The concrete error also unwraps
// to the *StorageError that caused the degradation.
var ErrDegraded = errors.New("store: degraded (read-only)")

// StorageError is a typed persistence failure: the logical operation
// ("wal-append", "wal-truncate", "snapshot-write", "snapshot-sync",
// "snapshot-rename"), the file involved, and the underlying cause.
type StorageError struct {
	Op   string // logical write site
	Path string // file the operation targeted
	Err  error  // underlying cause
}

func (e *StorageError) Error() string {
	return fmt.Sprintf("store: %s %s: %v", e.Op, e.Path, e.Err)
}

func (e *StorageError) Unwrap() error { return e.Err }

// degradedError is what mutations return while the store is degraded:
// errors.Is(err, ErrDegraded) holds and the chain unwraps to the causing
// *StorageError.
type degradedError struct{ cause error }

func (e *degradedError) Error() string {
	return "store: degraded (read-only), mutation rejected; cause: " + e.cause.Error()
}

func (e *degradedError) Unwrap() error { return e.cause }

// Is matches the ErrDegraded sentinel.
func (e *degradedError) Is(target error) bool { return target == ErrDegraded }

// Degraded returns the *StorageError that transitioned the store into
// read-only degraded mode, or nil while the store is healthy. While
// degraded, reads (Get, Names, String, ...) keep working and every
// mutation fails fast with an error matching ErrDegraded.
func (s *Store) Degraded() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.degraded
}

// writableLocked rejects mutations while degraded. Callers hold mu.
func (s *Store) writableLocked() error {
	if s.degraded == nil {
		return nil
	}
	return &degradedError{cause: s.degraded}
}

// degradeLocked records a failed acknowledged-write-path operation: the
// store transitions to read-only degraded mode and the typed error is
// returned for the caller to surface. Callers hold mu.
func (s *Store) degradeLocked(op, path string, err error) error {
	serr := &StorageError{Op: op, Path: path, Err: err}
	if s.degraded == nil {
		s.degraded = serr
		storeDegraded.Set(1)
		storeDegradations.Inc()
	}
	return serr
}

// Recover re-verifies a degraded store's write path and lifts the
// degradation on success: the write-ahead log is truncated back to its
// durable prefix (removing any torn bytes of the failed append), reopened,
// and probed with a no-op record through the same append-and-flush path
// that failed. On failure the store stays degraded and the typed error is
// returned; Recover may be retried. A healthy store returns nil.
func (s *Store) Recover() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.degraded == nil {
		return nil
	}
	if s.wal == nil {
		// An in-memory store cannot stay degraded: nothing is persisted, so
		// there is nothing to re-verify.
		s.clearDegradedLocked()
		return nil
	}
	path := filepath.Join(s.dir, walFile)
	// Drop the wounded writer. Its buffered bytes are the tail of the
	// failed record; the durable prefix is what the truncate below keeps.
	// (A retried Recover finds f already nil.)
	if s.wal.f != nil {
		_ = s.wal.f.Close() //moma:errsink-ok wounded fd being discarded; the durable prefix is re-verified below
		s.wal.f = nil
	}
	durable := s.wal.durable
	if err := s.fsys.Truncate(path, durable); err != nil {
		return &StorageError{Op: "wal-truncate", Path: path, Err: err}
	}
	f, err := s.fsys.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return &StorageError{Op: "wal-open", Path: path, Err: err}
	}
	w := &walWriter{f: f, w: bufio.NewWriter(f), durable: durable}
	s.wal = w // even on probe failure: the handle is the freshest state for a retry
	if err := w.append(walRecord{Op: "noop"}); err != nil {
		return &StorageError{Op: "wal-append", Path: path, Err: err}
	}
	s.clearDegradedLocked()
	return nil
}

// clearDegradedLocked lifts the degradation. Callers hold mu.
func (s *Store) clearDegradedLocked() {
	s.degraded = nil
	storeDegraded.Set(0)
}
