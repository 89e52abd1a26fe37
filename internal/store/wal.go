package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/faultfs"
	"repro/internal/mapping"
	"repro/internal/model"
)

// Persistence: a persistent Store is backed by a directory holding a
// snapshot file plus a write-ahead log of JSON records. On open, the
// snapshot is loaded and the log replayed; Compact folds the log into a
// fresh snapshot. JSON-lines records keep the log append-safe across
// process restarts (unlike a single gob stream).
//
// Records are written by json.Marshal, unchanged, and read straight into
// columns: a line in exactly the writer's layout (keys in order, no
// whitespace, no escapes; decode.go) is scanned by hand, its ids interned
// in one dictionary batch and a "put" bulk-loaded (mapping.FromOrdinals).
// Any other line goes through encoding/json, at its speed, to the same end.
//
// All filesystem access goes through a faultfs.FS seam: production stores
// use the OS passthrough, tests and chaos harnesses inject scripted
// failures (OpenRepositoryFS). A record is durable if and only if it is
// newline-terminated and parseable on disk — replay drops a torn tail, and
// open repairs the log file to that durable prefix before appending, so a
// crash mid-append can never merge the next record into torn garbage.

const (
	snapshotFile = "snapshot.jsonl"
	walFile      = "wal.jsonl"
)

// walRecord is one persisted operation. "put" replaces a whole mapping,
// "add" merges delta rows (AddMax) into an existing or fresh mapping, "drop"
// removes every correspondence touching one instance id, "del" removes a
// whole mapping, "noop" does nothing (Recover's write-path probe).
type walRecord struct {
	Op     string       `json:"op"` // "put", "add", "drop", "del" or "noop"
	Name   string       `json:"name,omitempty"`
	ID     string       `json:"id,omitempty"` // "drop": the touched instance
	Domain string       `json:"domain,omitempty"`
	Range  string       `json:"range,omitempty"`
	Type   string       `json:"type,omitempty"`
	Rows   []corrRecord `json:"rows,omitempty"`
}

// corrRecord is one persisted correspondence.
type corrRecord struct {
	D string  `json:"d"`
	R string  `json:"r"`
	S float64 `json:"s"`
}

type walWriter struct {
	f faultfs.File
	w *bufio.Writer
	// durable is the byte offset of the end of the last fully flushed
	// record: everything at or past it is the torn tail of a failed append,
	// and Recover truncates the file back to it.
	durable int64
}

func (w *walWriter) append(rec walRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := w.w.Write(data); err != nil {
		return err
	}
	if err := w.w.WriteByte('\n'); err != nil {
		return err
	}
	if err := w.w.Flush(); err != nil {
		return err
	}
	w.durable += int64(len(data)) + 1
	storeWALBytes.Add(uint64(len(data)) + 1)
	storeWALRecords.Inc()
	return nil
}

func (w *walWriter) logPut(name string, m *mapping.Mapping) error {
	return w.append(putRecord(name, m))
}

func (w *walWriter) logDelete(name string) error {
	return w.append(walRecord{Op: "del", Name: name})
}

func (w *walWriter) logDrop(name string, id model.ID) error {
	return w.append(walRecord{Op: "drop", Name: name, ID: string(id)})
}

// close flushes and closes the log file. Both errors are durability
// signals: a flush failure means buffered records never reached the kernel,
// and a close failure can surface a deferred write-back error — the flush
// error wins when both fail, but neither is dropped.
func (w *walWriter) close() error {
	if w.f == nil {
		// A degraded store whose Recover got as far as dropping the wounded
		// fd: nothing left to flush or close.
		return nil
	}
	flushErr := w.w.Flush()
	closeErr := w.f.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// putRecord serializes a mapping straight from its columns: rows stream
// through EachOrd and resolve ordinals against the dictionary's id table —
// no []Correspondence copy of the whole table is ever materialized.
func putRecord(name string, m *mapping.Mapping) walRecord {
	rec := walRecord{
		Op:     "put",
		Name:   name,
		Domain: m.Domain().String(),
		Range:  m.Range().String(),
		Type:   string(m.Type()),
	}
	rec.Rows = make([]corrRecord, 0, m.Len())
	ids := m.Dict().All()
	m.EachOrd(func(d, r uint32, s float64) bool {
		rec.Rows = append(rec.Rows, corrRecord{D: string(ids[d]), R: string(ids[r]), S: s})
		return true
	})
	return rec
}

// OpenRepository opens (creating if necessary) a persistent repository in
// dir. The snapshot is loaded first, then the write-ahead log is replayed.
// Replayed mappings intern through the process-global model.IDs, so they
// share one ordinal space with everything else the program builds; the
// replayed ids stay interned for the life of the process, as every
// caller holds its repository that long. Auto-compaction is on at the
// documented defaults (SetAutoCompact).
func OpenRepository(dir string) (*Store, error) {
	return OpenRepositoryFS(dir, faultfs.OS{})
}

// OpenRepositoryFS is OpenRepository with every filesystem operation routed
// through fsys — the injection seam the crash matrix and chaos harness use
// (faultfs.Injector); nil means the OS passthrough. Before the log is
// opened for appending, any torn tail (unterminated or unparseable final
// record — the residue of a crash mid-append) is truncated away so later
// appends can never merge into it.
//
// Construct-then-publish: the store is not shared until OpenRepositoryFS
// returns, so replay touches the guarded fields without mu.
func OpenRepositoryFS(dir string, fsys faultfs.FS) (*Store, error) {
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	s := NewRepository()
	s.fsys = fsys
	s.acRatio = DefaultAutoCompactRatio
	s.acMinRows = DefaultAutoCompactMinRows
	snap, err := s.replayFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		return nil, err
	}
	walPath := filepath.Join(dir, walFile)
	wal, err := s.replayFile(walPath)
	if err != nil {
		return nil, err
	}
	s.snapRows, s.walRows = snap.rows, wal.rows
	if wal.durable < wal.size {
		// Torn tail repair: drop the bytes of the record(s) that never
		// became durable, so the next append starts on a record boundary.
		if err := fsys.Truncate(walPath, wal.durable); err != nil {
			return nil, &StorageError{Op: "wal-truncate", Path: walPath, Err: err}
		}
	}
	f, err := fsys.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open wal: %w", err)
	}
	s.wal = &walWriter{f: f, w: bufio.NewWriter(f), durable: wal.durable}
	s.dir = dir
	return s, nil
}

// replayState reports one replayed file: applied correspondence rows, the
// byte offset just past the last durable (newline-terminated, parseable,
// applied) record, and the file size scanned.
type replayState struct {
	rows    int
	durable int64
	size    int64
}

// replayFile applies all records of a snapshot or log file; a missing file
// is fine. A corrupt or unterminated trailing record (torn write) is
// tolerated — dropped without being applied — but corruption followed by
// further data is an error: that is real damage, not a crash artifact.
//
// Called only from OpenRepositoryFS, before the store is published to any
// other goroutine, so it runs without mu.
func (s *Store) replayFile(path string) (replayState, error) {
	var st replayState
	f, err := s.fsys.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return st, nil
		}
		return st, fmt.Errorf("store: open %s: %w", path, err)
	}
	defer f.Close() //moma:errsink-ok read-only replay fd, nothing buffered to lose
	r := bufio.NewReaderSize(f, 1<<20)
	lineNo := 0
	var pendingErr error
	var rec lineRecord
	for {
		line, readErr := r.ReadBytes('\n')
		if readErr != nil && readErr != io.EOF {
			return st, fmt.Errorf("store: scan %s: %w", path, readErr)
		}
		terminated := len(line) > 0 && line[len(line)-1] == '\n'
		st.size += int64(len(line))
		if len(line) > 0 {
			lineNo++
			if pendingErr != nil {
				// A corrupt record followed by more data is real corruption.
				return st, pendingErr
			}
			body := line
			if terminated {
				body = line[:len(line)-1]
			}
			switch {
			case len(body) == 0:
				// Blank line: tolerated, and safe to append after.
				st.durable = st.size
			case !terminated:
				// An unterminated final record never finished its append —
				// the flush that would have acknowledged it includes the
				// newline — so it is torn even if it happens to parse.
				pendingErr = fmt.Errorf("store: %s line %d: torn unterminated record", path, lineNo)
			default:
				if rows, err := s.applyRecord(&rec, path, lineNo, body); err != nil {
					pendingErr = err
				} else {
					st.rows += rows
					st.durable = st.size
				}
			}
		}
		if readErr == io.EOF {
			// pendingErr on the very last line is a torn write: dropped, the
			// durable prefix before it intact.
			return st, nil
		}
	}
}

// applyRecord decodes one replayed line into rec and applies it, returning
// the number of correspondence rows it contributed (what auto-compaction
// accounting counts). Ids are interned only once the endpoints parse, so a
// rejected record interns nothing. Unparseable lines and unknown ops return
// an error the caller treats as torn-if-final.
//
// Called only during OpenRepositoryFS replay, before the store is
// published, so it runs without mu.
func (s *Store) applyRecord(rec *lineRecord, path string, lineNo int, body []byte) (int, error) {
	if err := rec.decode(body); err != nil {
		return 0, fmt.Errorf("store: %s line %d: %w", path, lineNo, err)
	}
	switch rec.op {
	case "put":
		dom, rng, err := rec.endpoints()
		if err != nil {
			return 0, err
		}
		rec.ords = model.IDs.AppendOrds(rec.ords[:0], rec.ids)
		m := mapping.FromOrdinals(dom, rng, model.MappingType(rec.typ), rec.ords, rec.sims)
		if _, exists := s.maps[rec.name]; !exists {
			s.order = append(s.order, rec.name)
		}
		s.maps[rec.name] = m
		s.gens[rec.name]++
		return len(rec.sims), nil
	case "add":
		m, exists := s.maps[rec.name]
		if !exists {
			dom, rng, err := rec.endpoints()
			if err != nil {
				return 0, err
			}
			m = mapping.New(dom, rng, model.MappingType(rec.typ))
			s.maps[rec.name] = m
			s.order = append(s.order, rec.name)
		}
		rec.ords = model.IDs.AppendOrds(rec.ords[:0], rec.ids)
		for i, sim := range rec.sims {
			m.AddMaxOrd(rec.ords[2*i], rec.ords[2*i+1], sim)
		}
		s.gens[rec.name]++
		return len(rec.sims), nil
	case "drop":
		if m, ok := s.maps[rec.name]; ok {
			m.RemoveTouching(model.ID(rec.id))
			s.gens[rec.name]++
		}
		return 1, nil
	case "del":
		if _, ok := s.maps[rec.name]; ok {
			delete(s.maps, rec.name)
			s.gens[rec.name]++
			for i, n := range s.order {
				if n == rec.name {
					s.order = append(s.order[:i], s.order[i+1:]...)
					break
				}
			}
		}
		return 1, nil
	case "noop":
		// Recover's write-path probe: durable, applies nothing.
		return 0, nil
	default:
		return 0, fmt.Errorf("store: %s line %d: unknown op %q", path, lineNo, rec.op)
	}
}

// endpoints parses the record's domain and range LDS.
func (rec *lineRecord) endpoints() (dom, rng model.LDS, err error) {
	if dom, err = model.ParseLDS(rec.domain); err == nil {
		rng, err = model.ParseLDS(rec.rng)
	}
	if err != nil {
		err = fmt.Errorf("store: record %q: %w", rec.name, err)
	}
	return dom, rng, err
}

// Compact folds the current state into a fresh snapshot and truncates the
// write-ahead log. Only valid for stores opened with OpenRepository.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		// A degraded store's log handle is wounded; Recover first.
		return err
	}
	return s.compactLocked()
}

// compactLocked is Compact under a held write lock — auto-compaction calls
// it from inside logged writes. Every failure path removes the tmp file
// and leaves the current snapshot, log and writer untouched: a partial
// snapshot is never published (the tmp is fsynced before the atomic
// rename), and a failed compaction never wedges subsequent writes.
//
// Callers hold mu.
func (s *Store) compactLocked() error {
	if s.wal == nil || s.dir == "" {
		return fmt.Errorf("store: Compact requires a persistent repository")
	}
	t0 := time.Now()
	snapPath := filepath.Join(s.dir, snapshotFile)
	tmp, err := s.fsys.CreateTemp(s.dir, "snapshot-*.tmp")
	if err != nil {
		return &StorageError{Op: "snapshot-create", Path: snapPath, Err: err}
	}
	cw := &countingWriter{w: tmp}
	w := bufio.NewWriter(cw)
	enc := json.NewEncoder(w)
	for _, name := range s.order {
		if err := enc.Encode(putRecord(name, s.maps[name])); err != nil {
			tmp.Close()               //moma:errsink-ok error path; the encode error wins and the tmp file is removed
			s.fsys.Remove(tmp.Name()) //moma:errsink-ok best-effort rollback of an unpublished tmp file
			return &StorageError{Op: "snapshot-write", Path: tmp.Name(), Err: err}
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()               //moma:errsink-ok error path; the flush error wins and the tmp file is removed
		s.fsys.Remove(tmp.Name()) //moma:errsink-ok best-effort rollback of an unpublished tmp file
		return &StorageError{Op: "snapshot-write", Path: tmp.Name(), Err: err}
	}
	// Sync before the rename: the rename is the commit point, and a crash
	// between rename and write-back would otherwise publish a snapshot whose
	// bytes never reached the disk.
	if err := tmp.Sync(); err != nil {
		tmp.Close()               //moma:errsink-ok error path; the sync error wins and the tmp file is removed
		s.fsys.Remove(tmp.Name()) //moma:errsink-ok best-effort rollback of an unpublished tmp file
		return &StorageError{Op: "snapshot-sync", Path: tmp.Name(), Err: err}
	}
	storeFsyncs.Inc()
	if err := tmp.Close(); err != nil {
		s.fsys.Remove(tmp.Name()) //moma:errsink-ok best-effort rollback of an unpublished tmp file
		return &StorageError{Op: "snapshot-close", Path: tmp.Name(), Err: err}
	}
	if err := s.fsys.Rename(tmp.Name(), snapPath); err != nil {
		s.fsys.Remove(tmp.Name()) //moma:errsink-ok best-effort rollback of an unpublished tmp file
		return &StorageError{Op: "snapshot-rename", Path: snapPath, Err: err}
	}
	// Swap in a truncated log: flush the old writer, open the new one, and
	// only then drop the old fd. Every failure path before the swap leaves
	// s.wal usable, so a failed compaction — which auto-compaction may hit
	// on any logged write — never wedges subsequent writes; the snapshot
	// just renamed is a superset of the surviving log, and replaying both
	// in order converges to the same state.
	walPath := filepath.Join(s.dir, walFile)
	if err := s.wal.w.Flush(); err != nil {
		return &StorageError{Op: "wal-flush", Path: walPath, Err: err}
	}
	f, err := s.fsys.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return &StorageError{Op: "wal-truncate", Path: walPath, Err: err}
	}
	_ = s.wal.f.Close() //moma:errsink-ok old fd already flushed above; the truncated file replaces it
	s.wal = &walWriter{f: f, w: bufio.NewWriter(f)}
	s.snapRows = s.rowsLocked()
	s.walRows = 0
	s.acHold = 0
	storeCompactions.Inc()
	storeCompactionSeconds.Observe(time.Since(t0).Seconds())
	storeSnapshotBytes.Set(cw.n)
	return nil
}

// countingWriter counts bytes on their way to the snapshot file, so
// compaction can report the snapshot size without a second stat.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Close flushes and closes the write-ahead log of a persistent repository;
// it is a no-op for in-memory stores.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.close()
	s.wal = nil
	return err
}
