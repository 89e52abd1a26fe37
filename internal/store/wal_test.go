package store

import (
	"bufio"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mapping"
	"repro/internal/model"
)

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := sampleMapping(5)
	if err := s.Put("pubs", m); err != nil {
		t.Fatal(err)
	}
	s.Put("dropme", sampleMapping(2))
	s.Delete("dropme")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, ok := re.Get("pubs")
	if !ok {
		t.Fatal("pubs not recovered")
	}
	if !got.Equal(m, 1e-12) {
		t.Error("recovered mapping differs")
	}
	if re.Has("dropme") {
		t.Error("deleted mapping should stay deleted after recovery")
	}
}

func TestDropTouchingPersists(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	// "a" appears as a domain id and "B" as a range id; "a"->"A" plus
	// "a"->"B" plus "b"->"B" means dropping "a" removes two rows and
	// dropping "B" afterwards removes the one survivor touching it.
	m := mapping.NewSame(dblpPub, acmPub)
	m.Add("a", "A", 0.9)
	m.Add("a", "B", 0.8)
	m.Add("b", "B", 0.7)
	m.Add("c", "C", 0.6)
	if err := s.Put("live", m); err != nil {
		t.Fatal(err)
	}
	if n, err := s.DropTouching("live", "a"); err != nil || n != 2 {
		t.Fatalf("DropTouching(a) = %d, %v; want 2, nil", n, err)
	}
	if n, err := s.DropTouching("live", "a"); err != nil || n != 0 {
		t.Fatalf("second DropTouching(a) = %d, %v; want 0, nil", n, err)
	}
	if n, err := s.DropTouching("live", "B"); err != nil || n != 1 {
		t.Fatalf("DropTouching(B) = %d, %v; want 1, nil", n, err)
	}
	if n, err := s.DropTouching("absent", "a"); err != nil || n != 0 {
		t.Fatalf("DropTouching on absent mapping = %d, %v; want 0, nil", n, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, ok := re.Get("live")
	if !ok {
		t.Fatal("live not recovered")
	}
	want := mapping.NewSame(dblpPub, acmPub)
	want.Add("c", "C", 0.6)
	if !got.Equal(want, 0) {
		t.Errorf("recovered mapping after drops:\n%v\nwant:\n%v", got, want)
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Put("m", sampleMapping(i+1)) // 10 wal records for the same name
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// After compaction the wal must be empty and the snapshot present.
	walInfo, err := os.Stat(filepath.Join(dir, walFile))
	if err != nil || walInfo.Size() != 0 {
		t.Errorf("wal after compact: size=%v err=%v", walInfo.Size(), err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err != nil {
		t.Errorf("snapshot missing: %v", err)
	}
	s.Put("after", sampleMapping(1))
	s.Close()

	re, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, _ := re.Get("m"); got == nil || got.Len() != 10 {
		t.Errorf("recovered m has %v corrs, want 10", got.Len())
	}
	if !re.Has("after") {
		t.Error("post-compact write lost")
	}
}

func TestCompactOnMemoryStoreFails(t *testing.T) {
	if err := NewRepository().Compact(); err == nil {
		t.Error("Compact on in-memory store should fail")
	}
}

func TestTornWriteTolerated(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("keep", sampleMapping(3))
	s.Close()

	// Simulate a torn final write.
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"put","name":"torn","domain":"Pub`)
	f.Close()

	re, err := OpenRepository(dir)
	if err != nil {
		t.Fatalf("torn trailing record should be tolerated: %v", err)
	}
	defer re.Close()
	if !re.Has("keep") {
		t.Error("intact record lost")
	}
	if re.Has("torn") {
		t.Error("torn record must not be applied")
	}
}

func TestCorruptionMidFileFails(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("a", sampleMapping(1))
	s.Close()

	// Corrupt the first line, then append a valid record: mid-file
	// corruption must be reported, not silently skipped.
	path := filepath.Join(dir, walFile)
	data, _ := os.ReadFile(path)
	data[0] = 'X'
	os.WriteFile(path, data, 0o644)
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	f.WriteString("\n{\"op\":\"del\",\"name\":\"a\"}\n")
	f.Close()

	if _, err := OpenRepository(dir); err == nil {
		t.Error("mid-file corruption should fail recovery")
	}
}

func TestUnknownOpMidFileFails(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, walFile)
	os.WriteFile(path, []byte("{\"op\":\"frob\",\"name\":\"x\"}\n{\"op\":\"del\",\"name\":\"x\"}\n"), 0o644)
	if _, err := OpenRepository(dir); err == nil {
		t.Error("unknown op followed by data should fail")
	}
}

func TestRecoveryPreservesOrder(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenRepository(dir)
	s.Put("z", sampleMapping(1))
	s.Put("a", sampleMapping(1))
	s.Close()
	re, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	names := re.Names()
	if len(names) != 2 || names[0] != "z" || names[1] != "a" {
		t.Errorf("recovered order = %v", names)
	}
}

// TestPutDeltaCrashReplay is the crash-consistency test of the online
// delta path: every PutDelta persists its rows inside the call, so a
// repository reopened from disk — without the writer ever closing, as after
// a crash — holds exactly the acknowledged deltas, including AddMax
// upgrades and interleaved full Puts.
func TestPutDeltaCrashReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	delta := func(rows ...mapping.Correspondence) {
		t.Helper()
		if err := s.PutDelta("live.ACM", dblpPub, acmPub, model.SameMappingType, rows); err != nil {
			t.Fatal(err)
		}
	}
	delta(mapping.Correspondence{Domain: "d1", Range: "r1", Sim: 0.8})
	delta(mapping.Correspondence{Domain: "d2", Range: "r1", Sim: 0.7},
		mapping.Correspondence{Domain: "d2", Range: "r2", Sim: 0.9})
	// AddMax semantics: the higher similarity must win on replay too.
	delta(mapping.Correspondence{Domain: "d1", Range: "r1", Sim: 0.95})
	delta(mapping.Correspondence{Domain: "d1", Range: "r1", Sim: 0.5})
	// An interleaved full Put (the remove path rewrites filtered mappings)
	// must replace, and later deltas must build on it.
	filtered, _ := s.Get("live.ACM")
	if err := s.Put("live.ACM", filtered.Filter(func(c mapping.Correspondence) bool {
		return c.Domain != "d2"
	})); err != nil {
		t.Fatal(err)
	}
	delta(mapping.Correspondence{Domain: "d3", Range: "r3", Sim: 0.6})
	want, _ := s.Get("live.ACM")

	// Crash: reopen from disk without closing the writer (PutDelta flushes
	// per record, so everything acknowledged is on disk).
	re, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, ok := re.Get("live.ACM")
	if !ok {
		t.Fatal("delta mapping not recovered")
	}
	if !got.Equal(want, 0) {
		t.Fatalf("replayed deltas diverge:\ngot  %v\nwant %v", got, want)
	}
	if s, _ := got.Sim("d1", "r1"); s != 0.95 {
		t.Fatalf("AddMax not preserved by replay: sim(d1,r1) = %v, want 0.95", s)
	}
	if len(got.ForDomain("d2")) != 0 {
		t.Fatal("full Put between deltas not replayed as a replacement")
	}
	s.Close()

	// A torn trailing delta record must be dropped, keeping the prefix.
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"add","name":"live.ACM","rows":[{"d":"dX"`)
	f.Close()
	re2, err := OpenRepository(dir)
	if err != nil {
		t.Fatalf("torn trailing delta should be tolerated: %v", err)
	}
	defer re2.Close()
	got2, _ := re2.Get("live.ACM")
	if !got2.Equal(want, 0) {
		t.Fatal("torn delta corrupted the recovered mapping")
	}
	if len(got2.ForDomain("dX")) != 0 {
		t.Fatal("torn delta row must not be applied")
	}
}

// TestPutDeltaCreatesAndEvicts covers delta creation on a fresh name and
// the no-op empty delta.
func TestPutDeltaCreatesAndEvicts(t *testing.T) {
	s := NewRepository()
	if err := s.PutDelta("live.X", dblpPub, acmPub, model.SameMappingType, nil); err != nil {
		t.Fatal(err)
	}
	if s.Has("live.X") {
		t.Fatal("empty delta must not create a mapping")
	}
	if err := s.PutDelta("live.X", dblpPub, acmPub, model.SameMappingType,
		[]mapping.Correspondence{{Domain: "a", Range: "b", Sim: 1}}); err != nil {
		t.Fatal(err)
	}
	m, ok := s.Get("live.X")
	if !ok || m.Len() != 1 || !m.IsSame() {
		t.Fatalf("delta-created mapping = %v (ok=%v)", m, ok)
	}
	if err := s.PutDelta("", dblpPub, acmPub, model.SameMappingType,
		[]mapping.Correspondence{{Domain: "a", Range: "b", Sim: 1}}); err == nil {
		t.Fatal("empty name must be rejected")
	}
}

// TestMappingFromRecordErrors: a record whose endpoints do not parse is
// rejected after its rows decoded, and interns none of their ids. The ids
// are unique to this test, so model.IDs knows them only if replay interned
// them.
func TestMappingFromRecordErrors(t *testing.T) {
	s := NewRepository()
	var rec lineRecord
	for _, line := range []string{
		`{"op":"put","name":"x","domain":"bad","range":"Publication@ACM","type":"same","rows":[{"d":"rejected-put-d","r":"rejected-put-r","s":1}]}`,
		`{"op":"put","name":"x","domain":"Publication@DBLP","range":"bad","type":"same","rows":[{"d":"rejected-put-d","r":"rejected-put-r","s":1}]}`,
		`{"op":"add","name":"x","domain":"bad","range":"Publication@ACM","rows":[{"d":"rejected-add-d","r":"rejected-add-r","s":1}]}`,
		`{"op": "add", "name":"x","domain":"Publication@DBLP","range":"bad","rows":[{"d":"rejected-add-d","r":"rejected-add-r","s":1}]}`,
	} {
		if _, err := s.applyRecord(&rec, "wal", 1, []byte(line)); err == nil {
			t.Errorf("bad LDS should fail: %s", line)
		}
		if len(rec.sims) != 1 {
			t.Errorf("rows should have decoded before the rejection: %s", line)
		}
		for _, id := range rec.ids {
			if _, ok := model.IDs.Lookup(model.ID(id)); ok {
				t.Fatalf("rejected record interned %q: %s", id, line)
			}
		}
	}
	if s.Len() != 0 {
		t.Errorf("rejected records created mappings: %v", s.Names())
	}
}

func TestCloseIdempotentOnMemoryStore(t *testing.T) {
	s := NewRepository()
	if err := s.Close(); err != nil {
		t.Errorf("Close on memory store: %v", err)
	}
}

func TestDeletePersisted(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenRepository(dir)
	m := mapping.NewSame(dblpPub, acmPub)
	m.Add("x", "y", 1)
	s.Put("m", m)
	s.Close()

	s2, _ := OpenRepository(dir)
	s2.Delete("m")
	s2.Close()

	s3, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Has("m") {
		t.Error("delete should survive restart")
	}
}

// TestWALWriterCloseSurfacesErrors pins walWriter.close's durability
// contract: neither a flush failure (buffered records never reached the
// kernel) nor a close failure (deferred write-back error) may be dropped.
func TestWALWriterCloseSurfacesErrors(t *testing.T) {
	newClosedWriter := func(t *testing.T) *walWriter {
		t.Helper()
		f, err := os.Create(filepath.Join(t.TempDir(), "wal"))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return &walWriter{f: f, w: bufio.NewWriter(f)}
	}

	// Close failure with an empty buffer: the flush is a no-op, so the only
	// error is the close's — it must come back.
	w := newClosedWriter(t)
	if err := w.close(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("close with failing fd close: got %v, want ErrClosed", err)
	}

	// Flush failure: buffered bytes that cannot reach the fd must surface,
	// even though the close also fails.
	w = newClosedWriter(t)
	if _, err := w.w.WriteString("pending record\n"); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("close with buffered data and failing fd: got %v, want ErrClosed", err)
	}
}
