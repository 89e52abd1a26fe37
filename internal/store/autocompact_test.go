package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/mapping"
	"repro/internal/model"
)

func walLines(t *testing.T, dir string) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, walFile))
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(data), "\n")
}

// TestAutoCompactBoundsDeltaChurn drives a delta-heavy workload — the
// online arrival pattern — and asserts the write-ahead log stays bounded
// instead of growing one row per arrival forever.
func TestAutoCompactBoundsDeltaChurn(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetAutoCompact(2, 32)

	lds := model.LDS{Source: "DBLP", Type: model.Publication}
	maxLines := 0
	for i := 0; i < 500; i++ {
		rows := []mapping.Correspondence{{
			Domain: model.ID(fmt.Sprintf("a%d", i%10)),
			Range:  model.ID(fmt.Sprintf("b%d", i%7)),
			Sim:    0.5 + float64(i%50)/100,
		}}
		if err := s.PutDelta("live.X", lds, lds, model.SameMappingType, rows); err != nil {
			t.Fatal(err)
		}
		if n := walLines(t, dir); n > maxLines {
			maxLines = n
		}
	}
	// Compaction triggers once the log holds max(minRows, ratio×snapshot)
	// rows; with ≤70 live rows and ratio 2 the log can never pass ~140
	// lines plus one in-flight batch. Without auto-compaction it would
	// reach 500.
	if maxLines > 200 {
		t.Fatalf("delta churn grew the log to %d lines; auto-compaction should bound it", maxLines)
	}

	// The compacted store replays to the same state.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	m, ok := re.Get("live.X")
	if !ok {
		t.Fatal("mapping lost across auto-compacted reopen")
	}
	if m.Len() != 70 { // 10 domains × 7 ranges
		t.Fatalf("replayed mapping has %d rows, want 70", m.Len())
	}
}

// TestAutoCompactResumesAfterFailedFold fails one fold (ENOSPC on the
// snapshot's tmp file) under delta churn: the write that triggered it
// stands, and auto-compaction resumes once the log has grown past the
// threshold again, so the log stays as bounded as without the fault.
func TestAutoCompactResumesAfterFailedFold(t *testing.T) {
	dir := t.TempDir()
	s, inj := openInjected(t, dir)
	defer s.Close()
	s.SetAutoCompact(2, 32)
	inj.Inject(faultfs.Rule{Op: faultfs.OpWrite, Path: "snapshot-", Err: syscall.ENOSPC})

	lds := model.LDS{Source: "DBLP", Type: model.Publication}
	maxLines := 0
	for i := 0; i < 2000; i++ {
		rows := []mapping.Correspondence{{
			Domain: model.ID(fmt.Sprintf("a%d", i%10)),
			Range:  model.ID(fmt.Sprintf("b%d", i%7)),
			Sim:    0.5 + float64(i%50)/100,
		}}
		if err := s.PutDelta("live.X", lds, lds, model.SameMappingType, rows); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		maxLines = max(maxLines, walLines(t, dir))
	}
	if len(inj.Fired()) != 1 {
		t.Fatalf("the fault fired %d times, want once: %v", len(inj.Fired()), inj.Fired())
	}
	if maxLines > 200 {
		t.Fatalf("after one failed fold the log grew to %d lines; auto-compaction should have resumed", maxLines)
	}
	if s.Degraded() != nil {
		t.Fatalf("a failed fold must not degrade the store: %v", s.Degraded())
	}
}

// TestAutoCompactBoundsPutChurn rewrites the same mapping repeatedly (the
// batch pattern: every Put logs the full table) and asserts the log folds.
func TestAutoCompactBoundsPutChurn(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetAutoCompact(2, 32)

	lds := model.LDS{Source: "DBLP", Type: model.Publication}
	m := mapping.NewSame(lds, lds)
	for i := 0; i < 50; i++ {
		m.Add(model.ID(fmt.Sprintf("a%d", i)), model.ID(fmt.Sprintf("b%d", i)), 1)
	}
	for i := 0; i < 40; i++ {
		if err := s.Put("m", m); err != nil {
			t.Fatal(err)
		}
	}
	if n := walLines(t, dir); n > 4 {
		t.Fatalf("put churn left %d log records; auto-compaction should fold them", n)
	}
	if got, _ := s.Get("m"); got.Len() != 50 {
		t.Fatalf("state corrupted by auto-compaction: %d rows", got.Len())
	}
}

// TestAutoCompactDisabled pins that a zero ratio turns the feature off and
// manual Compact still works.
func TestAutoCompactDisabled(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetAutoCompact(0, 0)

	lds := model.LDS{Source: "DBLP", Type: model.Publication}
	for i := 0; i < 100; i++ {
		rows := []mapping.Correspondence{{Domain: "a", Range: model.ID(fmt.Sprintf("b%d", i)), Sim: 1}}
		if err := s.PutDelta("live.X", lds, lds, model.SameMappingType, rows); err != nil {
			t.Fatal(err)
		}
	}
	if n := walLines(t, dir); n != 100 {
		t.Fatalf("disabled auto-compaction should leave all %d records, got %d", 100, n)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := walLines(t, dir); n != 0 {
		t.Fatalf("manual Compact left %d log records", n)
	}
}

// TestOpenRepositoryCountsExistingLog pins that a reopened store knows its
// log size: writes after reopen keep the bound without waiting for another
// full ratio's worth of rows.
func TestOpenRepositoryCountsExistingLog(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SetAutoCompact(0, 0) // accumulate a log without compaction
	lds := model.LDS{Source: "DBLP", Type: model.Publication}
	for i := 0; i < 90; i++ {
		rows := []mapping.Correspondence{{Domain: "a", Range: model.ID(fmt.Sprintf("b%d", i)), Sim: 1}}
		if err := s.PutDelta("live.X", lds, lds, model.SameMappingType, rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	re.SetAutoCompact(0.5, 16) // log (90 rows) already far past ratio×snapshot (0 rows)
	rows := []mapping.Correspondence{{Domain: "a", Range: "z", Sim: 1}}
	if err := re.PutDelta("live.X", lds, lds, model.SameMappingType, rows); err != nil {
		t.Fatal(err)
	}
	if n := walLines(t, dir); n != 0 {
		t.Fatalf("first write after reopen should have compacted the inherited log, %d records remain", n)
	}
}

// TestWALRowsMatchReopen: the live store and its reopened self agree on the
// auto-compaction counters after every step of a history of every logged
// write — repeated delta pairs, drops, deletes, a compaction, a degraded
// append and its Recover, and a Clear — so a reopen never moves the point
// at which the log folds.
func TestWALRowsMatchReopen(t *testing.T) {
	dir := t.TempDir()
	s, inj := openInjected(t, dir)
	defer s.Close()
	delta := func(rows ...mapping.Correspondence) error {
		return s.PutDelta("live", dblpPub, acmPub, model.SameMappingType, rows)
	}
	counts := func(s *Store) [2]int {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return [2]int{s.walRows, s.snapRows}
	}
	steps := []struct {
		name string
		do   func() error
	}{
		{"put a", func() error { return s.Put("a", sampleMapping(3)) }},
		{"put b", func() error { return s.Put("b", sampleMapping(2)) }},
		{"delta with repeated pairs", func() error {
			return delta(mapping.Correspondence{Domain: "x", Range: "y", Sim: 0.5},
				mapping.Correspondence{Domain: "x", Range: "y", Sim: 0.7},
				mapping.Correspondence{Domain: "z", Range: "y", Sim: 0.2})
		}},
		{"drop", func() error { _, err := s.DropTouching("live", "x"); return err }},
		{"delete", func() error { _, err := s.Delete("b"); return err }},
		{"compact", s.Compact},
		{"put c", func() error { return s.Put("c", sampleMapping(4)) }},
		{"degraded delta", func() error {
			inj.Inject(faultfs.Rule{Op: faultfs.OpWrite, Path: "wal.jsonl", Kind: faultfs.KindShortWrite, N: 5})
			if err := delta(mapping.Correspondence{Domain: "lost", Range: "y", Sim: 1}); err == nil {
				t.Fatal("faulted delta must fail")
			}
			inj.ClearFaults()
			return s.Recover()
		}},
		{"delta after recover", func() error { return delta(mapping.Correspondence{Domain: "w", Range: "v", Sim: 1}) }},
		{"clear", s.Clear},
		{"put after clear", func() error { return s.Put("d", sampleMapping(2)) }},
	}
	for _, step := range steps {
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		re, err := OpenRepository(dir)
		if err != nil {
			t.Fatalf("%s: reopen: %v", step.name, err)
		}
		live, reopened := counts(s), counts(re)
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		if live != reopened {
			t.Fatalf("after %s: live walRows/snapRows %v, reopened %v", step.name, live, reopened)
		}
	}
}
