package faultfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
)

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	var fs FS = OS{}
	if err := fs.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := fs.OpenFile(filepath.Join(dir, "sub", "a"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello\n")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(filepath.Join(dir, "sub", "a"), filepath.Join(dir, "sub", "b")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate(filepath.Join(dir, "sub", "b"), 5); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "sub", "b"))
	if err != nil || string(data) != "hello" {
		t.Fatalf("read back %q, %v", data, err)
	}
	if err := fs.Remove(filepath.Join(dir, "sub", "b")); err != nil {
		t.Fatal(err)
	}
}

// write opens path through the FS and writes p, returning the write error.
func write(t *testing.T, fs FS, path string, p []byte) (int, error) {
	t.Helper()
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close() //moma:errsink-ok test helper; the write error is the assertion target
	return f.Write(p)
}

func TestInjectENOSPCAfterN(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(OS{})
	inj.Inject(Rule{Op: OpWrite, Path: "wal", After: 2, Err: syscall.ENOSPC, Sticky: true})
	path := filepath.Join(dir, "wal.jsonl")
	for i := 0; i < 2; i++ {
		if _, err := write(t, inj, path, []byte("ok\n")); err != nil {
			t.Fatalf("write %d should pass: %v", i, err)
		}
	}
	n, err := write(t, inj, path, []byte("boom\n"))
	if n != 0 || !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, ErrInjected) {
		t.Fatalf("3rd write: n=%d err=%v, want injected ENOSPC", n, err)
	}
	// Sticky: still failing.
	if _, err := write(t, inj, path, []byte("boom\n")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("4th write should stay failed: %v", err)
	}
	// Other paths unaffected.
	if _, err := write(t, inj, filepath.Join(dir, "other"), []byte("ok\n")); err != nil {
		t.Fatalf("unmatched path must pass: %v", err)
	}
	if fired := inj.Fired(); len(fired) != 2 {
		t.Fatalf("fired log = %v, want 2 entries", fired)
	}
}

func TestInjectShortWrite(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(nil)
	inj.Inject(Rule{Op: OpWrite, Kind: KindShortWrite, N: 4})
	path := filepath.Join(dir, "f")
	n, err := write(t, inj, path, []byte("0123456789"))
	if n != 4 || !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("short write: n=%d err=%v", n, err)
	}
	// The torn prefix really reached the file.
	data, _ := os.ReadFile(path)
	if string(data) != "0123" {
		t.Fatalf("on-disk bytes %q, want torn prefix", data)
	}
	// One-shot: the next write passes.
	if _, err := write(t, inj, path, []byte("rest")); err != nil {
		t.Fatalf("one-shot rule must clear: %v", err)
	}
}

func TestInjectFailAfterBytes(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(nil)
	inj.Inject(Rule{Op: OpWrite, Kind: KindFailAfter, N: 10, Err: syscall.ENOSPC})
	path := filepath.Join(dir, "f")
	if n, err := write(t, inj, path, []byte("0123456")); n != 7 || err != nil {
		t.Fatalf("within budget: n=%d err=%v", n, err)
	}
	// Crosses the budget: 3 bytes pass, then ENOSPC.
	n, err := write(t, inj, path, []byte("abcdef"))
	if n != 3 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("crossing write: n=%d err=%v", n, err)
	}
	// Exhausted: everything fails.
	if n, err := write(t, inj, path, []byte("x")); n != 0 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("post-budget write: n=%d err=%v", n, err)
	}
	data, _ := os.ReadFile(path)
	if string(data) != "0123456abc" {
		t.Fatalf("on-disk bytes %q, want exactly the 10-byte budget", data)
	}
}

func TestInjectSyncAndTornRename(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(nil)
	inj.Inject(
		Rule{Op: OpSync, Path: "snap", Err: syscall.EIO},
		Rule{Op: OpRename, Path: "snap", Kind: KindTornRename},
	)
	src := filepath.Join(dir, "snap.tmp")
	dst := filepath.Join(dir, "snap")
	f, err := inj.OpenFile(src, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("data"))
	if err := f.Sync(); err == nil || !errors.Is(err, syscall.EIO) {
		t.Fatalf("sync fault: %v", err)
	}
	f.Close()
	if err := inj.Rename(src, dst); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn rename: %v", err)
	}
	if _, err := os.Stat(src); err != nil {
		t.Error("torn rename must leave the source in place")
	}
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		t.Error("torn rename must not touch the destination")
	}
}

func TestSeedScheduleDeterministic(t *testing.T) {
	run := func(seed int64) []string {
		dir := t.TempDir()
		inj := NewInjector(nil)
		inj.SeedSchedule(seed, 3)
		path := filepath.Join(dir, "f")
		for i := 0; i < 40; i++ {
			write(t, inj, path, []byte("record\n"))
		}
		// The fired log embeds the (per-run) temp path; compare the
		// schedule itself, not the directory names.
		fired := inj.Fired()
		for i := range fired {
			fired[i] = strings.ReplaceAll(fired[i], dir, "")
		}
		return fired
	}
	a, b := run(7), run(7)
	if len(a) == 0 {
		t.Fatal("seeded schedule fired nothing over 40 writes at 1/3")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed diverged: %d vs %d faults", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestInjectRejectsInvalidRules: Inject takes only the rules ParseScript
// would accept, so a rule built in code cannot schedule a fault that is not
// carried out as written.
func TestInjectRejectsInvalidRules(t *testing.T) {
	for _, r := range []Rule{
		{Op: OpWrite, After: 6, Kind: KindFailAfter, N: 4}, // failafter fires on its budget, not after 6 writes
		{Kind: KindErr, N: 9},                              // n on a kind without a byte count
		{Op: OpSync, Kind: KindShortWrite},                 // a short sync
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Inject(%+v) accepted a rule the injector would not carry out as written", r)
				}
			}()
			NewInjector(nil).Inject(r)
		}()
	}
	NewInjector(nil).Inject(Rule{Op: OpWrite, Kind: KindFailAfter, N: 4}, Rule{Op: OpRename, Kind: KindTornRename})
}

func TestParseScript(t *testing.T) {
	rules, err := ParseScript("write:wal.jsonl:6:enospc!, sync:snapshot:0:eio, rename:snapshot:0:torn, write::0:failafter:4096")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 4 {
		t.Fatalf("parsed %d rules, want 4", len(rules))
	}
	r := rules[0]
	if r.Op != OpWrite || r.Path != "wal.jsonl" || r.After != 6 || r.Kind != KindErr ||
		!errors.Is(r.Err, syscall.ENOSPC) || !r.Sticky {
		t.Errorf("rule 0 = %+v", r)
	}
	if rules[1].Op != OpSync || !errors.Is(rules[1].Err, syscall.EIO) || rules[1].Sticky {
		t.Errorf("rule 1 = %+v", rules[1])
	}
	if rules[2].Kind != KindTornRename {
		t.Errorf("rule 2 = %+v", rules[2])
	}
	if rules[3].Kind != KindFailAfter || rules[3].N != 4096 || !rules[3].Sticky {
		t.Errorf("rule 3 = %+v", rules[3])
	}

	for _, bad := range []string{
		"", "write:wal:x:enospc", "frob:wal:0:enospc", "write:wal:0:nope",
		"write:wal:0", "sync:wal:0:torn", "write:wal:0:short:abc",
		// Fields the injector would ignore: n on a kind without a byte
		// count, a byte kind on an op without bytes, failafter's after.
		"sync:snapshot:0:eio:4096", "rename:x:0:torn:7", "write:wal:0:enospc!:1", "write:wal:0:err:0",
		"sync:x:0:failafter:4096", "rename:x:0:short:3", "create:x:0:short",
		"write:wal:6:failafter:4096",
	} {
		if _, err := ParseScript(bad); err == nil {
			t.Errorf("ParseScript(%q) should fail", bad)
		}
	}
}

// FuzzParseScript: ParseScript never panics, every rule it accepts is one
// the injector carries out as written, and a script is accepted exactly
// when each of its rules is accepted alone, as the same rules in order.
func FuzzParseScript(f *testing.F) {
	for _, seed := range []string{
		"write:wal.jsonl:6:enospc!", "sync:snapshot:0:eio", "rename:snapshot:0:torn",
		"write:wal.jsonl:0:failafter:4096", "write::2:short:5, rename:x:1:torn!",
		"sync:snapshot:0:eio:4096", "rename:x:0:torn:7", "sync:x:0:failafter:4096",
		"write:wal:6:failafter:4096", " , ", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, script string) {
		rules, err := ParseScript(script)
		for _, r := range rules {
			byteKind := r.Kind == KindShortWrite || r.Kind == KindFailAfter
			switch {
			case r.After < 0 || r.N < 0:
				t.Fatalf("%q: rule %+v has a negative count", script, r)
			case r.N != 0 && !byteKind:
				t.Fatalf("%q: rule %+v has n without a byte kind", script, r)
			case byteKind && r.Op != OpWrite:
				t.Fatalf("%q: rule %+v has a byte kind on %s", script, r, r.Op)
			case r.Kind == KindTornRename && r.Op != OpRename:
				t.Fatalf("%q: rule %+v is torn on %s", script, r, r.Op)
			case r.Kind == KindFailAfter && (r.After != 0 || !r.Sticky):
				t.Fatalf("%q: failafter rule %+v is not sticky from the first write", script, r)
			}
		}
		var alone []Rule
		ok := false
		for _, part := range strings.Split(script, ",") {
			if strings.TrimSpace(part) == "" {
				continue
			}
			one, err := ParseScript(part)
			if err != nil {
				ok = false
				break
			}
			ok, alone = true, append(alone, one...)
		}
		if ok != (err == nil) {
			t.Fatalf("%q: accepted %v, but each rule alone accepted %v (error %v)", script, err == nil, ok, err)
		}
		if ok && !reflect.DeepEqual(rules, alone) {
			t.Fatalf("%q: parses to %+v, its rules alone to %+v", script, rules, alone)
		}
	})
}
