package faultfs

// The Injector: a scriptable FS that fails chosen operations. Faults are
// matched by (operation, path substring, occurrence count), so a schedule
// is deterministic given a deterministic sequence of filesystem operations
// — which the store's single-writer discipline guarantees. A seeded
// pseudo-random schedule (SeedSchedule) layers chaos-mode injection on top
// with the same determinism: the PRNG consumes one draw per eligible
// operation, so equal seeds and equal workloads fault identically.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// ErrInjected is the sentinel all injected faults match via errors.Is —
// tests distinguish "the fault I scheduled" from real filesystem trouble.
var ErrInjected = errors.New("faultfs: injected fault")

// Op identifies one filesystem operation class for fault matching.
type Op uint8

// Operation classes. OpOpen covers Open and OpenFile — the path and
// occurrence fields disambiguate when it matters.
const (
	OpOpen Op = iota
	OpCreate
	OpWrite
	OpSync
	OpClose
	OpRename
	OpRemove
	OpTruncate
	OpMkdir
)

var opNames = [...]string{"open", "create", "write", "sync", "close", "rename", "remove", "truncate", "mkdir"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op?"
}

func parseOp(s string) (Op, error) {
	for i, n := range opNames {
		if s == n {
			return Op(i), nil
		}
	}
	return 0, fmt.Errorf("faultfs: unknown op %q (want one of %s)", s, strings.Join(opNames[:], ", "))
}

// Kind is the failure mode of a rule.
type Kind uint8

const (
	// KindErr fails the operation outright with the rule's error.
	KindErr Kind = iota
	// KindShortWrite writes only N bytes of the buffer, then returns
	// io.ErrShortWrite — a partially persisted record.
	KindShortWrite
	// KindFailAfter lets N more bytes through (across all matching writes),
	// fails the write that crosses the budget after writing the remainder,
	// and fails every later matching write — a disk filling up. Inherently
	// sticky.
	KindFailAfter
	// KindTornRename leaves the rename unperformed — source (the tmp file)
	// in place, destination untouched — and returns the rule's error: a
	// crash immediately before the atomic commit point. (The complementary
	// "crash after rename, before log truncate" schedule is expressed as a
	// KindErr rule on the truncating open that follows the rename.)
	KindTornRename
)

var kindNames = map[string]struct {
	kind Kind
	err  error
}{
	"err":       {KindErr, nil},
	"enospc":    {KindErr, syscall.ENOSPC},
	"eio":       {KindErr, syscall.EIO},
	"short":     {KindShortWrite, io.ErrShortWrite},
	"failafter": {KindFailAfter, syscall.ENOSPC},
	"torn":      {KindTornRename, nil},
}

// InjectedError is the error injected faults return: it carries the faulted
// operation and path, unwraps to the scheduled errno (so
// errors.Is(err, syscall.ENOSPC) holds for an ENOSPC rule) and matches
// ErrInjected via errors.Is.
type InjectedError struct {
	Op   Op
	Path string
	Err  error
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultfs: injected %s fault on %s: %v", e.Op, e.Path, e.Err)
}

func (e *InjectedError) Unwrap() error { return e.Err }

// Is matches the ErrInjected sentinel.
func (e *InjectedError) Is(target error) bool { return target == ErrInjected }

// Rule schedules one fault: the After-th operation of class Op whose path
// contains Path fails with Kind. The zero Path matches every path. Sticky
// rules keep failing every later match; one-shot rules fire once.
type Rule struct {
	Op     Op
	Path   string // substring match on the operation's path; "" matches all
	After  int    // matching calls that succeed before the fault fires
	Kind   Kind
	N      int64 // byte count for KindShortWrite / KindFailAfter
	Err    error // error returned; nil defaults per kind (ErrInjected)
	Sticky bool  // keep failing after the first firing

	seen      int   // matching calls observed so far
	done      bool  // one-shot rule already fired
	remaining int64 // KindFailAfter byte budget (initialized from N on first match)
	armed     bool
}

// Injector is an FS that forwards to a base FS but fails scripted
// operations. Safe for concurrent use.
type Injector struct {
	base FS

	mu    sync.Mutex
	rules []*Rule
	fired []string
	rng   *rand.Rand // seeded chaos schedule; nil when disarmed
	every int
}

// NewInjector wraps base (OS{} when nil) with an empty schedule: until
// rules are added it is a pure passthrough.
func NewInjector(base FS) *Injector {
	if base == nil {
		base = OS{}
	}
	return &Injector{base: base}
}

// Inject appends rules to the schedule. Rules added while the store is
// already open only see operations issued after the call — tests arm
// faults mid-workload this way. It panics on a rule the injector would not
// carry out as written (the rules ParseScript rejects): a schedule that
// silently differs from the one written tests nothing.
func (in *Injector) Inject(rules ...Rule) {
	for i := range rules {
		if err := rules[i].validate(); err != nil {
			panic(fmt.Sprintf("faultfs: Inject(%+v): %v", rules[i], err))
		}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := range rules {
		r := rules[i]
		in.rules = append(in.rules, &r)
	}
}

// validate reports why the injector would not carry r out as written: an op
// or kind out of range, a negative count, n on a kind without a byte count,
// a byte kind on an op without bytes, torn on any op but rename, or
// failafter with after other than 0 (its byte budget, not a count of
// operations, decides when it fires).
func (r *Rule) validate() error {
	byteKind := r.Kind == KindShortWrite || r.Kind == KindFailAfter
	switch {
	case int(r.Op) >= len(opNames):
		return fmt.Errorf("unknown op %d", r.Op)
	case r.Kind > KindTornRename:
		return fmt.Errorf("unknown kind %d", r.Kind)
	case r.After < 0 || r.N < 0:
		return fmt.Errorf("after %d and n %d must be non-negative", r.After, r.N)
	case r.N != 0 && !byteKind:
		return fmt.Errorf("n applies to short and failafter only")
	case byteKind && r.Op != OpWrite:
		return fmt.Errorf("short and failafter apply to write only")
	case r.Kind == KindTornRename && r.Op != OpRename:
		return fmt.Errorf("torn applies to rename only")
	case r.Kind == KindFailAfter && r.After != 0:
		return fmt.Errorf("failafter takes after 0 (its byte budget decides when it fires)")
	}
	return nil
}

// ClearFaults drops every rule and the seeded schedule; subsequent
// operations pass through. The fired log is kept.
func (in *Injector) ClearFaults() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = nil
	in.rng = nil
}

// SeedSchedule arms a deterministic pseudo-random schedule: each write and
// sync operation faults with probability 1/everyN, the failure mode chosen
// by the same PRNG (ENOSPC, short write, or EIO on sync). Equal seeds over
// equal operation sequences fault identically. everyN < 1 disarms.
func (in *Injector) SeedSchedule(seed int64, everyN int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if everyN < 1 {
		in.rng = nil
		return
	}
	in.rng = rand.New(rand.NewSource(seed))
	in.every = everyN
}

// Fired returns a copy of the fired-fault log, one line per injected
// failure, in firing order.
func (in *Injector) Fired() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]string, len(in.fired))
	copy(out, in.fired)
	return out
}

// fail logs and builds the injected error for one firing.
//
// in.mu is held by the caller.
func (in *Injector) fail(op Op, path string, err error) error {
	if err == nil {
		err = ErrInjected
	}
	ie := &InjectedError{Op: op, Path: path, Err: err}
	in.fired = append(in.fired, ie.Error())
	return ie
}

// decide consults the schedule for a non-write operation; nil means pass.
func (in *Injector) decide(op Op, path string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range in.rules {
		if r.Op != op || !strings.Contains(path, r.Path) || r.done {
			continue
		}
		if r.seen < r.After {
			r.seen++
			continue
		}
		if !r.Sticky {
			r.done = true
		}
		return in.fail(op, path, r.Err)
	}
	if in.rng != nil && op == OpSync && in.rng.Intn(in.every) == 0 {
		return in.fail(op, path, syscall.EIO)
	}
	return nil
}

// decideWrite consults the schedule for a write of len(p) == size bytes.
// It returns how many bytes to let through and the error to return after
// them; (size, nil) means the write passes untouched.
func (in *Injector) decideWrite(path string, size int) (int, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range in.rules {
		if r.Op != OpWrite || !strings.Contains(path, r.Path) || r.done {
			continue
		}
		if r.Kind == KindFailAfter {
			if !r.armed {
				r.remaining = r.N
				r.armed = true
			}
			if r.remaining >= int64(size) {
				r.remaining -= int64(size)
				continue
			}
			allow := int(r.remaining)
			r.remaining = 0
			return allow, in.fail(OpWrite, path, r.Err)
		}
		if r.seen < r.After {
			r.seen++
			continue
		}
		if !r.Sticky {
			r.done = true
		}
		switch r.Kind {
		case KindShortWrite:
			n := int(r.N)
			if r.N == 0 {
				n = size / 2
			}
			if n >= size {
				n = size - 1
			}
			if n < 0 {
				n = 0
			}
			err := r.Err
			if err == nil {
				err = io.ErrShortWrite
			}
			return n, in.fail(OpWrite, path, err)
		default:
			return 0, in.fail(OpWrite, path, r.Err)
		}
	}
	if in.rng != nil && in.rng.Intn(in.every) == 0 {
		if in.rng.Intn(2) == 0 {
			return 0, in.fail(OpWrite, path, syscall.ENOSPC)
		}
		return size / 2, in.fail(OpWrite, path, io.ErrShortWrite)
	}
	return size, nil
}

// --- FS implementation ----------------------------------------------------

// MkdirAll implements FS.
func (in *Injector) MkdirAll(path string, perm os.FileMode) error {
	if err := in.decide(OpMkdir, path); err != nil {
		return err
	}
	return in.base.MkdirAll(path, perm)
}

// Open implements FS.
func (in *Injector) Open(name string) (File, error) {
	if err := in.decide(OpOpen, name); err != nil {
		return nil, err
	}
	f, err := in.base.Open(name)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, f: f}, nil
}

// OpenFile implements FS.
func (in *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if err := in.decide(OpOpen, name); err != nil {
		return nil, err
	}
	f, err := in.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, f: f}, nil
}

// CreateTemp implements FS.
func (in *Injector) CreateTemp(dir, pattern string) (File, error) {
	if err := in.decide(OpCreate, dir+"/"+pattern); err != nil {
		return nil, err
	}
	f, err := in.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, f: f}, nil
}

// Rename implements FS. A KindTornRename rule leaves oldpath in place and
// newpath untouched — the crash point just before the atomic commit.
func (in *Injector) Rename(oldpath, newpath string) error {
	if err := in.decide(OpRename, newpath); err != nil {
		return err
	}
	return in.base.Rename(oldpath, newpath)
}

// Remove implements FS.
func (in *Injector) Remove(name string) error {
	if err := in.decide(OpRemove, name); err != nil {
		return err
	}
	return in.base.Remove(name)
}

// Truncate implements FS.
func (in *Injector) Truncate(name string, size int64) error {
	if err := in.decide(OpTruncate, name); err != nil {
		return err
	}
	return in.base.Truncate(name, size)
}

// injFile threads write/sync/close operations back through the schedule.
type injFile struct {
	in *Injector
	f  File
}

func (f *injFile) Read(p []byte) (int, error) { return f.f.Read(p) }

func (f *injFile) Write(p []byte) (int, error) {
	allow, err := f.in.decideWrite(f.f.Name(), len(p))
	if err == nil {
		return f.f.Write(p)
	}
	n := 0
	if allow > 0 {
		// The allowed prefix really reaches the file: a short write tears
		// the record on disk, exactly like a crash mid-write.
		n, _ = f.f.Write(p[:allow])
	}
	return n, err
}

func (f *injFile) Sync() error {
	if err := f.in.decide(OpSync, f.f.Name()); err != nil {
		return err
	}
	return f.f.Sync()
}

func (f *injFile) Close() error {
	if err := f.in.decide(OpClose, f.f.Name()); err != nil {
		_ = f.f.Close() //moma:errsink-ok fault injection: the scheduled error replaces the close result; the real fd still closes
		return err
	}
	return f.f.Close()
}

func (f *injFile) Name() string { return f.f.Name() }

// --- script parsing -------------------------------------------------------

// ParseScript parses a comma-separated fault schedule of the form
//
//	op:pathsubstr:after:kind[:n]
//
// op is one of open, create, write, sync, close, rename, remove, truncate,
// mkdir; pathsubstr is a substring the operation's path must contain (empty
// matches all); after is the number of matching operations that pass before
// the fault fires; kind is one of err, enospc, eio, short, failafter, torn,
// with a trailing "!" marking the rule sticky (failafter is inherently
// sticky); n is the byte count for short and failafter.
//
// A rule the injector would not carry out as written is rejected: n on any
// kind but short and failafter, short or failafter on any op but write,
// torn on any op but rename, and failafter with after other than 0 (its
// byte budget, not a count of operations, decides when it fires).
//
// Examples:
//
//	write:wal.jsonl:6:enospc!        the 7th wal write and all later ones fail ENOSPC
//	sync:snapshot:0:eio              the first snapshot fsync fails EIO
//	rename:snapshot:0:torn           the snapshot publish crashes before the commit
//	write:wal.jsonl:0:failafter:4096 the wal accepts 4 KiB more, then the disk is full
func ParseScript(script string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(script, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 4 || len(fields) > 5 {
			return nil, fmt.Errorf("faultfs: bad rule %q (want op:path:after:kind[:n])", part)
		}
		op, err := parseOp(fields[0])
		if err != nil {
			return nil, err
		}
		after, err := strconv.Atoi(fields[2])
		if err != nil || after < 0 {
			return nil, fmt.Errorf("faultfs: bad rule %q: after %q must be a non-negative integer", part, fields[2])
		}
		kindName := fields[3]
		sticky := strings.HasSuffix(kindName, "!")
		kindName = strings.TrimSuffix(kindName, "!")
		spec, ok := kindNames[kindName]
		if !ok {
			return nil, fmt.Errorf("faultfs: bad rule %q: unknown kind %q", part, kindName)
		}
		var n int64
		if len(fields) == 5 {
			// An explicit n, even 0, is a field the injector would ignore
			// on a kind without a byte count.
			if spec.kind != KindShortWrite && spec.kind != KindFailAfter {
				return nil, fmt.Errorf("faultfs: bad rule %q: n applies to short and failafter only", part)
			}
			n, err = strconv.ParseInt(fields[4], 10, 64)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("faultfs: bad rule %q: n %q must be a non-negative integer", part, fields[4])
			}
		}
		if spec.kind == KindFailAfter {
			sticky = true
		}
		r := Rule{
			Op: op, Path: fields[1], After: after,
			Kind: spec.kind, N: n, Err: spec.err, Sticky: sticky,
		}
		if err := r.validate(); err != nil {
			return nil, fmt.Errorf("faultfs: bad rule %q: %v", part, err)
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("faultfs: empty fault script")
	}
	return rules, nil
}
