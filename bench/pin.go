package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// A closed loop of one client and one server has one runnable thread at any
// moment. Left to the scheduler, the two end up on one virtual CPU or on two
// as it pleases, and on two every request wakes a halted CPU twice, each time
// through the host: serve_read's median was 0.09 ms in one run and 0.17 ms in
// the next, with the 27 µs the program spends buried in it. So for the
// measured phase the server's threads and the benchmark's own are all bound
// to one CPU: a request is then two context switches and the work itself, the
// CPU never halts, and ten runs agree within a tenth. The other CPU is left to
// the kernel and the host-reference helper. Threads created while bound
// inherit the binding; unbinding gives every thread all CPUs back.

// allowedMask is the set of CPUs this process may run on, as a bit mask.
func allowedMask() (uint64, error) {
	var mask uint64
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return mask, nil
}

// setAffinity binds one thread to the CPUs in mask.
func setAffinity(tid int, mask uint64) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
	}
	return nil
}

// bindProcess binds every thread of a process to the CPUs in mask. It goes
// over the threads twice, so that one created meanwhile by a thread not yet
// bound is caught too.
func bindProcess(pid int, mask uint64) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if err := setAffinity(tid, mask); err != nil && pass == 1 {
				return err // on the first pass a thread may have exited since the listing
			}
		}
	}
	return nil
}

// bindLoad binds this process and the server to the first CPU this process
// is allowed and returns the function that gives both their CPUs back.
func bindLoad(serverPID int) (release func() error, err error) {
	all, err := allowedMask()
	if err != nil {
		return nil, err
	}
	one := all & -all // the lowest allowed CPU
	release = func() error {
		if err := bindProcess(serverPID, all); err != nil {
			return err
		}
		return bindProcess(os.Getpid(), all)
	}
	for _, pid := range []int{serverPID, os.Getpid()} {
		if err := bindProcess(pid, one); err != nil {
			_ = release() // best effort: the run fails with err
			return nil, err
		}
	}
	return release, nil
}
