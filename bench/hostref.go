package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync/atomic"
	"syscall"
	"time"

	"repro/bench/stats"
)

// The sandbox is a small virtual machine on a shared host, and the host's
// speed is not constant. With busy neighbours, loads that miss the caches
// take up to half longer than in a quiet minute, for minutes at a time, while
// register arithmetic hardly changes; every workload here is bound by memory
// — the operators' hash probes and gathers, the matchers' profile and posting
// lookups, the server's allocations — and its times move with that state. Two
// runs of the same code minutes apart then differ by more than any bound a
// regression gate could use, and no amount of repetition inside a run
// averages away a state that outlasts the run.
//
// The benchmark therefore measures the host beside the program. A helper
// process (this binary, started with -hostref) runs two fixed kernels on
// request — one of arithmetic, one of cache-missing loads — and each workload
// asks for a sample between its measured slices, all through the run. The
// kernels are frozen here, in the benchmark's own files, so what they take
// changes only with the host. A run reports them as host.alu_ms and
// host.mem_ms and states its end-to-end times relative to the memory kernel
// (recordHost). The helper is a process of its own so that its 64 MB array
// is not part of any measured process's resident set.

const (
	refWords   = 1 << 24 // 64 MB of uint32: several times any cache the guest sees
	refMemOps  = 1 << 21
	refALUOps  = 1 << 23
	refRequest = 's'
)

// refSink keeps the kernels' results alive.
var refSink uint64

// refALU is the arithmetic kernel: a xorshift chain, no memory traffic.
func refALU(n int) {
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink += x
}

// refMem is the memory kernel: loads at pseudo-random indexes of an array
// far larger than the caches, independent of each other, so that many misses
// are in flight at once the way they are in the operators' hash probes and
// gathers. (A chain of dependent loads, which waits out every miss alone,
// followed the workloads' times far less closely.)
func refMem(words []uint32, n int) {
	x := uint64(88172645463325252)
	var s uint32
	mask := uint64(len(words) - 1)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s += words[x&mask]
	}
	refSink += uint64(s)
}

// serveHostRef is the helper's main loop: for every request byte on r it
// runs both kernels and answers with their times in milliseconds. It ends
// when r does.
func serveHostRef(r io.Reader, w io.Writer) error {
	words := make([]uint32, refWords)
	for i := range words {
		words[i] = uint32(i) * 2654435761
	}
	in := bufio.NewReader(r)
	for {
		if _, err := in.ReadByte(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		t0 := time.Now()
		refALU(refALUOps)
		t1 := time.Now()
		refMem(words, refMemOps)
		t2 := time.Now()
		if _, err := fmt.Fprintf(w, "%.4f %.4f\n", t1.Sub(t0).Seconds()*1e3, t2.Sub(t1).Seconds()*1e3); err != nil {
			return err
		}
	}
}

// hostProbe is the running helper and the samples taken so far.
type hostProbe struct {
	cmd      *exec.Cmd
	in       io.WriteCloser
	out      *bufio.Reader
	alu, mem []float64 // ms per sample
}

// startHostProbe starts the helper and takes one sample to warm it up (the
// first touches its array), which is discarded.
func startHostProbe() (*hostProbe, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-hostref")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	h := &hostProbe{cmd: cmd, in: in, out: bufio.NewReader(out)}
	if err := h.sample(); err != nil {
		h.stop()
		return nil, err
	}
	h.alu, h.mem = nil, nil
	liveHost.Store(h)
	return h, nil
}

// liveHost is the running helper, so that every way out of the benchmark can
// end it and wait for it.
var liveHost atomic.Pointer[hostProbe]

// stopLiveHost ends the helper if one is running. Its samples stay readable.
func stopLiveHost() {
	if h := liveHost.Swap(nil); h != nil {
		h.stop()
	}
}

// sample runs the kernels once, while the caller waits and does nothing
// else, and records what they took. A nil probe (tests) samples nothing.
func (h *hostProbe) sample() error {
	if h == nil {
		return nil
	}
	if _, err := h.in.Write([]byte{refRequest}); err != nil {
		return fmt.Errorf("host reference helper: %w", err)
	}
	line, err := h.out.ReadString('\n')
	if err != nil {
		return fmt.Errorf("host reference helper: %w", err)
	}
	var alu, mem float64
	if _, err := fmt.Sscan(line, &alu, &mem); err != nil {
		return fmt.Errorf("host reference helper answered %q: %w", line, err)
	}
	h.alu, h.mem = append(h.alu, alu), append(h.mem, mem)
	return nil
}

// stop ends the helper and waits until it is gone.
func (h *hostProbe) stop() {
	_ = h.cmd.Process.Kill() // already gone is fine
	_ = h.cmd.Wait()         // killed: the error is the signal; Wait closes the pipes
}

// calm is the lower quartile of a run's repetitions of one measurement: the
// level of the repetitions the host disturbed least. Interference only ever
// adds time, in bursts of seconds, so the lower quartile holds still while
// up to three quarters of a run are disturbed, where a median gives way at
// half and a mean at once.
func calm(xs []float64) float64 {
	q1, _, _ := stats.Quartiles(xs)
	return q1
}

// brisk is calm for a rate, where the undisturbed side is the upper one.
func brisk(xs []float64) float64 {
	_, _, q3 := stats.Quartiles(xs)
	return q3
}

// memNominal is the memory kernel's time on this kind of host in a quiet
// minute. It only fixes the scale of the corrected values: on a host with
// another constant every one of them shifts by the same factor.
const memNominal = 30.0 // ms

// recordHost reports the host's speed during the run — the median of each
// kernel over the run's samples — and, for a workload that is bound by
// memory (Result.hostBound), states the end-to-end times and rates relative
// to it: a time is multiplied by memNominal / host.mem_ms and a rate divided
// by it, so that each reads as it would on a quiet host. Over runs of the
// same code those workloads' times follow the memory kernel about one to one
// (README, "Host speed"), so the plain ratio is used, with no fitted
// constant. Not corrected: setup_s, which is over before the first sample;
// memory; shares; and every per-layer metric. host.factor is the factor
// applied (1 for a workload that is not corrected): a raw time is the
// reported one divided by it, a raw rate the reported one multiplied by it.
func (r *Result) recordHost(h *hostProbe) {
	if h == nil || len(h.mem) == 0 {
		return
	}
	alu, mem := stats.Median(h.alu), stats.Median(h.mem)
	factor := 1.0
	if r.hostBound {
		factor = memNominal / mem
	}
	r.layer("host.alu_ms", alu)
	r.layer("host.mem_ms", mem)
	r.layer("host.factor", factor)
	r.note("host_mem_ms", "%.1f (%d samples, in run order)", h.mem, len(h.mem))
	for name, m := range r.EndToEnd {
		switch {
		case name == "setup_s":
		case m.Unit == "s" || m.Unit == "us":
			m.Value *= factor
		case m.Unit == "1/s":
			m.Value /= factor
		}
		r.EndToEnd[name] = m
	}
}
