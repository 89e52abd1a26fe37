package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// promSample is a parsed Prometheus text exposition: series (name with its
// label block, exactly as exposed) to value. The program exports its
// counters this way on /metrics and, in-process, through obs.Default, so
// one parser reads both.
type promSample map[string]float64

func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// localProm snapshots this process's engine metrics.
func localProm() promSample {
	var buf bytes.Buffer
	obs.Default.WritePrometheus(&buf)
	s, err := parseProm(&buf)
	if err != nil {
		panic(err) // the registry writes well-formed text
	}
	return s
}

// family sums every series of one metric family, whatever its labels.
func (s promSample) family(name string) float64 {
	var sum float64
	for _, k := range slices.Sorted(maps.Keys(s)) {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += s[k]
		}
	}
	return sum
}

// delta is after.family(name) - before.family(name).
func delta(before, after promSample, name string) float64 {
	return after.family(name) - before.family(name)
}

// procStatus reads one kB-valued field (VmHWM, VmRSS) of /proc/<pid>/status
// and returns it in MB.
func procStatusMB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, field)
}

// peakRSSMB is the high-water resident set of a process.
func peakRSSMB(pid int) (float64, error) { return procStatusMB(pid, "VmHWM") }

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat. It is
// 100 on every Linux port Go supports.
const clockTick = 100

// cpuSeconds is the user+system CPU time a process has used.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted from
	// the closing parenthesis.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64) // field 14
	stime, err2 := strconv.ParseFloat(f[12], 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu times", pid)
	}
	return (utime + stime) / clockTick, nil
}

// memDelta is what the Go runtime did between two runtime.MemStats reads.
type memDelta struct {
	AllocMB   float64
	Mallocs   float64
	Bytes     float64
	GCPauseMS float64
	NumGC     float64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		AllocMB:   float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		Mallocs:   float64(after.Mallocs - before.Mallocs),
		Bytes:     float64(after.TotalAlloc - before.TotalAlloc),
		GCPauseMS: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
		NumGC:     float64(after.NumGC - before.NumGC),
	}
}

// gitCommit names the commit the benchmark ran on, or "unknown" outside a
// git checkout (the driver's is not one).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
		commit += "+dirty"
	}
	return commit
}
