package main

import (
	"encoding/json"
	"flag"
	"math/bits"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/bench/worldgen"
)

// quickOptions are the options of a quick, traced run writing under a
// directory the test owns.
func quickOptions(t *testing.T, workload string) options {
	t.Helper()
	dir := t.TempDir()
	return options{
		workload: workload, seed: 7, seconds: 1, trace: true, quick: true,
		outDir: dir, tmpDir: filepath.Join(dir, "tmp"),
	}
}

// TestQuickWorkloads runs every workload end to end at quick size, traced:
// the moma-serve build and subprocess lifecycle, both load phases, the
// restart-and-verify of serve_mixed, every probe section and every
// correctness check. It then renders the result both ways the driver reads
// it and checks that nothing is missing.
func TestQuickWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			o := quickOptions(t, name)
			if err := os.MkdirAll(o.tmpDir, 0o755); err != nil {
				t.Fatal(err)
			}
			res, err := workloads[name](o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("incorrect result: %v", res.Failures)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("attempted %d, failed %d", res.Attempted, res.Failed)
			}

			// Traced: every per-layer metric is printed, and the workload's
			// own ones were measured.
			line, err := res.contract()
			if err != nil {
				t.Fatal(err)
			}
			if len(line.Metrics) != len(perLayer) {
				t.Fatalf("traced line has %d metrics, want %d", len(line.Metrics), len(perLayer))
			}
			if cov := res.PerLayer["trace.coverage_share"].Value; cov < 0.9 {
				t.Errorf("spans cover %.3f of the probe sections", cov)
			}
			if _, ok := res.PerLayer["trace.overhead_share"]; !ok {
				t.Error("trace.overhead_share not reported")
			}
			for w, metrics := range ownLayers {
				for _, m := range metrics {
					_, measured := res.PerLayer[m]
					// serve_mixed measures serve_read's layers too.
					if want := w == name || (w == wlServeRead && name == wlServeMixed); measured != want {
						t.Errorf("%s measured on %s: %v, want %v", m, name, measured, want)
					}
				}
			}
			var tf traceFile
			b, err := os.ReadFile(filepath.Join(o.outDir, name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &tf); err != nil || len(tf.Spans) == 0 {
				t.Fatalf("trace file: %v, %d spans", err, len(tf.Spans))
			}

			// Untraced: every slot, none of them zero.
			res.Traced = false
			line, err = res.contract()
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range slots {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Value <= 0 || m.Unit != d.Unit {
					t.Errorf("slot %s = %+v (present %v), want a positive %s", d.Name, m, ok, d.Unit)
				}
			}
			if len(line.Metrics) != len(slots) {
				t.Errorf("untraced line has %d metrics, want %d", len(line.Metrics), len(slots))
			}
		})
	}
}

// ownLayers names, per workload, per-layer metrics only that workload
// measures: a change to one layer must show on one workload and not on
// another.
var ownLayers = map[string][]string{
	wlBatchPaper:  {"sources.gs_index_s", "block.title_pairs_n", "match.title_cold_s", "experiments.table2_s", "mapping.merge3_s"},
	wlOperators1M: {"mapping.compose_1m_s", "par.merge_speedup", "store.replay_rows_per_s", "store.compact_s"},
	wlServeRead:   {"http.gap_us", "live.resolve_share"},
	wlServeMixed:  {"live.add_resolve_us", "store.put_delta_us", "serve.add_handler_us", "serve.restart_s", "client.remove_p50_us"},
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []benchMetric   `json:"end_to_end"`
	PerLayer   []benchMetric   `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchmarkJSON renders the metric catalogue as BENCHMARK.json.
func benchmarkJSON() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadNames {
		f.Workloads = append(f.Workloads, benchWorkload{Name: w, Why: workloadWhy[w]})
	}
	for _, d := range slots {
		bound := d.Bound
		f.EndToEnd = append(f.EndToEnd, benchMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &bound})
	}
	for _, d := range perLayer {
		f.PerLayer = append(f.PerLayer, benchMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return f
}

// -update makes TestContractMatchesCatalogue rewrite ../BENCHMARK.json from
// the catalogue before checking it: go test -run TestContractMatchesCatalogue -update
var updateContract = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric catalogue")

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestContractMatchesCatalogue keeps ../BENCHMARK.json equal to what the
// program prints, and inside the limits the driver refuses a file for.
func TestContractMatchesCatalogue(t *testing.T) {
	if *updateContract {
		if err := writeJSON("../BENCHMARK.json", benchmarkJSON()); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, over 64 KiB", len(b))
	}
	var onDisk, want any
	if err := json.Unmarshal(b, &onDisk); err != nil {
		t.Fatal(err)
	}
	wb, err := json.Marshal(benchmarkJSON())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wb, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, want) {
		t.Fatal("BENCHMARK.json differs from the catalogue; regenerate it with: go test -run TestContractMatchesCatalogue -update")
	}

	f := benchmarkJSON()
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d", f.RunSeconds)
	}
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the driver's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range f.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") || w.Why == "" {
			t.Errorf("why of %s has %d characters or a line break", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range f.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	for _, m := range f.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound != nil {
			t.Errorf("%s: unit %q, bound %v", m.Name, m.Unit, m.Bound)
		}
	}
}

// TestServerLifecycle drives the moma-serve subprocess the way the serve
// workloads do and checks that every exit path leaves no process behind.
func TestServerLifecycle(t *testing.T) {
	dir := t.TempDir()
	bin, err := buildServe(filepath.Join(dir, "bin"))
	if err != nil {
		t.Fatal(err)
	}
	data := filepath.Join(dir, "data")
	if err := os.MkdirAll(data, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := worldgen.WriteSetCSV(filepath.Join(data, "resident.csv"), worldgen.SelectiveSet(1, 200)); err != nil {
		t.Fatal(err)
	}
	alive := func(pid int) bool { return syscall.Kill(pid, 0) == nil }

	// Ready, then a graceful SIGTERM drain with a clean exit.
	s, ready, err := startServer(bin, filepath.Join(dir, "a.log"), "-data", data)
	if err != nil {
		t.Fatal(err)
	}
	if ready <= 0 {
		t.Errorf("exec-to-ready %v", ready)
	}
	resp, err := http.Get(s.url + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz: %v %v", resp, err)
	}
	resp.Body.Close()
	pid := s.pid()
	if err := s.stop(); err != nil {
		t.Fatalf("graceful stop: %v", err)
	}
	if alive(pid) {
		t.Errorf("pid %d survived stop", pid)
	}

	// A failing benchmark kills whatever it started, by process group.
	s, _, err = startServer(bin, filepath.Join(dir, "b.log"), "-data", data)
	if err != nil {
		t.Fatal(err)
	}
	pid = s.pid()
	killAllServers()
	select {
	case <-s.exited:
	case <-time.After(5 * time.Second):
		t.Fatalf("pid %d still running 5 s after killAllServers", pid)
	}
	s.forget()
	if alive(pid) {
		t.Errorf("pid %d survived killAllServers", pid)
	}

	// A server that cannot start is an error, not a hang, and is reaped.
	if _, _, err := startServer(bin, filepath.Join(dir, "c.log"), "-data", filepath.Join(dir, "missing")); err == nil {
		t.Fatal("a server without data started")
	}
	liveServers.Lock()
	n := len(liveServers.set)
	liveServers.Unlock()
	if n != 0 {
		t.Errorf("%d servers still registered", n)
	}
}

// allowedCPUs is the Cpus_allowed_list line of a process's main thread.
func allowedCPUs(t *testing.T, pid int) string {
	t.Helper()
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
			return strings.TrimSpace(rest)
		}
	}
	t.Fatal("no Cpus_allowed_list in /proc/<pid>/status")
	return ""
}

// TestBindProcess: binding puts every thread of a process on one CPU,
// children started afterwards included, and the release gives the CPUs back.
func TestBindProcess(t *testing.T) {
	all, err := allowedMask()
	if err != nil {
		t.Fatal(err)
	}
	one := all & -all
	if one == all {
		t.Skip("one CPU: nothing to bind")
	}
	cpu := strconv.Itoa(bits.TrailingZeros64(one))
	before := allowedCPUs(t, os.Getpid())
	if err := bindProcess(os.Getpid(), one); err != nil {
		t.Fatal(err)
	}
	if got := allowedCPUs(t, os.Getpid()); got != cpu {
		t.Errorf("bound: Cpus_allowed_list %q, want %s", got, cpu)
	}
	// A child inherits the binding, as the threads of a bound server do.
	out, err := exec.Command("grep", "Cpus_allowed_list", "/proc/self/status").Output()
	if err != nil {
		t.Fatal(err)
	}
	if f := strings.Fields(string(out)); len(f) != 2 || f[1] != cpu {
		t.Errorf("child of a bound process: %q", out)
	}
	if err := bindProcess(os.Getpid(), all); err != nil {
		t.Fatal(err)
	}
	if got := allowedCPUs(t, os.Getpid()); got != before {
		t.Errorf("released: Cpus_allowed_list %q, want %q", got, before)
	}
}
