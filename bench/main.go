// Command bench is the repository's benchmark: four workloads, each measured
// end to end and layer by layer, with correctness checks that fail the
// command. See README.md for the workloads, the metric glossary and how to
// read a trace.
//
// Run it from this directory (it is a module of its own, so that it can be
// built and changed without touching the program's build):
//
//	go run .                                   all workloads, traced, one JSON report on stdout
//	go run . > ledger/BENCH_11.json            the same, kept (progress goes to stderr)
//	go run . -workload serve_read -seed 7      one workload, the driver's way
//	go run . -aa                               two sets of runs, spreads against bounds
//	go run . -quick                            tiny sizes, for tests only
//
// The driver runs `go run -C bench . --workload W --seed N --seconds S
// --trace 0|1` and reads the last line of standard output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: the length of the serve
// workloads' measured phase. The batch workloads do a fixed amount of work
// instead and ignore it.
const runSeconds = 20

// runDeadline ends a single workload run that has hung, inside the 180 s
// the driver allows.
const runDeadline = 170 * time.Second

type options struct {
	workload     string
	seed         int64
	seconds      int
	trace        bool
	quick        bool
	updateGolden bool
	host         *hostProbe // the host-speed reference; nil in tests
	outDir       string     // out/: the built server, traces, results
	tmpDir       string     // out/tmp/<workload>-<pid>: removed when the run ends
}

var workloads = map[string]func(options) (*Result, error){
	wlBatchPaper:  runBatchPaper,
	wlOperators1M: runOperators1M,
	wlServeRead:   runServeRead,
	wlServeMixed:  runServeMixed,
}

func main() {
	var o options
	var trace string
	var aa, hostRef bool
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process and print the driver's result line (default: all, each in a child process)")
	flag.Int64Var(&o.seed, "seed", 0, "input seed; 0 keeps each workload's default (the paper world's own seed)")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "length of the serve workloads' measured phase")
	flag.StringVar(&trace, "trace", "", "1: also run the layer probes, traced, and print per-layer metrics; 0: end-to-end only (default 1 for all workloads, 0 for -workload)")
	flag.BoolVar(&o.quick, "quick", false, "tiny sizes and sub-second phases, for tests; quick numbers are never recorded")
	flag.BoolVar(&aa, "aa", false, "run two sets of ten untraced runs per workload and check every end-to-end spread and median against its bound")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "batch_paper: record this run's Table 1 and F1 values as the golden of its world seed")
	flag.BoolVar(&hostRef, "hostref", false, "internal: run as the host-speed reference helper of another bench process")
	flag.Parse()
	if hostRef {
		if err := serveHostRef(os.Stdin, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	switch trace {
	case "":
		o.trace = o.workload == "" && !aa
	case "0", "false":
	case "1", "true":
		o.trace = true
	default:
		fatal(fmt.Errorf("-trace wants 0 or 1, got %q", trace))
	}
	if o.seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	if _, err := os.Stat("golden/batch_paper.json"); err != nil {
		fatal(fmt.Errorf("run the benchmark from its own directory (go run -C bench .): %w", err))
	}
	o.outDir = "out"

	switch {
	case aa:
		if err := runAA(o); err != nil {
			fatal(err)
		}
	case o.workload != "":
		if !runOne(o) {
			os.Exit(1)
		}
	default:
		if !runAll(o) {
			os.Exit(1)
		}
	}
}

// fatal reports an error that prevented a result and exits non-zero without
// printing one, after killing any server still running.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	killAllServers()
	stopLiveHost()
	os.Exit(2)
}

// runOne runs one workload in this process, writes its full result to
// out/<workload>.result.json and prints the driver's line last. It reports
// whether the result is correct.
func runOne(o options) bool {
	run, ok := workloads[o.workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", ")))
	}
	o.tmpDir = filepath.Join(o.outDir, "tmp", fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err := os.MkdirAll(o.tmpDir, 0o755); err != nil {
		fatal(err)
	}
	host, err := startHostProbe()
	if err != nil {
		fatal(err)
	}
	o.host = host
	cleanup := func() {
		stopLiveHost()
		os.RemoveAll(o.tmpDir)
	}

	// A hung run, or a signal, must not leave a server or a temp dir behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "bench: %v\n", s)
		case <-time.After(runDeadline):
			fmt.Fprintf(os.Stderr, "bench: %s did not finish within %v\n", o.workload, runDeadline)
		}
		killAllServers()
		cleanup()
		os.Exit(3)
	}()

	res, err := run(o)
	cleanup()
	if err != nil {
		fatal(fmt.Errorf("%s: %w", o.workload, err))
	}
	res.recordHost(host)
	for _, f := range res.Failures {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED CHECK: %s\n", o.workload, f)
	}
	if err := writeJSON(filepath.Join(o.outDir, o.workload+".result.json"), res); err != nil {
		fatal(err)
	}
	line, err := res.contract()
	if err != nil {
		fatal(err)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	return res.Correct
}

// finishTrace derives the per-layer table and coverage from a traced run's
// spans and writes them to out/<workload>.trace.json.
func finishTrace(res *Result, tr *Tracer, o options) {
	res.Layers = tr.Layers()
	cov := tr.Coverage()
	res.layer("trace.coverage_share", cov)
	if cov < 0.90 {
		res.fail("the spans account for %.1f%% of the probe sections' wall time, under 90%%", cov*100)
	}
	path := filepath.Join(o.outDir, res.Workload+".trace.json")
	if err := writeJSON(path, traceFile{Workload: res.Workload, Seed: res.Seed, Spans: tr.spans}); err != nil {
		res.fail("writing %s: %v", path, err)
	}
	res.note("trace_file", "%s (%d spans)", filepath.Join("bench", path), len(tr.spans))
}

// runChild runs one workload in a child process — the process-global id and
// term dictionaries and the block/profile caches would otherwise leak from
// one workload into the next, and peak RSS would mean nothing — and returns
// the driver's line it printed.
func runChild(o options, workload string, seed int64, trace bool) (contractLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return contractLine{}, err
	}
	args := []string{"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds), "-trace", "0"}
	if trace {
		args[len(args)-1] = "1"
	}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		// Exit code 1 is a result that failed a check; anything else is no result.
		return contractLine{}, fmt.Errorf("%s: %w", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var line contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return line, fmt.Errorf("%s: last output line is not a result: %w", workload, err)
	}
	return line, nil
}

// runAll runs every workload in a child process of its own and prints one
// report with every end-to-end and per-layer metric by name.
func runAll(o options) bool {
	var results []*Result
	correct := true
	for _, w := range workloadNames {
		fmt.Fprintf(os.Stderr, "bench: running %s ...\n", w)
		if _, err := runChild(o, w, o.seed, o.trace); err != nil {
			fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(o.outDir, w+".result.json"))
		if err != nil {
			fatal(err)
		}
		res := new(Result)
		if err := json.Unmarshal(b, res); err != nil {
			fatal(err)
		}
		results = append(results, res)
		correct = correct && res.Correct
	}
	report := newLedger(o, results)
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	return correct
}
