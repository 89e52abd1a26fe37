// Command moma-bench regenerates every table and figure of the paper's
// evaluation (§5) on the synthetic bibliographic dataset, printing them in
// the paper's layout. It is the human-facing counterpart of the
// testing.B benchmarks in the repository root.
//
// Usage:
//
//	moma-bench [-scale paper|small] [-only "Table 2,Table 9"] [-seed N] [-workers N]
//
// At paper scale the dataset matches Table 1 exactly (DBLP 2616
// publications, ACM 2294, GS 64263); the full run takes a couple of
// minutes. -only restricts the run to a comma-separated list of experiment
// IDs. -workers caps GOMAXPROCS and thereby both the ranges the match
// kernel scores at once and the workers of the parallel
// mapping operators (matchers and operators default their worker count to
// GOMAXPROCS), which is useful for comparing sequential and parallel runs
// on the same hardware — operator outputs are bit-identical at every
// worker count, so the tables must not change with -workers.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/sources"
)

func main() {
	scale := flag.String("scale", "paper", "dataset scale: paper or small")
	only := flag.String("only", "", "comma-separated experiment IDs to run (e.g. \"Table 2,Figure 9\")")
	seed := flag.Int64("seed", 0, "override the dataset seed (0 keeps the default)")
	workers := flag.Int("workers", 0, "cap GOMAXPROCS and thereby the default parallelism of matchers and mapping operators (0 = all cores, clamped to the core count)")
	flag.Parse()

	if *workers > 0 {
		if *workers > runtime.NumCPU() {
			*workers = runtime.NumCPU()
		}
		runtime.GOMAXPROCS(*workers)
	}

	var cfg sources.Config
	switch *scale {
	case "paper":
		cfg = sources.PaperConfig()
	case "small":
		cfg = sources.SmallConfig()
	default:
		fmt.Fprintf(os.Stderr, "moma-bench: unknown scale %q (want paper or small)\n", *scale)
		os.Exit(2)
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	wanted := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			wanted[strings.ToLower(id)] = true
		}
	}
	runAll := len(wanted) == 0
	shouldRun := func(id string) bool { return runAll || wanted[strings.ToLower(id)] }

	start := time.Now()
	fmt.Printf("moma-bench: generating %s-scale dataset (seed %d)...\n", *scale, cfg.Seed)
	setting := experiments.NewSetting(cfg)
	fmt.Printf("moma-bench: dataset and GS working set ready in %v\n\n", time.Since(start).Round(time.Millisecond))

	type experiment struct {
		id  string
		run func(*experiments.Setting) (*experiments.TableResult, error)
	}
	static := map[string]func() (*experiments.TableResult, error){
		"Figure 4": experiments.Figure4,
		"Figure 6": experiments.Figure6,
		"Figure 9": experiments.Figure9,
	}
	ordered := []experiment{
		{"Table 1", experiments.Table1},
		{"Table 2", experiments.Table2},
		{"Table 3", experiments.Table3},
		{"Table 4", experiments.Table4},
		{"Table 5", experiments.Table5},
		{"Table 6", experiments.Table6},
		{"Table 7", experiments.Table7},
		{"Table 8", experiments.Table8},
		{"Table 9", experiments.Table9},
		{"Table 10", experiments.Table10},
		{"Figure 8", experiments.Figure8Hub},
		{"Ablation A1", experiments.AblationMergeMissing},
		{"Ablation A2", experiments.AblationComposeAgg},
		{"Ablation A3", experiments.AblationBlocking},
		{"Ablation A4", experiments.AblationHubChoice},
		{"Extension E1", experiments.ExtensionGSSelfMapping},
		{"Extension E2", experiments.ExtensionSelfTuning},
	}

	failed := false
	for _, id := range []string{"Figure 4", "Figure 6", "Figure 9"} {
		if !shouldRun(id) {
			continue
		}
		r, err := static[id]()
		if err != nil {
			fmt.Fprintf(os.Stderr, "moma-bench: %s: %v\n", id, err)
			failed = true
			continue
		}
		fmt.Println(r.Render())
	}
	for _, ex := range ordered {
		if !shouldRun(ex.id) {
			continue
		}
		t0 := time.Now()
		r, err := ex.run(setting)
		if err != nil {
			fmt.Fprintf(os.Stderr, "moma-bench: %s: %v\n", ex.id, err)
			failed = true
			continue
		}
		fmt.Printf("%s  [%v]\n", r.Render(), time.Since(t0).Round(time.Millisecond))
	}
	fmt.Printf("moma-bench: done in %v\n", time.Since(start).Round(time.Millisecond))
	if failed {
		os.Exit(1)
	}
}
