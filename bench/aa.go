package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/bench/stats"
)

// aaRuns is the number of runs per set the driver's acceptance procedure
// makes; its quartile rule is defined for that count.
const aaRuns = 10

// runAA is the driver's acceptance procedure run on one commit: two sets of
// aaRuns untraced runs per workload, every run with another seed. It fails
// when an end-to-end metric's spread within a set (inter-quartile distance
// over median; setup_s exempt) exceeds the metric's bound, or when the
// second set's median is worse than the first's by more than the bound.
func runAA(o options) error {
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	// values[set][workload][metric] collects one value per run.
	var values [2]map[string]map[string][]float64
	seed := o.seed
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for _, w := range names {
			values[set][w] = map[string][]float64{}
			for r := 0; r < aaRuns; r++ {
				seed++
				fmt.Fprintf(os.Stderr, "bench: A/A set %d, %s, seed %d\n", set+1, w, seed)
				line, err := runChild(o, w, seed, false)
				if err != nil {
					return err
				}
				if !line.Correct || line.Failed > 0 {
					return fmt.Errorf("%s seed %d: incorrect result (%d of %d operations failed)", w, seed, line.Failed, line.Attempted)
				}
				for _, d := range slots {
					values[set][w][d.Name] = append(values[set][w][d.Name], line.Metrics[d.Name].Value)
				}
			}
		}
	}

	if err := writeJSON(filepath.Join(o.outDir, "aa.json"), values); err != nil {
		return err
	}
	breaches := 0
	fmt.Printf("%-13s %-14s %12s %12s %8s %8s %8s %7s\n", "workload", "metric", "median A", "median B", "spreadA", "spreadB", "B vs A", "bound")
	for _, w := range names {
		for _, d := range slots {
			a, b := values[0][w][d.Name], values[1][w][d.Name]
			medA, medB := stats.Median(a), stats.Median(b)
			spA, spB := stats.Spread(a), stats.Spread(b)
			worse := stats.WorseBy(medA, medB, d.Better == "lower")
			verdict := ""
			if d.Name != "setup_s" && (spA > d.Bound || spB > d.Bound) {
				verdict += " SPREAD"
			}
			if worse > d.Bound {
				verdict += " MEDIAN"
			}
			if verdict != "" {
				breaches++
			}
			fmt.Printf("%-13s %-14s %12.6g %12.6g %8.4f %8.4f %+8.4f %7.3f%s\n", w, d.Name, medA, medB, spA, spB, worse, d.Bound, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("A/A: %d end-to-end metric(s) outside their bound", breaches)
	}
	return nil
}
