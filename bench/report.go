package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is everything one workload run found. EndToEnd is keyed by the
// named metrics of namedE2E; PerLayer and Layers are filled only by a
// traced run.
type Result struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Quick     bool   `json:"quick,omitempty"`
	Seconds   int    `json:"seconds"`
	Traced    bool   `json:"traced"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Failures lists every correctness check that did not hold.
	Failures []string          `json:"failures,omitempty"`
	EndToEnd map[string]Metric `json:"end_to_end"`
	PerLayer map[string]Metric `json:"per_layer,omitempty"`
	// Layers is the per-span-name table derived from the trace.
	Layers []LayerRow `json:"layers,omitempty"`
	// Notes carry what a reader needs beside the numbers: sample counts,
	// the flush policy, the world seed, flags raised by the run.
	Notes map[string]string `json:"notes,omitempty"`

	// hostBound is set by the workloads whose times follow the host's memory
	// speed; their end-to-end times are stated relative to it (hostref.go).
	hostBound bool
}

func newResult(workload string, o options) *Result {
	return &Result{
		Workload: workload, Seed: o.seed, Quick: o.quick, Seconds: o.seconds, Traced: o.trace,
		EndToEnd: map[string]Metric{}, PerLayer: map[string]Metric{}, Notes: map[string]string{},
	}
}

func (r *Result) e2e(name string, v float64) {
	r.EndToEnd[name] = Metric{Value: v, Unit: unitOf(namedE2E, name)}
}

func (r *Result) layer(name string, v float64) {
	r.PerLayer[name] = Metric{Value: v, Unit: unitOf(perLayer, name)}
}

func (r *Result) note(key, format string, args ...any) {
	r.Notes[key] = fmt.Sprintf(format, args...)
}

// fail records a correctness failure.
func (r *Result) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// unitScale is the factor that converts a named metric's unit to its slot's.
func unitScale(from, to string) (float64, bool) {
	if from == to {
		return 1, true
	}
	f, ok := map[[2]string]float64{{"s", "ms"}: 1e3, {"us", "ms"}: 1e-3, {"%", "share"}: 1e-2}[[2]string{from, to}]
	return f, ok
}

// contractLine is the object the driver reads from the last line of
// standard output.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// contract renders the result the way the driver wants it: every slot with
// tracing off, every per-layer metric (0 where the workload has none) with
// tracing on.
func (r *Result) contract() (contractLine, error) {
	out := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]Metric{}}
	if r.Traced {
		for _, d := range perLayer {
			out.Metrics[d.Name] = Metric{Value: r.PerLayer[d.Name].Value, Unit: d.Unit}
		}
		return out, nil
	}
	for i, d := range slots {
		name := slotBinding[r.Workload][i]
		m, ok := r.EndToEnd[name]
		if !ok {
			return out, fmt.Errorf("workload %s did not measure %s", r.Workload, name)
		}
		scale, ok := unitScale(m.Unit, d.Unit)
		if !ok {
			return out, fmt.Errorf("%s is in %s and cannot fill slot %s [%s]", name, m.Unit, d.Name, d.Unit)
		}
		out.Metrics[d.Name] = Metric{Value: m.Value * scale, Unit: d.Unit}
	}
	return out, nil
}

// writeJSON writes v, indented, to path, creating the directory.
func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Ledger is the full report of one `go run ./bench`: where and on what it
// ran, and every workload's result.
type Ledger struct {
	Commit    string    `json:"commit"`
	GoVersion string    `json:"go_version"`
	NProc     int       `json:"nproc"`
	Seed      int64     `json:"seed"`
	Seconds   int       `json:"seconds"`
	Quick     bool      `json:"quick,omitempty"`
	Policy    string    `json:"policy"`
	Results   []*Result `json:"results"`
}

// policyNote states what the numbers do and do not mean.
const policyNote = "closed loop, at most nproc client connections; store flush policy is the store's own: " +
	"WAL flushed to the kernel per record, fsync only at compaction; latencies are the sandbox's " +
	"(loopback, page-cache writes), not a device's; no multi-core scaling claim is derived from this benchmark"

func newLedger(o options, results []*Result) *Ledger {
	return &Ledger{
		Commit: gitCommit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		Seed: o.seed, Seconds: o.seconds, Quick: o.quick, Policy: policyNote, Results: results,
	}
}
