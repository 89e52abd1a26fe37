// Command moma-vet runs the repository's invariant analyzers (see
// internal/analysis) over Go packages and exits non-zero if any invariant
// is violated. It is a standalone multichecker rather than a `go vet
// -vettool` plugin: the vettool protocol requires the x/tools unitchecker
// machinery (serialized facts, objectpath), which the dependency-free
// framework deliberately omits. CI builds this binary and runs it right
// after `go vet`.
//
// Usage:
//
//	moma-vet [-json] [packages]
//	moma-vet -suppressions [packages]
//
// Every analyzer runs; -h lists them. Packages default to ./... resolved
// in the current directory. -json emits one JSON object per finding
// (fields in fixed order: file, line, col, analyzer, message) so CI can
// pipe the output through a GitHub Actions problem matcher and annotate PR
// diffs inline. -suppressions lists every //moma:*-ok directive in the
// module — including test files — with file:line and justification, so
// suppression debt is auditable in review.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/dictgrowth"
	"repro/internal/analysis/errsink"
	"repro/internal/analysis/mapiter"
)

var all = []*analysis.Analyzer{
	mapiter.Analyzer,
	dictgrowth.Analyzer,
	errsink.Analyzer,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, writes findings (or suppressions) to
// stdout and the summary to stderr, and returns the exit code — 0 clean,
// 1 findings, 2 a usage or load error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("moma-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as JSON lines (file, line, col, analyzer, message)")
	suppressions := fs.Bool("suppressions", false, "list every suppression directive in the module and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: moma-vet [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range all {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "moma-vet:", err)
		return 2
	}

	dir, err := os.Getwd()
	if err != nil {
		return fail(err)
	}

	if *suppressions {
		supps, err := analysis.ScanModuleSuppressions(dir, fs.Args()...)
		if err != nil {
			return fail(err)
		}
		bare := 0
		for _, s := range supps {
			fmt.Fprintln(stdout, s)
			if s.Justification == "" {
				bare++
			}
		}
		fmt.Fprintf(stderr, "moma-vet: %d suppression(s)", len(supps))
		if bare > 0 {
			fmt.Fprintf(stderr, ", %d without justification", bare)
		}
		fmt.Fprintln(stderr)
		return 0
	}

	fset, pkgs, err := analysis.Load(dir, fs.Args()...)
	if err != nil {
		return fail(err)
	}
	findings, err := analysis.Run(fset, pkgs, all)
	if err != nil {
		return fail(err)
	}
	for _, f := range findings {
		if !*jsonOut {
			fmt.Fprintln(stdout, f)
			continue
		}
		b, err := json.Marshal(jsonFinding{
			File:     f.Pos.Filename,
			Line:     f.Pos.Line,
			Col:      f.Pos.Column,
			Analyzer: f.Analyzer,
			Message:  f.Message,
		})
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(b))
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "moma-vet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// jsonFinding fixes the field order the CI problem matcher's regex relies
// on (see .github/moma-vet-matcher.json): file, line, col, analyzer,
// message.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}
