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
	"flag"
	"fmt"
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

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON lines (file, line, col, analyzer, message)")
	suppressions := flag.Bool("suppressions", false, "list every suppression directive in the module and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: moma-vet [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range all {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	dir, err := os.Getwd()
	if err != nil {
		fatal(err)
	}

	if *suppressions {
		supps, err := analysis.ScanModuleSuppressions(dir, flag.Args()...)
		if err != nil {
			fatal(err)
		}
		bare := 0
		for _, s := range supps {
			fmt.Println(s)
			if s.Justification == "" {
				bare++
			}
		}
		fmt.Fprintf(os.Stderr, "moma-vet: %d suppression(s)", len(supps))
		if bare > 0 {
			fmt.Fprintf(os.Stderr, ", %d without justification", bare)
		}
		fmt.Fprintln(os.Stderr)
		return
	}

	fset, pkgs, err := analysis.Load(dir, flag.Args()...)
	if err != nil {
		fatal(err)
	}
	findings, err := analysis.Run(fset, pkgs, all)
	if err != nil {
		fatal(err)
	}
	for _, f := range findings {
		if *jsonOut {
			printJSON(f)
		} else {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "moma-vet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
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

func printJSON(f analysis.Finding) {
	b, err := json.Marshal(jsonFinding{
		File:     f.Pos.Filename,
		Line:     f.Pos.Line,
		Col:      f.Pos.Column,
		Analyzer: f.Analyzer,
		Message:  f.Message,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "moma-vet:", err)
	os.Exit(2)
}
