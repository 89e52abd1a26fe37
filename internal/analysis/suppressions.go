package analysis

// Suppression audit: every //moma:*-ok directive is debt — a place where an
// invariant is waived by hand. The analyzers enforce that each carries a
// one-line justification; this file collects them so `moma-vet
// -suppressions` can list the debt with file:line for review.

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Suppression is one suppression directive in the tree.
type Suppression struct {
	Pos           token.Position
	Name          string // directive name: "dictgrowth-ok", "errsink-ok", ...
	Justification string // the directive's argument text; empty is debt-on-debt
}

func (s Suppression) String() string {
	j := s.Justification
	if j == "" {
		j = "(NO JUSTIFICATION)"
	}
	return fmt.Sprintf("%s:%d: //moma:%s %s", s.Pos.Filename, s.Pos.Line, s.Name, j)
}

// ScanSuppressions lists the suppression directives of parsed files,
// sorted by position.
func ScanSuppressions(fset *token.FileSet, files []*ast.File) []Suppression {
	var out []Suppression
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c)
				if !ok || !strings.HasSuffix(d.Name, "-ok") {
					continue
				}
				out = append(out, Suppression{
					Pos:           fset.Position(d.Pos),
					Name:          d.Name,
					Justification: d.Args,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return out
}

// suppListPkg is the `go list` subset the suppression scan consumes.
type suppListPkg struct {
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Module       *struct{ Main bool }
}

// ScanModuleSuppressions parses every in-module file the patterns match —
// including test files, which Load skips — and returns their suppression
// directives. Parse-only: no type checking, so it stays fast enough to run
// on every review.
func ScanModuleSuppressions(dir string, patterns ...string) ([]Suppression, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-json=Dir,GoFiles,TestGoFiles,XTestGoFiles,Module",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v", patterns, err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for dec.More() {
		var lp suppListPkg
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("go list decode: %v", err)
		}
		if lp.Module == nil || !lp.Module.Main {
			continue
		}
		var names []string
		names = append(names, lp.GoFiles...)
		names = append(names, lp.TestGoFiles...)
		names = append(names, lp.XTestGoFiles...)
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("parse %s: %v", name, err)
			}
			files = append(files, f)
		}
	}
	return ScanSuppressions(fset, files), nil
}
