// Package analysis is a minimal, dependency-free reimplementation of the
// core of golang.org/x/tools/go/analysis, plus a go-list-driven loader and
// multichecker driver (load.go). The repository vendors no third
// party modules, so the x/tools framework is unavailable; this package
// keeps the same shape — Analyzer, Pass, Diagnostic, object Facts — so the
// moma-vet analyzers read like stock go/analysis checkers and could be
// ported to the real framework by swapping the import.
//
// The analyzers under internal/analysis/... machine-check the repository's
// construction rules (see "Repo invariants" in the root package doc):
// deterministic map iteration (mapiter), no interning on read paths
// (dictgrowth) and no dropped error from a durability call (errsink).
// Rules are declared as //moma:* comment directives in the code they
// protect, so the invariants live next to the code as checkable artifacts
// rather than as tribal knowledge. Invariants a runtime test can hold —
// allocation budgets, lock discipline, parallel columns, worker
// partitioning — are held by tests instead (see "Repo invariants").
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
)

// Analyzer describes one static check, mirroring the x/tools type of the
// same name.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags.
	Name string
	// Doc is the help text; its first line is the summary.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) (any, error)
}

// Diagnostic is one reported problem.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Fact is an analyzer-private datum attached to a types.Object and visible
// to later passes of the same analyzer over dependent packages. Facts must
// be pointer types with an AFact method, as in x/tools.
type Fact interface{ AFact() }

// factKey identifies one fact: facts of distinct types coexist on an
// object, facts of the same type overwrite.
type factKey struct {
	obj types.Object
	t   reflect.Type
}

// FactStore holds the facts of one driver run. Packages are type-checked
// into one shared universe (the loader reuses *types.Package instances
// across importers), so object identity is stable across passes and no
// serialization is needed.
type FactStore struct {
	m map[factKey]Fact
}

// NewFactStore returns an empty store, shared by all passes of a run.
func NewFactStore() *FactStore { return &FactStore{m: make(map[factKey]Fact)} }

// Pass carries one analyzer's view of one package, mirroring x/tools.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report publishes a diagnostic.
	Report func(Diagnostic)

	facts *FactStore
	notes map[string]map[int][]Directive // filename -> line -> directives
}

// NewPass assembles a pass; drivers (run.go, analysistest) use it.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, facts *FactStore, report func(Diagnostic)) *Pass {
	return &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, Report: report, facts: facts}
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ExportObjectFact attaches fact to obj for passes over dependent packages.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil {
		return
	}
	p.facts.m[factKey{obj, reflect.TypeOf(fact)}] = fact
}

// ImportObjectFact copies the fact of ptr's type attached to obj into ptr,
// reporting whether one was found.
func (p *Pass) ImportObjectFact(obj types.Object, ptr Fact) bool {
	if obj == nil {
		return false
	}
	f, ok := p.facts.m[factKey{obj, reflect.TypeOf(ptr)}]
	if !ok {
		return false
	}
	reflect.ValueOf(ptr).Elem().Set(reflect.ValueOf(f).Elem())
	return true
}

// CalleeFunc resolves the function or method a call expression statically
// invokes: a package function, a concrete method, or an interface method.
// Calls through function-typed variables resolve to nil.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	case *ast.IndexExpr:
		if base, ok := ast.Unparen(f.X).(*ast.Ident); ok {
			id = base
		} else if sel, ok := ast.Unparen(f.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	case *ast.IndexListExpr:
		if base, ok := ast.Unparen(f.X).(*ast.Ident); ok {
			id = base
		} else if sel, ok := ast.Unparen(f.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	}
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsPkgFunc reports whether fn is the named function of the named package
// ("" matches builtins and the current package never matches).
func IsPkgFunc(fn *types.Func, pkgPath string, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}
