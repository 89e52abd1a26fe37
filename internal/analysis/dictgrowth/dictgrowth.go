// Package dictgrowth machine-checks the PR 4 ownership rule: read traffic
// never grows a dictionary. Interning tables (sim.Dict, model.IDDict) are
// append-only and never reclaimed, so a read path that interns turns an
// unbounded query stream into unbounded memory growth — the exact failure
// the lookup-only probe APIs (Dict.Lookup, AppendLookupTokenIDs, sim.QueryInto)
// exist to prevent.
//
// The rule is declared in the code: leaf growth APIs carry //moma:interns
// (Dict.ID, IDDict.Ord — and interface methods whose contract permits
// interning, such as sim.ProfiledSim.ProfileInto), and read-side entry
// points carry //moma:readpath (live.Resolver.Resolve, the serve read
// handlers).
// The analyzer propagates "can reach an interning API" backwards through
// the static call graph — across packages via analyzer facts — and reports
// every read-path entry point that can reach a leaf, with the call chain.
// The walk and fixpoint live in callgraph.go.
//
// Calls through function values are invisible to the propagation (a
// documented limitation shared with most static call-graph analyses);
// interface calls resolve to the interface method, which participates via
// annotation. A call site that is provably guarded may be excused with a
// justified //moma:dictgrowth-ok on the call line; a function annotated so
// in its doc comment is treated as non-interning wholesale.
package dictgrowth

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the dictgrowth check.
var Analyzer = &analysis.Analyzer{
	Name: "dictgrowth",
	Doc:  "flag //moma:readpath functions that can reach a //moma:interns API",
	Run:  run,
}

// internsFact marks a function that can (transitively) intern; Chain is
// the human-readable call path down to the leaf.
type internsFact struct{ Chain string }

func (*internsFact) AFact() {}

func run(pass *analysis.Pass) (any, error) {
	nodes := collect(pass, func(call *ast.CallExpr) bool {
		return pass.Suppressed(call.Pos(), nil, "dictgrowth-ok")
	})

	reach := make(marks)
	readpath := make(map[*ast.FuncDecl]bool)
	cleared := make(map[*ast.FuncDecl]bool)
	for _, n := range nodes {
		if _, ok := analysis.DocDirective(n.decl.Doc, "readpath"); ok {
			readpath[n.decl] = true
		}
		if d, ok := analysis.DocDirective(n.decl.Doc, "dictgrowth-ok"); ok {
			cleared[n.decl] = true
			if d.Args == "" {
				pass.Reportf(n.decl.Name.Pos(), "//moma:dictgrowth-ok needs a one-line justification")
			}
		}
		if _, ok := analysis.DocDirective(n.decl.Doc, "interns"); ok && !cleared[n.decl] {
			chain := display(n.fn) + " [//moma:interns]"
			reach[n.fn] = chain
			pass.ExportObjectFact(n.fn, &internsFact{Chain: chain})
		}
	}
	// Interface methods annotated //moma:interns: calls through such an
	// interface count as potential interning even though the concrete
	// implementation is unknown statically.
	seedInterfaceMethods(pass, reach)

	// Fixpoint: a function that calls a marked function is marked. The
	// loader analyzes dependencies first, so cross-package reachability
	// arrives through facts.
	propagate(nodes, reach,
		func(callee *types.Func) (string, bool) {
			var fact internsFact
			if pass.ImportObjectFact(callee, &fact) {
				return fact.Chain, true
			}
			return "", false
		},
		func(n *node) bool { return cleared[n.decl] },
		func(n *node, chain string) {
			pass.ExportObjectFact(n.fn, &internsFact{Chain: chain})
		})

	for _, n := range nodes {
		if !readpath[n.decl] {
			continue
		}
		if chain, ok := reach[n.fn]; ok {
			pass.Reportf(n.decl.Name.Pos(),
				"read path %s can reach an interning API: %s; keep read traffic lookup-only (fix the call, or annotate the guarded call site //moma:dictgrowth-ok <why>)",
				display(n.fn), chain)
		}
	}
	return nil, nil
}

// seedInterfaceMethods marks interface methods annotated //moma:interns.
func seedInterfaceMethods(pass *analysis.Pass, reach marks) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				it, ok := ts.Type.(*ast.InterfaceType)
				if !ok {
					continue
				}
				for _, m := range it.Methods.List {
					if _, ok := analysis.DocDirective(m.Doc, "interns"); !ok || len(m.Names) == 0 {
						continue
					}
					fn, _ := pass.TypesInfo.Defs[m.Names[0]].(*types.Func)
					if fn == nil {
						continue
					}
					chain := ts.Name.Name + "." + fn.Name() + " [interface, //moma:interns]"
					reach[fn] = chain
					pass.ExportObjectFact(fn, &internsFact{Chain: chain})
				}
			}
		}
	}
}
