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
// The walk and fixpoint live in internal/analysis/callgraph, shared with
// the noalloc analyzer.
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
	"repro/internal/analysis/callgraph"
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
	nodes := callgraph.Collect(pass, func(call *ast.CallExpr) bool {
		return pass.Suppressed(call.Pos(), nil, "dictgrowth-ok")
	})

	marks := make(callgraph.Marks)
	readpath := make(map[*ast.FuncDecl]bool)
	cleared := make(map[*ast.FuncDecl]bool)
	for _, n := range nodes {
		if _, ok := analysis.DocDirective(n.Decl.Doc, "readpath"); ok {
			readpath[n.Decl] = true
		}
		if d, ok := analysis.DocDirective(n.Decl.Doc, "dictgrowth-ok"); ok {
			cleared[n.Decl] = true
			if d.Args == "" {
				pass.Reportf(n.Decl.Name.Pos(), "//moma:dictgrowth-ok needs a one-line justification")
			}
		}
		if _, ok := analysis.DocDirective(n.Decl.Doc, "interns"); ok && !cleared[n.Decl] {
			chain := callgraph.Display(n.Fn) + " [//moma:interns]"
			marks[n.Fn] = chain
			pass.ExportObjectFact(n.Fn, &internsFact{Chain: chain})
		}
	}
	// Interface methods annotated //moma:interns: calls through such an
	// interface count as potential interning even though the concrete
	// implementation is unknown statically.
	seedInterfaceMethods(pass, marks)

	// Fixpoint: a function that calls a marked function is marked. The
	// loader analyzes dependencies first, so cross-package reachability
	// arrives through facts.
	callgraph.Propagate(nodes, marks,
		func(callee *types.Func) (string, bool) {
			var fact internsFact
			if pass.ImportObjectFact(callee, &fact) {
				return fact.Chain, true
			}
			return "", false
		},
		func(n *callgraph.Node) bool { return cleared[n.Decl] },
		func(n *callgraph.Node, chain string) {
			pass.ExportObjectFact(n.Fn, &internsFact{Chain: chain})
		})

	for _, n := range nodes {
		if !readpath[n.Decl] {
			continue
		}
		if chain, ok := marks[n.Fn]; ok {
			pass.Reportf(n.Decl.Name.Pos(),
				"read path %s can reach an interning API: %s; keep read traffic lookup-only (fix the call, or annotate the guarded call site //moma:dictgrowth-ok <why>)",
				callgraph.Display(n.Fn), chain)
		}
	}
	return nil, nil
}

// seedInterfaceMethods marks interface methods annotated //moma:interns.
func seedInterfaceMethods(pass *analysis.Pass, marks callgraph.Marks) {
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
					marks[fn] = chain
					pass.ExportObjectFact(fn, &internsFact{Chain: chain})
				}
			}
		}
	}
}
