package dictgrowth

// The call graph the reachability walk runs over. It is static and
// conservative in the same way as the x/tools callgraph/static package:
// calls through function-typed variables are invisible (no edge), and
// interface calls resolve to the interface method object, which
// participates via annotation, not via its implementations.

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// node is one function declaration with its statically-resolved callees.
type node struct {
	decl  *ast.FuncDecl
	fn    *types.Func
	calls []*types.Func
}

// collect gathers the function declarations of the pass's files and their
// statically-resolved callees, in file and declaration order, leaving out
// the call sites skip rejects.
func collect(pass *analysis.Pass, skip func(*ast.CallExpr) bool) []*node {
	var nodes []*node
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[d.Name].(*types.Func)
			if fn == nil {
				continue
			}
			n := &node{decl: d, fn: fn}
			ast.Inspect(d.Body, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := analysis.CalleeFunc(pass.TypesInfo, call); callee != nil && !skip(call) {
					n.calls = append(n.calls, callee)
				}
				return true
			})
			nodes = append(nodes, n)
		}
	}
	return nodes
}

// marks maps a function to the human-readable call chain down to an
// interning leaf.
type marks map[*types.Func]string

// propagate runs the fixpoint: a node with a marked callee — marked in this
// package, or marked in a dependency per lookup — becomes marked with
// "display(node) → <callee chain>". Nodes skip accepts are never marked.
// onMark is invoked once per newly marked node, in discovery order.
// Iteration handles in-package mutual recursion; the driver's
// dependency-first package order handles cross-package edges.
func propagate(nodes []*node, m marks, lookup func(*types.Func) (string, bool), skip func(*node) bool, onMark func(*node, string)) {
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			if m[n.fn] != "" || (skip != nil && skip(n)) {
				continue
			}
			for _, callee := range n.calls {
				chain, ok := m[callee]
				if !ok && lookup != nil {
					chain, ok = lookup(callee)
				}
				if !ok {
					continue
				}
				full := display(n.fn) + " → " + chain
				m[n.fn] = full
				if onMark != nil {
					onMark(n, full)
				}
				changed = true
				break
			}
		}
	}
}

// display renders a function as Name or Recv.Name, relative to its package.
func display(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		return types.TypeString(t, types.RelativeTo(fn.Pkg())) + "." + fn.Name()
	}
	return fn.Name()
}
