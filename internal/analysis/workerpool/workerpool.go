// Package workerpool machine-checks the repository's one parallel-write
// idiom, the shape of par.Plan.Run and par.RunTeam that the mapping
// operators and the match kernel run on: a goroutine launched in a loop may
// write shared state only by partition.
//
// Three rules apply to every `go func(...){...}(...)` inside a for or
// range statement:
//
//   - A write to a captured slice must index it with a per-worker value: a
//     parameter of the goroutine's function literal, the loop variable
//     (per-iteration since Go 1.22), a local of the literal, or a
//     constant. Indexing with any other captured variable (a shared
//     cursor) is reported — two workers can collide on one slot.
//   - A write to a captured map is reported outright unless the goroutine
//     visibly holds a lock (any .Lock/.RLock call in its body): map
//     writes race even at distinct keys.
//   - Any other assignment to a captured variable (shared counters,
//     append-to-shared-slice) is reported unless locked.
//   - A goroutine that writes captured state, or signals a
//     sync.WaitGroup, requires a visible wg.Wait in the enclosing
//     function — the join that makes the writes safe to read.
//
// Goroutines that only send on channels need no WaitGroup join (the
// receive is the join) and are left alone, as are single goroutines
// launched outside loops. //moma:workerpool-ok <why> on the go statement
// (or the enclosing function's doc comment) suppresses with a
// justification.
package workerpool

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the workerpool check.
var Analyzer = &analysis.Analyzer{
	Name: "workerpool",
	Doc:  "check loop-launched goroutines for partitioned writes and a visible join",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Body == nil {
				continue
			}
			checkFunc(pass, d)
		}
	}
	return nil, nil
}

// launch is one `go func(...){...}(...)` inside a loop.
type launch struct {
	g    *ast.GoStmt
	lit  *ast.FuncLit
	loop ast.Stmt
}

func checkFunc(pass *analysis.Pass, d *ast.FuncDecl) {
	launches := collectLaunches(d.Body)
	if len(launches) == 0 {
		return
	}
	hasWait := containsWaitGroupWait(pass, d.Body)
	for _, l := range launches {
		if pass.Suppressed(l.g.Pos(), d.Doc, "workerpool-ok") {
			continue
		}
		checkLaunch(pass, d, l, hasWait)
	}
}

// collectLaunches walks one function body and returns the go-func-literal
// statements under a for/range statement. Descending into a nested func
// literal resets the loop context: a goroutine inside a worker's body is
// loop-launched only by its own loops.
func collectLaunches(body ast.Node) []launch {
	var out []launch
	var walk func(n ast.Node, loop ast.Stmt)
	walk = func(n ast.Node, loop ast.Stmt) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.ForStmt:
			walk(n.Init, loop)
			walk(n.Body, n)
			return
		case *ast.RangeStmt:
			walk(n.Body, n)
			return
		case *ast.FuncLit:
			walk(n.Body, nil)
			return
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok && loop != nil {
				out = append(out, launch{g: n, lit: lit, loop: loop})
				for _, arg := range n.Call.Args {
					walk(arg, loop)
				}
				walk(lit.Body, nil)
				return
			}
		}
		var kids []ast.Node
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			if c != nil {
				kids = append(kids, c)
			}
			return false
		})
		for _, k := range kids {
			walk(k, loop)
		}
	}
	walk(body, nil)
	return out
}

func checkLaunch(pass *analysis.Pass, d *ast.FuncDecl, l launch, hasWait bool) {
	loopVars := loopVarObjects(pass, l.loop)
	locked := containsLockCall(l.lit.Body)
	usesWG := containsWaitGroupSignal(pass, l.lit.Body)
	wrote := false

	report := func(pos token.Pos, format string, args ...any) {
		pass.Reportf(pos, format+" (partition by index — each worker owns one slot, joined by wg.Wait — or annotate //moma:workerpool-ok <why>)", args...)
	}

	ast.Inspect(l.lit.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != ast.Node(l.lit) {
			return false // a nested literal runs on this goroutine's stack later; out of scope
		}
		var lhss []ast.Expr
		var pos token.Pos
		switch n := n.(type) {
		case *ast.AssignStmt:
			lhss, pos = n.Lhs, n.Pos()
		case *ast.IncDecStmt:
			lhss, pos = []ast.Expr{n.X}, n.Pos()
		default:
			return true
		}
		for _, lhs := range lhss {
			switch lhs := ast.Unparen(lhs).(type) {
			case *ast.Ident:
				obj := pass.TypesInfo.ObjectOf(lhs)
				if !captured(obj, l.lit) || loopVars[obj] {
					continue
				}
				wrote = true
				if !locked {
					report(pos, "goroutine launched in a loop assigns captured variable %s", lhs.Name)
				}
			case *ast.IndexExpr:
				base, ok := ast.Unparen(lhs.X).(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.ObjectOf(base)
				if !captured(obj, l.lit) {
					continue
				}
				wrote = true
				if locked {
					continue
				}
				switch pass.TypesInfo.Types[lhs.X].Type.Underlying().(type) {
				case *types.Map:
					report(pos, "goroutine launched in a loop writes shared map %s without holding a lock", base.Name)
				case *types.Slice, *types.Array:
					if id, bad := unsafeIndexIdent(pass, lhs.Index, l.lit, loopVars); bad {
						report(pos, "goroutine launched in a loop writes shared slice %s at non-partitioned index %s", base.Name, id)
					}
				}
			}
		}
		return true
	})

	if (wrote || usesWG) && !hasWait {
		report(l.g.Pos(), "goroutine launched in a loop has no visible sync.WaitGroup join in %s; call wg.Wait before reading results", d.Name.Name)
	}
}

// captured reports whether obj is a variable declared outside lit — state
// the goroutine shares with its siblings.
func captured(obj types.Object, lit *ast.FuncLit) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	return v.Pos() < lit.Pos() || v.Pos() > lit.End()
}

// unsafeIndexIdent reports the first identifier in an index expression
// that is neither a goroutine-local, a parameter of the literal, the
// enclosing loop's variable, nor a constant — i.e. a shared cursor.
func unsafeIndexIdent(pass *analysis.Pass, index ast.Expr, lit *ast.FuncLit, loopVars map[types.Object]bool) (string, bool) {
	var name string
	ast.Inspect(index, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || name != "" {
			return name == ""
		}
		obj := pass.TypesInfo.ObjectOf(id)
		v, isVar := obj.(*types.Var)
		if !isVar {
			return true // constants, types, functions: not a shared cursor
		}
		if loopVars[obj] || (v.Pos() >= lit.Pos() && v.Pos() <= lit.End()) {
			return true
		}
		name = id.Name
		return false
	})
	return name, name != ""
}

// loopVarObjects returns the per-iteration variables of a for/range
// statement (safe partition indexes since Go 1.22).
func loopVarObjects(pass *analysis.Pass, loop ast.Stmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	add := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
				out[obj] = true
			}
		}
	}
	switch loop := loop.(type) {
	case *ast.RangeStmt:
		if loop.Key != nil {
			add(loop.Key)
		}
		if loop.Value != nil {
			add(loop.Value)
		}
	case *ast.ForStmt:
		if init, ok := loop.Init.(*ast.AssignStmt); ok {
			for _, lhs := range init.Lhs {
				add(lhs)
			}
		}
	}
	return out
}

// containsLockCall reports whether the body visibly takes a lock.
func containsLockCall(body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// containsWaitGroupSignal reports whether the goroutine body touches a
// sync.WaitGroup (Done or Add).
func containsWaitGroupSignal(pass *analysis.Pass, body ast.Node) bool {
	return containsWaitGroupCall(pass, body, "Done", "Add")
}

// containsWaitGroupWait reports whether the function body joins on a
// sync.WaitGroup.
func containsWaitGroupWait(pass *analysis.Pass, body ast.Node) bool {
	return containsWaitGroupCall(pass, body, "Wait")
}

func containsWaitGroupCall(pass *analysis.Pass, body ast.Node, names ...string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return !found
		}
		for _, name := range names {
			if sel.Sel.Name == name && isWaitGroup(pass.TypesInfo.Types[sel.X].Type) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isWaitGroup(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
