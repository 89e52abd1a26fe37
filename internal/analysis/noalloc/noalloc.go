// Package noalloc machine-checks the repository's "0 allocs warm path"
// headline claims. The hot functions earn their benchmarks by never
// touching the heap in steady state — warm live.Resolver.Resolve, the
// index.Ords candidate probes, the similarity measures (sim.QueryInto and
// the ProfiledSim ProfileInto and Compare stages that keep no strings), the
// columnar mapping read probes. Those claims were previously pinned only by
// benchmarks behind a >20% regression gate; a slowly-introduced allocation
// ships silently. This analyzer turns the claim into a machine-checked
// annotation.
//
// A function marked //moma:noalloc in its doc comment must not contain a
// heap-allocating construct and must not call — through any statically
// visible chain — a function that does. Flagged constructs: make, new,
// map/slice composite literals (and &T{} literals, which escape), func
// literals (closures), append (growth), string concatenation, string ↔
// []byte/[]rune conversions, boxing into interfaces, and calls into
// known-allocating standard-library APIs (fmt and errors wholesale, the
// allocating strings/strconv/sort/slices/bytes/maps entry points). The
// "can allocate" property propagates backwards through the call graph
// (internal/analysis/callgraph) — across packages via analyzer facts — so
// a //moma:noalloc function calling an allocating helper three packages
// away is reported with the full chain. Functions themselves annotated
// //moma:noalloc are trusted by their callers and checked at their own
// declaration, so one obligation never produces cascaded reports.
//
// Two escapes exist, both requiring a one-line justification:
//
//   - //moma:cold <why> on a statement exempts that statement's whole
//     subtree — the idiom for one-time growth branches (lazy cache
//     builds, first-call pool fills) inside a warm function.
//   - //moma:noalloc-ok <why> on a site line (or, wholesale, in a
//     function's doc comment) suppresses one construct — the idiom for
//     appends into pooled or caller-reused buffers, and for closures the
//     compiler provably keeps on the stack.
//
// The analysis is conservative where Go's escape analysis is precise: a
// value struct literal costs nothing and is not flagged, but a closure or
// an append the compiler would keep on the stack is still reported —
// suppress it and say why. Calls through function values are invisible to
// the propagation, and interface method calls resolve to the interface
// method (trusted unless the method itself is reachable-marked); the
// testing.AllocsPerRun gates on the annotated paths complement the static
// walk dynamically.
package noalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// Analyzer is the noalloc check.
var Analyzer = &analysis.Analyzer{
	Name: "noalloc",
	Doc:  "flag //moma:noalloc functions that can reach a heap allocation",
	Run:  run,
}

// allocsFact marks a function that can (transitively) allocate; Chain is
// the human-readable call path down to the allocating construct.
type allocsFact struct{ Chain string }

func (*allocsFact) AFact() {}

// site is one allocating construct found in a function body.
type site struct {
	pos  token.Pos
	desc string
}

func run(pass *analysis.Pass) (any, error) {
	nodes := callgraph.Collect(pass, func(call *ast.CallExpr) bool {
		return suppressedAt(pass, call.Pos())
	})

	marks := make(callgraph.Marks)
	noalloc := make(map[*ast.FuncDecl]bool)
	cleared := make(map[*ast.FuncDecl]bool)
	sites := make(map[*ast.FuncDecl][]site)
	for _, n := range nodes {
		if _, ok := analysis.DocDirective(n.Decl.Doc, "noalloc"); ok {
			noalloc[n.Decl] = true
		}
		if d, ok := analysis.DocDirective(n.Decl.Doc, "noalloc-ok"); ok {
			cleared[n.Decl] = true
			if d.Args == "" {
				pass.Reportf(n.Decl.Name.Pos(), "//moma:noalloc-ok needs a one-line justification")
			}
		}
		if cleared[n.Decl] {
			continue
		}
		sites[n.Decl] = collectAllocs(pass, n.Decl)
	}

	// Seed: a function with an unsuppressed allocating construct can
	// allocate. //moma:noalloc functions are exempt from marking — their
	// violations are reported at their own declaration below, and callers
	// trust the annotation rather than re-deriving it.
	for _, n := range nodes {
		if noalloc[n.Decl] || cleared[n.Decl] {
			continue
		}
		if ss := sites[n.Decl]; len(ss) > 0 {
			chain := fmt.Sprintf("%s [%s]", callgraph.Display(n.Fn), ss[0].desc)
			marks[n.Fn] = chain
			pass.ExportObjectFact(n.Fn, &allocsFact{Chain: chain})
		}
	}

	callgraph.Propagate(nodes, marks,
		func(callee *types.Func) (string, bool) {
			var fact allocsFact
			if pass.ImportObjectFact(callee, &fact) {
				return fact.Chain, true
			}
			return "", false
		},
		func(n *callgraph.Node) bool { return noalloc[n.Decl] || cleared[n.Decl] },
		func(n *callgraph.Node, chain string) {
			pass.ExportObjectFact(n.Fn, &allocsFact{Chain: chain})
		})

	// Report, for every //moma:noalloc function: its own allocating
	// constructs, then every call edge that reaches an allocating callee.
	for _, n := range nodes {
		if !noalloc[n.Decl] {
			continue
		}
		for _, s := range sites[n.Decl] {
			pass.Reportf(s.pos,
				"heap allocation on //moma:noalloc path %s: %s (move it behind //moma:cold <why> or suppress with //moma:noalloc-ok <why>)",
				callgraph.Display(n.Fn), s.desc)
		}
		for _, c := range n.Calls {
			chain, ok := marks[c.Callee]
			if !ok {
				var fact allocsFact
				if pass.ImportObjectFact(c.Callee, &fact) {
					chain, ok = fact.Chain, true
				}
			}
			if !ok {
				continue
			}
			pass.Reportf(c.Pos,
				"//moma:noalloc function %s calls a function that can allocate: %s",
				callgraph.Display(n.Fn), chain)
		}
	}
	return nil, nil
}

// suppressedAt reports whether the line carries a justified
// //moma:noalloc-ok, reporting bare ones (Suppressed's contract).
func suppressedAt(pass *analysis.Pass, pos token.Pos) bool {
	return pass.Suppressed(pos, nil, "noalloc-ok")
}

// collectAllocs walks one declaration and returns its allocating
// constructs, skipping //moma:cold statements and suppressed lines.
func collectAllocs(pass *analysis.Pass, decl *ast.FuncDecl) []site {
	var out []site
	flag := func(pos token.Pos, desc string) {
		if suppressedAt(pass, pos) {
			return
		}
		out = append(out, site{pos: pos, desc: desc})
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if stmt, ok := n.(ast.Stmt); ok {
			if d, cold := pass.DirectiveAt(stmt.Pos(), "cold"); cold {
				if d.Args == "" {
					pass.Reportf(stmt.Pos(), "//moma:cold needs a one-line justification")
				}
				return false // the whole branch is exempt
			}
		}
		switch e := n.(type) {
		case *ast.FuncLit:
			flag(e.Pos(), "func literal (closure may escape to the heap)")
			return true // constructs inside the closure are still this function's
		case *ast.CompositeLit:
			switch under(pass, e).(type) {
			case *types.Map:
				flag(e.Pos(), "map literal")
			case *types.Slice:
				flag(e.Pos(), "slice literal")
			}
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if cl, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
					flag(e.Pos(), "&"+typeName(pass, cl)+"{} escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD && isString(pass, e.X) {
				flag(e.Pos(), "string concatenation")
			}
		case *ast.CallExpr:
			if s, ok := classifyCall(pass, e); ok {
				flag(e.Pos(), s)
			}
		}
		return true
	}
	ast.Inspect(decl.Body, walk)
	return out
}

// classifyCall reports whether a call expression allocates by itself:
// builtins (make, new, append), allocating conversions, boxing into an
// interface, or a known-allocating standard-library call.
func classifyCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	// Conversions: T(x) where T is a type.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return classifyConversion(pass, tv.Type, call.Args[0])
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); ok {
			switch obj.Name() {
			case "make":
				return "make", true
			case "new":
				return "new", true
			case "append":
				return "append may grow its backing array", true
			}
		}
	}
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	if pkg == "fmt" || pkg == "errors" {
		return "call to " + pkg + "." + name + " (allocates)", true
	}
	if names, ok := allocStd[pkg]; ok && names[name] {
		return "call to " + pkg + "." + name + " (allocates)", true
	}
	return "", false
}

// classifyConversion flags the conversions that copy memory or box.
func classifyConversion(pass *analysis.Pass, to types.Type, arg ast.Expr) (string, bool) {
	from := pass.TypesInfo.Types[arg].Type
	if from == nil {
		return "", false
	}
	tu, fu := to.Underlying(), from.Underlying()
	if types.IsInterface(tu) && !types.IsInterface(fu) && !isNil(fu) {
		return "boxing into " + to.String(), true
	}
	if isStringType(tu) && isByteOrRuneSlice(fu) {
		return "string([]byte/[]rune) conversion copies", true
	}
	if isByteOrRuneSlice(tu) && isStringType(fu) {
		return "[]byte/[]rune(string) conversion copies", true
	}
	return "", false
}

// allocStd names the out-of-module standard-library entry points the
// analyzer treats as allocating. Out-of-module packages are loaded from
// export data (no syntax), so the property cannot be derived; this list
// covers the APIs that plausibly appear near the repo's hot paths. fmt and
// errors are flagged wholesale in classifyCall.
var allocStd = map[string]map[string]bool{
	"strings": set("Split", "SplitN", "SplitAfter", "Fields", "FieldsFunc", "Join",
		"Repeat", "Replace", "ReplaceAll", "ToLower", "ToUpper", "ToTitle", "Map",
		"Clone", "Builder", "WriteString", "WriteRune", "WriteByte", "Grow", "String"),
	"strconv": set("Itoa", "Quote", "QuoteRune", "Unquote", "FormatInt",
		"FormatUint", "FormatFloat", "AppendInt", "AppendUint", "AppendFloat",
		"AppendQuote"),
	"sort":         set("Sort", "Stable", "Slice", "SliceStable", "Float64s", "Ints", "Strings"),
	"bytes":        set("Clone", "Join", "Split", "Fields", "Repeat", "ToLower", "ToUpper", "NewBuffer", "NewBufferString"),
	"slices":       set("Clone", "Collect", "Sorted", "SortedFunc", "Insert", "Concat", "AppendSeq", "Grow"),
	"maps":         set("Clone", "Collect"),
	"unicode/utf8": set(), // DecodeRune and friends are clean
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

func under(pass *analysis.Pass, e ast.Expr) types.Type {
	if t := pass.TypesInfo.Types[e].Type; t != nil {
		return t.Underlying()
	}
	return nil
}

func typeName(pass *analysis.Pass, e ast.Expr) string {
	if t := pass.TypesInfo.Types[e].Type; t != nil {
		return types.TypeString(t, types.RelativeTo(pass.Pkg))
	}
	return "T"
}

func isString(pass *analysis.Pass, e ast.Expr) bool {
	t := under(pass, e)
	return t != nil && isStringType(t)
}

func isStringType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}
