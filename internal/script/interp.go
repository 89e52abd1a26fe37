package script

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/mapping"
	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// ValueKind tags interpreter values.
type ValueKind int

// Value kinds. NoValue is the zero kind: a Value{} holds nothing.
const (
	NoValue ValueKind = iota
	MappingValue
	SetValue
	NumberValue
	StringValue
)

// Value is a dynamically typed script value.
type Value struct {
	Kind    ValueKind
	Mapping *mapping.Mapping
	Set     *model.ObjectSet
	Num     float64
	Str     string
}

// String renders the value for logs.
func (v Value) String() string {
	switch v.Kind {
	case MappingValue:
		return fmt.Sprintf("mapping(%d corrs)", v.Mapping.Len())
	case SetValue:
		return fmt.Sprintf("set(%d instances)", v.Set.Len())
	case NumberValue:
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	case StringValue:
		return strconv.Quote(v.Str)
	default:
		return "<none>"
	}
}

// Interp executes parsed scripts against an engine's namespace: its
// mapping cache and repository (DBLP.CoAuthor) and its object sets
// (DBLP.Author), read as they are when the script names them.
type Interp struct {
	e       *workflow.Engine
	procs   map[string]*ProcDef
	globals map[string]Value
	// calling holds the procedures on the call stack. A script has no
	// conditionals, so calling one of them again would never end.
	calling map[*ProcDef]bool
	// Trace receives one line per executed assignment when non-nil.
	Trace func(string)
}

// New returns an interpreter over e's namespace.
func New(e *workflow.Engine) *Interp {
	return &Interp{
		e:       e,
		procs:   make(map[string]*ProcDef),
		globals: make(map[string]Value),
		calling: make(map[*ProcDef]bool),
	}
}

// Global returns a top-level variable set by a previous Run.
func (ip *Interp) Global(name string) (Value, bool) {
	v, ok := ip.globals[name]
	return v, ok
}

// RunSource parses and runs a script, returning its result: the value of
// the first top-level RETURN, or the last assigned value.
func (ip *Interp) RunSource(src string) (Value, error) {
	s, err := Parse(src)
	if err != nil {
		return Value{}, err
	}
	return ip.Run(s)
}

// Run executes a parsed script.
func (ip *Interp) Run(s *Script) (Value, error) {
	v, _, err := ip.exec(s.Stmts, ip.globals, ip.Trace)
	return v, err
}

// exec runs statements in scope, the script's globals or a procedure's
// locals. It returns the value of the first RETURN with returned set, or
// else the value of the last assignment or expression statement. trace, when
// non-nil, receives one line per assignment.
func (ip *Interp) exec(stmts []Stmt, scope map[string]Value, trace func(string)) (Value, bool, error) {
	last := Value{}
	for _, st := range stmts {
		switch stmt := st.(type) {
		case *ProcDef:
			if _, dup := ip.procs[strings.ToLower(stmt.Name)]; dup {
				return last, false, fmt.Errorf("script: line %d: procedure %s already defined", stmt.Line, stmt.Name)
			}
			ip.procs[strings.ToLower(stmt.Name)] = stmt
		case *Assign:
			v, err := ip.eval(stmt.Expr, scope)
			if err != nil {
				return last, false, err
			}
			scope[stmt.Name] = v
			last = v
			if trace != nil {
				trace(fmt.Sprintf("$%s = %s", stmt.Name, v))
			}
		case *Return:
			v, err := ip.eval(stmt.Expr, scope)
			return v, true, err
		case *ExprStmt:
			v, err := ip.eval(stmt.Expr, scope)
			if err != nil {
				return last, false, err
			}
			last = v
		}
	}
	return last, false, nil
}

// eval evaluates an expression in the given variable scope.
func (ip *Interp) eval(e Expr, scope map[string]Value) (Value, error) {
	switch ex := e.(type) {
	case *VarRef:
		v, ok := scope[ex.Name]
		if !ok {
			return Value{}, fmt.Errorf("script: line %d: undefined variable $%s", ex.Line, ex.Name)
		}
		return v, nil
	case *NumberLit:
		return Value{Kind: NumberValue, Num: ex.Value}, nil
	case *StringLit:
		return Value{Kind: StringValue, Str: ex.Value}, nil
	case *Ident:
		// Bare identifiers reach eval only as call arguments; represent
		// them as strings so builtins can interpret them.
		return Value{Kind: StringValue, Str: ex.Name}, nil
	case *SourceRef:
		name := ex.Name()
		if m, ok := ip.e.Mapping(name); ok {
			return Value{Kind: MappingValue, Mapping: m}, nil
		}
		if s, ok := ip.e.ObjectSet(name); ok {
			return Value{Kind: SetValue, Set: s}, nil
		}
		return Value{}, fmt.Errorf("script: line %d: unknown source reference %s", ex.Line, name)
	case *Call:
		return ip.call(ex, scope)
	default:
		return Value{}, fmt.Errorf("script: cannot evaluate %T", e)
	}
}

// call dispatches builtins, then user procedures.
func (ip *Interp) call(c *Call, scope map[string]Value) (Value, error) {
	args := make([]Value, len(c.Args))
	for i, a := range c.Args {
		v, err := ip.eval(a, scope)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	switch strings.ToLower(c.Name) {
	case "compose":
		return ip.builtinCompose(c, args)
	case "merge":
		return ip.builtinMerge(c, args)
	case "attrmatch":
		return ip.builtinAttrMatch(c, args)
	case "select":
		return ip.builtinSelect(c, args)
	case "inverse":
		if err := arity(c, args, 1); err != nil {
			return Value{}, err
		}
		m, err := wantMapping(c, args, 0)
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: MappingValue, Mapping: m.Inverse()}, nil
	case "identity":
		if err := arity(c, args, 1); err != nil {
			return Value{}, err
		}
		s, err := wantSet(c, args, 0)
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: MappingValue, Mapping: mapping.Identity(s)}, nil
	case "nhmatch":
		// nhMatch is available as a builtin even when the script does not
		// define the §4.2 procedure itself.
		if _, userDefined := ip.procs["nhmatch"]; !userDefined {
			return ip.builtinNhMatch(c, args)
		}
	}
	proc, ok := ip.procs[strings.ToLower(c.Name)]
	if !ok {
		return Value{}, fmt.Errorf("script: line %d: unknown function %s", c.Line, c.Name)
	}
	if ip.calling[proc] {
		return Value{}, fmt.Errorf("script: line %d: recursive call of %s", c.Line, proc.Name)
	}
	ip.calling[proc] = true
	defer delete(ip.calling, proc)
	if len(args) != len(proc.Params) {
		return Value{}, fmt.Errorf("script: line %d: %s expects %d arguments, got %d",
			c.Line, proc.Name, len(proc.Params), len(args))
	}
	local := make(map[string]Value, len(proc.Params))
	for i, p := range proc.Params {
		local[p] = args[i]
	}
	v, returned, err := ip.exec(proc.Body, local, nil)
	if err != nil || !returned {
		return Value{}, err
	}
	return v, nil
}

func arity(c *Call, args []Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("script: line %d: %s expects %d arguments, got %d", c.Line, c.Name, n, len(args))
	}
	return nil
}

func wantMapping(c *Call, args []Value, i int) (*mapping.Mapping, error) {
	if i >= len(args) || args[i].Kind != MappingValue {
		return nil, fmt.Errorf("script: line %d: %s argument %d must be a mapping", c.Line, c.Name, i+1)
	}
	return args[i].Mapping, nil
}

func wantSet(c *Call, args []Value, i int) (*model.ObjectSet, error) {
	if i >= len(args) || args[i].Kind != SetValue {
		return nil, fmt.Errorf("script: line %d: %s argument %d must be an object set", c.Line, c.Name, i+1)
	}
	return args[i].Set, nil
}

func wantString(c *Call, args []Value, i int) (string, error) {
	if i >= len(args) || args[i].Kind != StringValue {
		return "", fmt.Errorf("script: line %d: %s argument %d must be a name or string", c.Line, c.Name, i+1)
	}
	return args[i].Str, nil
}

func wantNumber(c *Call, args []Value, i int) (float64, error) {
	if i >= len(args) || args[i].Kind != NumberValue {
		return 0, fmt.Errorf("script: line %d: %s argument %d must be a number", c.Line, c.Name, i+1)
	}
	return args[i].Num, nil
}

// parseCombinerName resolves the merge/compose combination-function names
// used in scripts, including the missing-as-zero variants Min-0/Avg-0 and
// PreferMap1/PreferMap2...
func parseCombinerName(name string) (mapping.Combiner, error) {
	n := strings.ToLower(name)
	switch n {
	case "min-0", "min0":
		return mapping.Min0Combiner, nil
	case "avg-0", "avg0", "average-0":
		return mapping.Avg0Combiner, nil
	}
	if strings.HasPrefix(n, "prefermap") {
		idxStr := strings.TrimPrefix(n, "prefermap")
		if idxStr == "" {
			return mapping.PreferCombiner(0), nil
		}
		idx, err := strconv.Atoi(idxStr)
		if err != nil || idx < 1 {
			return mapping.Combiner{}, fmt.Errorf("script: bad PreferMap index in %q", name)
		}
		return mapping.PreferCombiner(idx - 1), nil
	}
	kind, err := mapping.ParseCombinerKind(name)
	if err != nil {
		return mapping.Combiner{}, err
	}
	return mapping.Combiner{Kind: kind}, nil
}

// builtinCompose: compose($m1, $m2, f, g)
func (ip *Interp) builtinCompose(c *Call, args []Value) (Value, error) {
	if err := arity(c, args, 4); err != nil {
		return Value{}, err
	}
	m1, err := wantMapping(c, args, 0)
	if err != nil {
		return Value{}, err
	}
	m2, err := wantMapping(c, args, 1)
	if err != nil {
		return Value{}, err
	}
	fName, err := wantString(c, args, 2)
	if err != nil {
		return Value{}, err
	}
	gName, err := wantString(c, args, 3)
	if err != nil {
		return Value{}, err
	}
	f, err := parseCombinerName(fName)
	if err != nil {
		return Value{}, fmt.Errorf("script: line %d: %v", c.Line, err)
	}
	g, err := mapping.ParsePathAgg(gName)
	if err != nil {
		return Value{}, fmt.Errorf("script: line %d: %v", c.Line, err)
	}
	out, err := mapping.Compose(m1, m2, f, g)
	if err != nil {
		return Value{}, fmt.Errorf("script: line %d: %v", c.Line, err)
	}
	return Value{Kind: MappingValue, Mapping: out}, nil
}

// builtinMerge: merge($m1, ..., $mn, f)
func (ip *Interp) builtinMerge(c *Call, args []Value) (Value, error) {
	if len(args) < 2 {
		return Value{}, fmt.Errorf("script: line %d: merge needs at least one mapping and a combination function", c.Line)
	}
	fName, err := wantString(c, args, len(args)-1)
	if err != nil {
		return Value{}, err
	}
	f, err := parseCombinerName(fName)
	if err != nil {
		return Value{}, fmt.Errorf("script: line %d: %v", c.Line, err)
	}
	maps := make([]*mapping.Mapping, 0, len(args)-1)
	for i := 0; i < len(args)-1; i++ {
		m, err := wantMapping(c, args, i)
		if err != nil {
			return Value{}, err
		}
		maps = append(maps, m)
	}
	out, err := mapping.Merge(f, maps...)
	if err != nil {
		return Value{}, fmt.Errorf("script: line %d: %v", c.Line, err)
	}
	return Value{Kind: MappingValue, Mapping: out}, nil
}

// builtinAttrMatch: attrMatch(SetA, SetB, SimName, threshold, "[attrA]", "[attrB]")
func (ip *Interp) builtinAttrMatch(c *Call, args []Value) (Value, error) {
	if err := arity(c, args, 6); err != nil {
		return Value{}, err
	}
	setA, err := wantSet(c, args, 0)
	if err != nil {
		return Value{}, err
	}
	setB, err := wantSet(c, args, 1)
	if err != nil {
		return Value{}, err
	}
	simName, err := wantString(c, args, 2)
	if err != nil {
		return Value{}, err
	}
	threshold, err := wantNumber(c, args, 3)
	if err != nil {
		return Value{}, err
	}
	attrA, err := wantString(c, args, 4)
	if err != nil {
		return Value{}, err
	}
	attrB, err := wantString(c, args, 5)
	if err != nil {
		return Value{}, err
	}
	simFn, ok := sim.Lookup(simName)
	if !ok {
		return Value{}, fmt.Errorf("script: line %d: unknown similarity function %q", c.Line, simName)
	}
	matcher := &match.Attribute{AttrA: stripBrackets(attrA), AttrB: stripBrackets(attrB), Sim: simFn, Threshold: threshold}
	out, err := matcher.Match(setA, setB)
	if err != nil {
		return Value{}, fmt.Errorf("script: line %d: %v", c.Line, err)
	}
	return Value{Kind: MappingValue, Mapping: out}, nil
}

func stripBrackets(s string) string {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "[")
	s = strings.TrimSuffix(s, "]")
	return s
}

// builtinNhMatch: nhMatch($asso1, $same, $asso2 [, agg])
func (ip *Interp) builtinNhMatch(c *Call, args []Value) (Value, error) {
	if len(args) != 3 && len(args) != 4 {
		return Value{}, fmt.Errorf("script: line %d: nhMatch expects 3 or 4 arguments, got %d", c.Line, len(args))
	}
	a1, err := wantMapping(c, args, 0)
	if err != nil {
		return Value{}, err
	}
	same, err := wantMapping(c, args, 1)
	if err != nil {
		return Value{}, err
	}
	a2, err := wantMapping(c, args, 2)
	if err != nil {
		return Value{}, err
	}
	g := mapping.AggRelative
	if len(args) == 4 {
		gName, err := wantString(c, args, 3)
		if err != nil {
			return Value{}, err
		}
		g, err = mapping.ParsePathAgg(gName)
		if err != nil {
			return Value{}, fmt.Errorf("script: line %d: %v", c.Line, err)
		}
	}
	out, err := match.NhMatchAgg(a1, same, a2, g)
	if err != nil {
		return Value{}, fmt.Errorf("script: line %d: %v", c.Line, err)
	}
	return Value{Kind: MappingValue, Mapping: out}, nil
}

// builtinSelect supports the paper's forms:
//
//	select($m, "constraint")             object-value constraint
//	select($m, Threshold, 0.8)           threshold selection
//	select($m, Best, 1 [, side])         best-n per domain (or range/both)
//	select($m, Delta, 0.05 [, side])     best-1+delta
func (ip *Interp) builtinSelect(c *Call, args []Value) (Value, error) {
	if len(args) < 2 {
		return Value{}, fmt.Errorf("script: line %d: select needs a mapping and a selection", c.Line)
	}
	m, err := wantMapping(c, args, 0)
	if err != nil {
		return Value{}, err
	}
	mode, err := wantString(c, args, 1)
	if err != nil {
		return Value{}, err
	}
	// Constraint form: the second argument contains an expression (it has
	// brackets or comparison characters).
	if strings.ContainsAny(mode, "[]<>=") {
		if err := arity(c, args, 2); err != nil {
			return Value{}, err
		}
		expr, err := ParseConstraint(mode)
		if err != nil {
			return Value{}, fmt.Errorf("script: line %d: %v", c.Line, err)
		}
		domSet, _ := ip.e.ObjectSetFor(m.Domain())
		rngSet, _ := ip.e.ObjectSetFor(m.Range())
		sel := expr.Selection(domSet, rngSet)
		return Value{Kind: MappingValue, Mapping: sel.Apply(m)}, nil
	}
	maxArgs := 4 // Best and Delta take a side; Threshold does not
	if strings.EqualFold(mode, "threshold") {
		maxArgs = 3
	}
	if len(args) > maxArgs {
		return Value{}, fmt.Errorf("script: line %d: select %s takes at most %d arguments, got %d", c.Line, mode, maxArgs, len(args))
	}
	side := mapping.DomainSide
	if len(args) == 4 {
		s, err := wantString(c, args, 3)
		if err != nil {
			return Value{}, err
		}
		switch strings.ToLower(s) {
		case "domain":
			side = mapping.DomainSide
		case "range":
			side = mapping.RangeSide
		case "both":
			side = mapping.BothSides
		default:
			return Value{}, fmt.Errorf("script: line %d: unknown side %q", c.Line, s)
		}
	}
	switch strings.ToLower(mode) {
	case "threshold":
		t, err := wantNumber(c, args, 2)
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: MappingValue, Mapping: mapping.Threshold{T: t}.Apply(m)}, nil
	case "best":
		n, err := wantNumber(c, args, 2)
		if err != nil {
			return Value{}, err
		}
		if n < 1 || n > math.MaxInt32 || n != math.Trunc(n) {
			return Value{}, fmt.Errorf("script: line %d: select Best needs a positive whole count, got %v", c.Line, n)
		}
		sel := mapping.BestN{N: int(n), Side: side}
		return Value{Kind: MappingValue, Mapping: sel.Apply(m)}, nil
	case "delta":
		d, err := wantNumber(c, args, 2)
		if err != nil {
			return Value{}, err
		}
		sel := mapping.Best1Delta{D: d, Side: side}
		return Value{Kind: MappingValue, Mapping: sel.Apply(m)}, nil
	default:
		return Value{}, fmt.Errorf("script: line %d: unknown selection %q", c.Line, mode)
	}
}
