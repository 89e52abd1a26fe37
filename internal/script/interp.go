package script

import (
	"fmt"
	"math"
	"slices"
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
	// name stands for the value in step names: a mapping's step or
	// repository name, a set's registered name, a literal's text.
	name string
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

// kindNames names what an argument of each kind must be.
var kindNames = [...]string{MappingValue: "a mapping", SetValue: "an object set", NumberValue: "a number", StringValue: "a name or string"}

// Interp executes parsed scripts on an engine (see the package comment):
// each mapping-valued expression is a step the engine runs, and names
// resolve through the engine's namespace, read as it is when the script
// names them.
type Interp struct {
	e       *workflow.Engine
	procs   map[string]*ProcDef
	globals map[string]Value
	// calling holds the procedures on the call stack. A script has no
	// conditionals, so calling one of them again would never end.
	calling map[*ProcDef]bool
	// Trace receives one line per executed top-level assignment when
	// non-nil.
	Trace func(string)
}

// New returns an interpreter over e.
func New(e *workflow.Engine) *Interp {
	return &Interp{
		e:       e,
		procs:   make(map[string]*ProcDef),
		globals: make(map[string]Value),
		calling: make(map[*ProcDef]bool),
	}
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
	v, _, err := ip.exec(s.Stmts, ip.globals, true)
	return v, err
}

// exec runs statements in scope, the script's globals (top) or a
// procedure's locals. It returns the value of the first RETURN with
// returned set, or else the value of the last assignment or expression
// statement.
func (ip *Interp) exec(stmts []Stmt, scope map[string]Value, top bool) (Value, bool, error) {
	last := Value{}
	for _, st := range stmts {
		switch stmt := st.(type) {
		case *ProcDef:
			if _, dup := ip.procs[strings.ToLower(stmt.Name)]; dup {
				return last, false, fmt.Errorf("script: line %d: procedure %s already defined", stmt.Line, stmt.Name)
			}
			ip.procs[strings.ToLower(stmt.Name)] = stmt
		case *Assign:
			as := ""
			if top {
				as = "Cache." + stmt.Name
			}
			v, err := ip.eval(stmt.Expr, scope, as)
			if err == nil && top && v.Kind == MappingValue && v.name != as {
				// A variable's, a repository's or a procedure's mapping:
				// the step passes it through.
				v, err = ip.run(stmt.Line, nil, nil, workflow.Step{Name: as, Use: []string{v.name}})
			}
			if err != nil {
				return last, false, err
			}
			scope[stmt.Name] = v
			last = v
			if top && ip.Trace != nil {
				ip.Trace(fmt.Sprintf("$%s = %s", stmt.Name, v))
			}
		case *Return:
			v, err := ip.eval(stmt.Expr, scope, "")
			return v, true, err
		case *ExprStmt:
			v, err := ip.eval(stmt.Expr, scope, "")
			if err != nil {
				return last, false, err
			}
			last = v
		}
	}
	return last, false, nil
}

// eval evaluates an expression in the given variable scope. A built-in call
// is the step named as, or by its text if as is empty.
func (ip *Interp) eval(e Expr, scope map[string]Value, as string) (Value, error) {
	switch ex := e.(type) {
	case *VarRef:
		v, ok := scope[ex.Name]
		if !ok {
			return Value{}, fmt.Errorf("script: line %d: undefined variable $%s", ex.Line, ex.Name)
		}
		return v, nil
	case *NumberLit:
		return Value{Kind: NumberValue, Num: ex.Value, name: ex.String()}, nil
	case *StringLit:
		return Value{Kind: StringValue, Str: ex.Value, name: ex.String()}, nil
	case *Ident:
		// Bare identifiers reach eval only as call arguments; represent
		// them as strings so builtins can interpret them.
		return Value{Kind: StringValue, Str: ex.Name, name: ex.Name}, nil
	case *SourceRef:
		name := ex.Name()
		if m, ok := ip.e.Mapping(name); ok {
			return Value{Kind: MappingValue, Mapping: m, name: name}, nil
		}
		if s, ok := ip.e.ObjectSet(name); ok {
			return Value{Kind: SetValue, Set: s, name: name}, nil
		}
		return Value{}, fmt.Errorf("script: line %d: unknown source reference %s", ex.Line, name)
	case *Call:
		return ip.call(ex, scope, as)
	default:
		return Value{}, fmt.Errorf("script: cannot evaluate %T", e)
	}
}

// call runs a built-in as the step named as (by the call's text with each
// argument replaced by its name if as is empty), or else a user procedure.
func (ip *Interp) call(c *Call, scope map[string]Value, as string) (Value, error) {
	args := make([]Value, len(c.Args))
	names := make([]string, len(c.Args))
	for i, a := range c.Args {
		v, err := ip.eval(a, scope, "")
		if err != nil {
			return Value{}, err
		}
		args[i], names[i] = v, v.name
	}
	if as == "" {
		as = c.Name + "(" + strings.Join(names, ", ") + ")"
	}
	step := workflow.Step{Name: as}
	switch name := strings.ToLower(c.Name); {
	case name == "compose":
		if err := check(c, args, MappingValue, MappingValue, StringValue, StringValue); err != nil {
			return Value{}, err
		}
		f, err := parseCombinerName(args[2].Str)
		if err != nil {
			return Value{}, fmt.Errorf("script: line %d: %v", c.Line, err)
		}
		g, err := mapping.ParsePathAgg(args[3].Str)
		if err != nil {
			return Value{}, fmt.Errorf("script: line %d: %v", c.Line, err)
		}
		step.Use, step.Op, step.F, step.G = names[:2], workflow.OpCompose, f, g
		return ip.run(c.Line, nil, nil, step)
	case name == "merge":
		if len(args) < 3 {
			return Value{}, fmt.Errorf("script: line %d: merge needs at least two mappings and a combination function", c.Line)
		}
		kinds := slices.Repeat([]ValueKind{MappingValue}, len(args))
		kinds[len(args)-1] = StringValue
		if err := check(c, args, kinds...); err != nil {
			return Value{}, err
		}
		f, err := parseCombinerName(args[len(args)-1].Str)
		if err != nil {
			return Value{}, fmt.Errorf("script: line %d: %v", c.Line, err)
		}
		step.Use, step.F = names[:len(args)-1], f
		return ip.run(c.Line, nil, nil, step)
	case name == "attrmatch":
		// attrMatch(SetA, SetB, SimName, threshold, "[attrA]", "[attrB]")
		if err := check(c, args, SetValue, SetValue, StringValue, NumberValue, StringValue, StringValue); err != nil {
			return Value{}, err
		}
		simFn, ok := sim.Lookup(args[2].Str)
		if !ok {
			return Value{}, fmt.Errorf("script: line %d: unknown similarity function %q", c.Line, args[2].Str)
		}
		step.Matchers = []match.Matcher{&match.Attribute{AttrA: stripBrackets(args[4].Str), AttrB: stripBrackets(args[5].Str), Sim: simFn, Threshold: args[3].Num}}
		return ip.run(c.Line, args[0].Set, args[1].Set, step)
	case name == "select":
		sel, err := ip.selection(c, args)
		if err != nil {
			return Value{}, err
		}
		step.Use, step.Select = names[:1], []mapping.Selection{sel}
		return ip.run(c.Line, nil, nil, step)
	case name == "inverse":
		if err := check(c, args, MappingValue); err != nil {
			return Value{}, err
		}
		step.Use, step.Op = names, workflow.OpInverse
		return ip.run(c.Line, nil, nil, step)
	case name == "identity":
		if err := check(c, args, SetValue); err != nil {
			return Value{}, err
		}
		step.Matchers = []match.Matcher{match.Identity{}}
		return ip.run(c.Line, args[0].Set, args[0].Set, step)
	case name == "nhmatch" && ip.procs[name] == nil:
		// nhMatch($asso1, $same, $asso2 [, agg]) is a built-in even when
		// the script does not define the §4.2 procedure itself.
		kinds := []ValueKind{MappingValue, MappingValue, MappingValue, StringValue}
		if len(args) < 4 {
			kinds = kinds[:3]
		}
		if err := check(c, args, kinds...); err != nil {
			return Value{}, err
		}
		g := mapping.AggRelative
		if len(args) == 4 {
			var err error
			if g, err = mapping.ParsePathAgg(args[3].Str); err != nil {
				return Value{}, fmt.Errorf("script: line %d: %v", c.Line, err)
			}
		}
		return ip.run(c.Line, nil, nil, workflow.NhMatch(as, names[0], names[1], names[2], g)...)
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
	v, returned, err := ip.exec(proc.Body, local, false)
	if err != nil || !returned {
		return Value{}, err
	}
	return v, nil
}

// run runs steps as one workflow over a and b on the engine and returns the
// last step's result.
func (ip *Interp) run(line int, a, b *model.ObjectSet, steps ...workflow.Step) (Value, error) {
	m, err := ip.e.Run(&workflow.Workflow{Name: "script", Steps: steps}, a, b)
	if err != nil {
		return Value{}, fmt.Errorf("script: line %d: %v", line, err)
	}
	return Value{Kind: MappingValue, Mapping: m, name: steps[len(steps)-1].Name}, nil
}

// check reports an error unless args has the given kinds, one per argument.
func check(c *Call, args []Value, kinds ...ValueKind) error {
	if len(args) != len(kinds) {
		return fmt.Errorf("script: line %d: %s expects %d arguments, got %d", c.Line, c.Name, len(kinds), len(args))
	}
	for i, k := range kinds {
		if args[i].Kind != k {
			return fmt.Errorf("script: line %d: %s argument %d must be %s", c.Line, c.Name, i+1, kindNames[k])
		}
	}
	return nil
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

func stripBrackets(s string) string {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "[")
	s = strings.TrimSuffix(s, "]")
	return s
}

// selection returns the selection of select($m, mode, ...), one of the
// paper's forms:
//
//	select($m, "constraint")             object-value constraint
//	select($m, Threshold, 0.8)           threshold selection
//	select($m, Best, 1 [, side])         best-n per domain (or range/both)
//	select($m, Delta, 0.05 [, side])     best-1+delta
//
// A constraint reads the first sets registered for the mapping's domain and
// range.
func (ip *Interp) selection(c *Call, args []Value) (mapping.Selection, error) {
	kinds := []ValueKind{MappingValue, StringValue, NumberValue, StringValue}
	mode := ""
	if len(args) > 1 {
		mode = args[1].Str
	}
	constraint := strings.ContainsAny(mode, "[]<>=")
	switch {
	case constraint:
		kinds = kinds[:2]
	case strings.EqualFold(mode, "threshold") || len(args) < 4:
		kinds = kinds[:3] // Best and Delta take a side; Threshold does not
	}
	if err := check(c, args, kinds...); err != nil {
		return nil, err
	}
	if constraint {
		expr, err := ParseConstraint(mode)
		if err != nil {
			return nil, fmt.Errorf("script: line %d: %v", c.Line, err)
		}
		domSet, _ := ip.e.ObjectSetFor(args[0].Mapping.Domain())
		rngSet, _ := ip.e.ObjectSetFor(args[0].Mapping.Range())
		return expr.Selection(domSet, rngSet), nil
	}
	side := mapping.DomainSide
	if len(args) == 4 {
		switch s := strings.ToLower(args[3].Str); s {
		case "domain":
		case "range":
			side = mapping.RangeSide
		case "both":
			side = mapping.BothSides
		default:
			return nil, fmt.Errorf("script: line %d: unknown side %q", c.Line, s)
		}
	}
	switch n := args[2].Num; strings.ToLower(mode) {
	case "threshold":
		return mapping.Threshold{T: n}, nil
	case "best":
		if n < 1 || n > math.MaxInt32 || n != math.Trunc(n) {
			return nil, fmt.Errorf("script: line %d: select Best needs a positive whole count, got %v", c.Line, n)
		}
		return mapping.BestN{N: int(n), Side: side}, nil
	case "delta":
		return mapping.Best1Delta{D: n, Side: side}, nil
	default:
		return nil, fmt.Errorf("script: line %d: unknown selection %q", c.Line, mode)
	}
}
