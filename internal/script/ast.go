package script

import (
	"strconv"
	"strings"
)

// The AST mirrors the flat, line-oriented structure of iFuice scripts:
// a script is a list of statements; statements assign call results to
// variables, define procedures or return values. Expressions are variable
// references, literals, source references (DBLP.Author) or calls, and in
// constraints also references to correspondence values ([domain.year]),
// quoted text, abs() and binary operators.

// Node is implemented by all AST nodes.
type Node interface {
	astNode()
	String() string
}

// Script is a parsed program.
type Script struct {
	Stmts []Stmt
}

// Stmt is a statement.
type Stmt interface {
	Node
	stmtNode()
}

// Assign binds the value of Expr to variable Name.
type Assign struct {
	Name string
	Expr Expr
	Line int
}

// ProcDef defines a user procedure with variable parameters.
type ProcDef struct {
	Name   string
	Params []string
	Body   []Stmt
	Line   int
}

// Return yields the value of Expr from a procedure or the script.
type Return struct {
	Expr Expr
	Line int
}

// ExprStmt evaluates an expression for its side effects (rare; kept for
// completeness so a bare call parses).
type ExprStmt struct {
	Expr Expr
	Line int
}

// Expr is an expression.
type Expr interface {
	Node
	exprNode()
}

// VarRef reads a variable, e.g. $Result.
type VarRef struct {
	Name string
	Line int
}

// SourceRef references a repository object by qualified name, e.g.
// DBLP.CoAuthor (a mapping) or DBLP.Author (an object set). Resolution is
// deferred to the workflow engine's namespace at run time.
type SourceRef struct {
	Parts []string
	Line  int
}

// Name returns the dotted form.
func (s *SourceRef) Name() string { return strings.Join(s.Parts, ".") }

// Ident is a bare identifier argument such as Min, Average or Trigram; the
// callee interprets it (combiner name, similarity function, ...).
type Ident struct {
	Name string
	Line int
}

// NumberLit is a numeric literal.
type NumberLit struct {
	Value float64
	Line  int
}

// StringLit is a string literal (attribute specs and constraints).
type StringLit struct {
	Value string
	Line  int
}

// Call invokes a built-in or user procedure.
type Call struct {
	Name string
	Args []Expr
	Line int
}

// Ref reads [Side.Attr] of a correspondence in a constraint. Side is
// "domain" or "range"; Attr "id" is the object id, "sim" the similarity.
type Ref struct {
	Side string
	Attr string
}

// Quoted is a 'single-quoted' text literal of a constraint.
type Quoted struct {
	Value string
}

// Abs is abs(X) in a constraint.
type Abs struct {
	X Expr
}

// Binary applies Op (OR, AND, a comparison, + or -) in a constraint.
type Binary struct {
	Op string
	L  Expr
	R  Expr
}

func (*Assign) astNode()    {}
func (*ProcDef) astNode()   {}
func (*Return) astNode()    {}
func (*ExprStmt) astNode()  {}
func (*VarRef) astNode()    {}
func (*SourceRef) astNode() {}
func (*Ident) astNode()     {}
func (*NumberLit) astNode() {}
func (*StringLit) astNode() {}
func (*Call) astNode()      {}
func (*Ref) astNode()       {}
func (*Quoted) astNode()    {}
func (*Abs) astNode()       {}
func (*Binary) astNode()    {}

func (*Assign) stmtNode()   {}
func (*ProcDef) stmtNode()  {}
func (*Return) stmtNode()   {}
func (*ExprStmt) stmtNode() {}

func (*VarRef) exprNode()    {}
func (*SourceRef) exprNode() {}
func (*Ident) exprNode()     {}
func (*NumberLit) exprNode() {}
func (*StringLit) exprNode() {}
func (*Call) exprNode()      {}
func (*Ref) exprNode()       {}
func (*Quoted) exprNode()    {}
func (*Abs) exprNode()       {}
func (*Binary) exprNode()    {}

func (a *Assign) String() string { return "$" + a.Name + " = " + a.Expr.String() }

func (p *ProcDef) String() string {
	var b strings.Builder
	b.WriteString("PROCEDURE " + p.Name + " (")
	for i, par := range p.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("$" + par)
	}
	b.WriteString(")\n")
	for _, s := range p.Body {
		b.WriteString("  " + s.String() + "\n")
	}
	b.WriteString("END")
	return b.String()
}

func (r *Return) String() string   { return "RETURN " + r.Expr.String() }
func (e *ExprStmt) String() string { return e.Expr.String() }

func (v *VarRef) String() string    { return "$" + v.Name }
func (s *SourceRef) String() string { return s.Name() }
func (i *Ident) String() string     { return i.Name }
func (n *NumberLit) String() string { return strconv.FormatFloat(n.Value, 'f', -1, 64) }
func (s *StringLit) String() string { return `"` + s.Value + `"` }
func (r *Ref) String() string       { return "[" + r.Side + "." + r.Attr + "]" }
func (q *Quoted) String() string    { return "'" + q.Value + "'" }
func (a *Abs) String() string       { return "abs(" + a.X.String() + ")" }
func (b *Binary) String() string {
	return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")"
}

func (c *Call) String() string {
	var b strings.Builder
	b.WriteString(c.Name + "(")
	for i, a := range c.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	b.WriteString(")")
	return b.String()
}

func (s *Script) astNode() {}

// String renders the whole program.
func (s *Script) String() string {
	var b strings.Builder
	for _, st := range s.Stmts {
		b.WriteString(st.String())
		b.WriteByte('\n')
	}
	return b.String()
}
