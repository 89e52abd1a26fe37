package script

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/mapping"
	"repro/internal/model"
)

// This file keeps the constraint language's former hand-written parser and
// evaluator, a character-level recursive descent over the constraint string,
// as the reference FuzzConstraintMatchesReference holds ParseConstraint and
// ConstraintExpr.Eval to.

// referenceConstraint is a constraint compiled by the reference parser.
type referenceConstraint struct{ root cexpr }

// parseReferenceConstraint compiles src with the reference parser.
func parseReferenceConstraint(src string) (*referenceConstraint, error) {
	cp := &cparser{src: []rune(src)}
	root, err := cp.parseOr()
	if err != nil {
		return nil, err
	}
	cp.skipSpace()
	if cp.pos < len(cp.src) {
		return nil, fmt.Errorf("script: constraint %q: trailing input at %d", src, cp.pos)
	}
	return &referenceConstraint{root: root}, nil
}

// Eval evaluates the reference constraint for one correspondence.
func (c *referenceConstraint) Eval(corr mapping.Correspondence, domain, rng *model.Instance) (bool, error) {
	v, err := c.root.eval(cenv{corr: corr, domain: domain, rng: rng})
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	if !ok {
		return false, fmt.Errorf("script: constraint does not evaluate to a condition")
	}
	return b, nil
}

// cenv carries the evaluation context.
type cenv struct {
	corr   mapping.Correspondence
	domain *model.Instance
	rng    *model.Instance
}

// cvalue is float64, string or bool.
type cvalue any

type cexpr interface {
	eval(cenv) (cvalue, error)
}

type cnum float64

func (n cnum) eval(cenv) (cvalue, error) { return float64(n), nil }

type cstr string

func (s cstr) eval(cenv) (cvalue, error) { return string(s), nil }

// cref reads [side.attr].
type cref struct {
	side string // "domain" or "range"
	attr string
}

func (r cref) eval(env cenv) (cvalue, error) {
	var in *model.Instance
	var id model.ID
	if r.side == "domain" {
		in, id = env.domain, env.corr.Domain
	} else {
		in, id = env.rng, env.corr.Range
	}
	if r.attr == "id" {
		return string(id), nil
	}
	if r.attr == "sim" {
		return env.corr.Sim, nil
	}
	return in.Attr(r.attr), nil
}

type cbinary struct {
	op    string
	left  cexpr
	right cexpr
}

func (b cbinary) eval(env cenv) (cvalue, error) {
	l, err := b.left.eval(env)
	if err != nil {
		return nil, err
	}
	r, err := b.right.eval(env)
	if err != nil {
		return nil, err
	}
	switch b.op {
	case "AND", "OR":
		lb, lok := l.(bool)
		rb, rok := r.(bool)
		if !lok || !rok {
			return nil, fmt.Errorf("script: %s needs conditions on both sides", b.op)
		}
		if b.op == "AND" {
			return lb && rb, nil
		}
		return lb || rb, nil
	case "+", "-":
		lf, rf, ok := bothNumbers(l, r)
		if !ok {
			return nil, fmt.Errorf("script: arithmetic needs numbers, got %v and %v", l, r)
		}
		if b.op == "+" {
			return lf + rf, nil
		}
		return lf - rf, nil
	default: // comparisons
		if lf, rf, ok := bothNumbers(l, r); ok {
			return compareFloats(b.op, lf, rf)
		}
		ls, rs := toString(l), toString(r)
		return compareStrings(b.op, ls, rs)
	}
}

type cabs struct{ inner cexpr }

func (a cabs) eval(env cenv) (cvalue, error) {
	v, err := a.inner.eval(env)
	if err != nil {
		return nil, err
	}
	f, ok := v.(float64)
	if !ok {
		if s, isStr := v.(string); isStr {
			if parsed, err2 := strconv.ParseFloat(strings.TrimSpace(s), 64); err2 == nil {
				f, ok = parsed, true
			}
		}
	}
	if !ok {
		return nil, fmt.Errorf("script: abs() needs a number, got %v", v)
	}
	if f < 0 {
		f = -f
	}
	return f, nil
}

func bothNumbers(l, r cvalue) (float64, float64, bool) {
	lf, lok := asNumber(l)
	rf, rok := asNumber(r)
	return lf, rf, lok && rok
}

func asNumber(v cvalue) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case string:
		f, err := strconv.ParseFloat(strings.TrimSpace(x), 64)
		return f, err == nil
	default:
		return 0, false
	}
}

func toString(v cvalue) string {
	switch x := v.(type) {
	case string:
		return x
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(x)
	default:
		return ""
	}
}

func compareFloats(op string, l, r float64) (cvalue, error) {
	switch op {
	case "=":
		return l == r, nil
	case "<>", "!=":
		return l != r, nil
	case "<":
		return l < r, nil
	case "<=":
		return l <= r, nil
	case ">":
		return l > r, nil
	case ">=":
		return l >= r, nil
	}
	return nil, fmt.Errorf("script: unknown operator %q", op)
}

func compareStrings(op, l, r string) (cvalue, error) {
	switch op {
	case "=":
		return l == r, nil
	case "<>", "!=":
		return l != r, nil
	case "<":
		return l < r, nil
	case "<=":
		return l <= r, nil
	case ">":
		return l > r, nil
	case ">=":
		return l >= r, nil
	}
	return nil, fmt.Errorf("script: unknown operator %q", op)
}

// cparser is a recursive-descent parser over the constraint source.
type cparser struct {
	src []rune
	pos int
}

func (p *cparser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *cparser) peek() rune {
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *cparser) hasKeyword(kw string) bool {
	p.skipSpace()
	if p.pos+len(kw) > len(p.src) {
		return false
	}
	if !strings.EqualFold(string(p.src[p.pos:p.pos+len(kw)]), kw) {
		return false
	}
	// Must not continue as identifier.
	if p.pos+len(kw) < len(p.src) && isIdentRune(p.src[p.pos+len(kw)]) {
		return false
	}
	p.pos += len(kw)
	return true
}

func (p *cparser) parseOr() (cexpr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.hasKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = cbinary{op: "OR", left: left, right: right}
	}
	return left, nil
}

func (p *cparser) parseAnd() (cexpr, error) {
	left, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.hasKeyword("AND") {
		right, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		left = cbinary{op: "AND", left: left, right: right}
	}
	return left, nil
}

func (p *cparser) parseCmp() (cexpr, error) {
	left, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	ops := []string{"<>", "!=", "<=", ">=", "=", "<", ">"}
	for _, op := range ops {
		if p.pos+len(op) <= len(p.src) && string(p.src[p.pos:p.pos+len(op)]) == op {
			p.pos += len(op)
			right, err := p.parseSum()
			if err != nil {
				return nil, err
			}
			return cbinary{op: op, left: left, right: right}, nil
		}
	}
	return left, nil
}

func (p *cparser) parseSum() (cexpr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		c := p.peek()
		if c != '+' && c != '-' {
			return left, nil
		}
		p.pos++
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = cbinary{op: string(c), left: left, right: right}
	}
}

func (p *cparser) parseUnary() (cexpr, error) {
	p.skipSpace()
	switch c := p.peek(); {
	case c == '[':
		return p.parseRef()
	case c == '(':
		p.pos++
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.peek() != ')' {
			return nil, fmt.Errorf("script: constraint: missing ')' at %d", p.pos)
		}
		p.pos++
		return inner, nil
	case c == '\'':
		p.pos++
		start := p.pos
		for p.pos < len(p.src) && p.src[p.pos] != '\'' {
			p.pos++
		}
		if p.pos >= len(p.src) {
			return nil, fmt.Errorf("script: constraint: unterminated string literal")
		}
		s := string(p.src[start:p.pos])
		p.pos++
		return cstr(s), nil
	case c >= '0' && c <= '9':
		start := p.pos
		for p.pos < len(p.src) && (p.src[p.pos] >= '0' && p.src[p.pos] <= '9' || p.src[p.pos] == '.') {
			p.pos++
		}
		f, err := strconv.ParseFloat(string(p.src[start:p.pos]), 64)
		if err != nil {
			return nil, fmt.Errorf("script: constraint: bad number at %d", start)
		}
		return cnum(f), nil
	default:
		if p.hasKeyword("abs") {
			p.skipSpace()
			if p.peek() != '(' {
				return nil, fmt.Errorf("script: constraint: abs needs '('")
			}
			p.pos++
			inner, err := p.parseSum()
			if err != nil {
				return nil, err
			}
			p.skipSpace()
			if p.peek() != ')' {
				return nil, fmt.Errorf("script: constraint: abs missing ')'")
			}
			p.pos++
			return cabs{inner: inner}, nil
		}
		return nil, fmt.Errorf("script: constraint: unexpected character %q at %d", string(c), p.pos)
	}
}

func (p *cparser) parseRef() (cexpr, error) {
	// at '['
	p.pos++
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != ']' {
		p.pos++
	}
	if p.pos >= len(p.src) {
		return nil, fmt.Errorf("script: constraint: unterminated reference")
	}
	inner := strings.TrimSpace(string(p.src[start:p.pos]))
	p.pos++
	dot := strings.IndexByte(inner, '.')
	if dot <= 0 {
		return nil, fmt.Errorf("script: constraint: reference %q needs side.attr form", inner)
	}
	side := strings.ToLower(inner[:dot])
	attr := inner[dot+1:]
	if side != "domain" && side != "range" {
		return nil, fmt.Errorf("script: constraint: side must be domain or range, got %q", side)
	}
	return cref{side: side, attr: attr}, nil
}
