package script

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses a script source text.
func Parse(src string) (*Script, error) {
	toks, err := newLexer(src).lex()
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.parseScript()
}

// ParseConstraint compiles the object-value constraint of a select(), e.g.
// "[domain.id]<>[range.id]".
func ParseConstraint(src string) (*ConstraintExpr, error) {
	lx := newLexer(src)
	lx.constraint = true
	toks, err := lx.lex()
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	root, err := p.parseBinary(orLevel)
	if err != nil {
		return nil, err
	}
	if t := p.cur(); t.kind != tokEOF {
		return nil, fmt.Errorf("script: line %d: unexpected %s after constraint", t.line, describe(t))
	}
	return &ConstraintExpr{src: src, root: root}, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token          { return p.toks[p.pos] }
func (p *parser) advance()            { p.pos++ }
func (p *parser) at(k tokenKind) bool { return p.cur().kind == k }

func (p *parser) expect(k tokenKind) (token, error) {
	t := p.cur()
	if t.kind != k {
		return t, fmt.Errorf("script: line %d: expected %s, got %s", t.line, k, describe(t))
	}
	p.advance()
	return t, nil
}

func describe(t token) string {
	if t.text != "" {
		return fmt.Sprintf("%s %q", t.kind, t.text)
	}
	return t.kind.String()
}

func (p *parser) skipNewlines() {
	for p.at(tokNewline) {
		p.advance()
	}
}

func (p *parser) parseScript() (*Script, error) {
	s := &Script{}
	for {
		p.skipNewlines()
		if p.at(tokEOF) {
			return s, nil
		}
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		s.Stmts = append(s.Stmts, st)
	}
}

// isKeyword compares identifiers case-insensitively.
func isKeyword(t token, kw string) bool {
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch {
	case isKeyword(t, "PROCEDURE"):
		return p.parseProc()
	case isKeyword(t, "RETURN"):
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.endStmt(); err != nil {
			return nil, err
		}
		return &Return{Expr: e, Line: t.line}, nil
	case t.kind == tokVar:
		p.advance()
		if _, err := p.expect(tokAssign); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.endStmt(); err != nil {
			return nil, err
		}
		return &Assign{Name: t.text, Expr: e, Line: t.line}, nil
	case t.kind == tokIdent:
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.endStmt(); err != nil {
			return nil, err
		}
		return &ExprStmt{Expr: e, Line: t.line}, nil
	default:
		return nil, fmt.Errorf("script: line %d: unexpected %s at statement start", t.line, describe(t))
	}
}

// endStmt consumes the statement terminator (newline or EOF).
func (p *parser) endStmt() error {
	if p.at(tokEOF) {
		return nil
	}
	_, err := p.expect(tokNewline)
	return err
}

func (p *parser) parseProc() (Stmt, error) {
	start := p.cur()
	p.advance() // PROCEDURE
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	var params []string
	for !p.at(tokRParen) {
		v, err := p.expect(tokVar)
		if err != nil {
			return nil, err
		}
		params = append(params, v.text)
		if p.at(tokComma) {
			p.advance()
		}
	}
	p.advance() // ')'
	if err := p.endStmt(); err != nil {
		return nil, err
	}
	var body []Stmt
	for {
		p.skipNewlines()
		if p.at(tokEOF) {
			return nil, fmt.Errorf("script: line %d: PROCEDURE %s not closed with END", start.line, name.text)
		}
		if isKeyword(p.cur(), "END") {
			p.advance()
			if err := p.endStmt(); err != nil {
				return nil, err
			}
			return &ProcDef{Name: name.text, Params: params, Body: body, Line: start.line}, nil
		}
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if _, nested := st.(*ProcDef); nested {
			return nil, fmt.Errorf("script: line %d: nested procedures are not supported", start.line)
		}
		body = append(body, st)
	}
}

// parseExpr parses a script expression, which is a primary: statements and
// call arguments take no operators.
func (p *parser) parseExpr() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokVar:
		p.advance()
		return &VarRef{Name: t.text, Line: t.line}, nil
	case tokNumber:
		return p.parseNumber()
	case tokString:
		p.advance()
		return &StringLit{Value: t.text, Line: t.line}, nil
	case tokIdent:
		p.advance()
		// Qualified source reference: IDENT (DOT IDENT)+
		if p.at(tokDot) {
			parts := []string{t.text}
			for p.at(tokDot) {
				p.advance()
				seg, err := p.expect(tokIdent)
				if err != nil {
					return nil, err
				}
				parts = append(parts, seg.text)
			}
			return &SourceRef{Parts: parts, Line: t.line}, nil
		}
		// Call: IDENT '(' args ')'
		if p.at(tokLParen) {
			p.advance()
			var args []Expr
			for !p.at(tokRParen) {
				if p.at(tokEOF) {
					return nil, fmt.Errorf("script: line %d: unterminated argument list of %s", t.line, t.text)
				}
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.at(tokComma) {
					p.advance()
				} else if !p.at(tokRParen) {
					return nil, fmt.Errorf("script: line %d: expected ',' or ')' in arguments of %s, got %s",
						p.cur().line, t.text, describe(p.cur()))
				}
			}
			p.advance() // ')'
			return &Call{Name: t.text, Args: args, Line: t.line}, nil
		}
		// Bare identifier (Min, Average, Trigram, ...).
		return &Ident{Name: t.text, Line: t.line}, nil
	default:
		return nil, fmt.Errorf("script: line %d: unexpected %s in expression", t.line, describe(t))
	}
}

func (p *parser) parseNumber() (Expr, error) {
	t := p.cur()
	p.advance()
	v, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return nil, fmt.Errorf("script: line %d: bad number %q", t.line, t.text)
	}
	return &NumberLit{Value: v, Line: t.line}, nil
}

// Binary operator levels of constraint expressions, loosest first.
const (
	orLevel = iota
	andLevel
	cmpLevel
	sumLevel
	operandLevel
)

// binaryOp reports whether the current token is an operator of level.
func (p *parser) binaryOp(level int) (string, bool) {
	t := p.cur()
	switch level {
	case orLevel:
		return "OR", isKeyword(t, "OR")
	case andLevel:
		return "AND", isKeyword(t, "AND")
	case cmpLevel:
		if t.kind == tokAssign {
			return "=", true
		}
		return t.text, t.kind == tokCmp
	default:
		return t.text, t.kind == tokSum
	}
}

// parseBinary climbs the constraint operator levels from level down. Every
// level associates left, except that a comparison takes one operator.
func (p *parser) parseBinary(level int) (Expr, error) {
	if level == operandLevel {
		return p.parseOperand()
	}
	left, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		op, ok := p.binaryOp(level)
		if !ok {
			return left, nil
		}
		p.advance()
		right, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
		if level == cmpLevel {
			return left, nil
		}
	}
}

// parseOperand parses a constraint operand.
func (p *parser) parseOperand() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokRef:
		p.advance()
		side, attr, ok := strings.Cut(strings.TrimSpace(t.text), ".")
		if !ok || side == "" {
			return nil, fmt.Errorf("script: line %d: reference %q needs side.attr form", t.line, t.text)
		}
		side = strings.ToLower(side)
		if side != "domain" && side != "range" {
			return nil, fmt.Errorf("script: line %d: side must be domain or range, got %q", t.line, side)
		}
		return &Ref{Side: side, Attr: attr}, nil
	case t.kind == tokQuoted:
		p.advance()
		return &Quoted{Value: t.text}, nil
	case t.kind == tokNumber:
		return p.parseNumber()
	case t.kind == tokLParen:
		p.advance()
		return p.closeParen(p.parseBinary(orLevel))
	case isKeyword(t, "abs"):
		p.advance()
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		x, err := p.closeParen(p.parseBinary(sumLevel))
		if err != nil {
			return nil, err
		}
		return &Abs{X: x}, nil
	default:
		return nil, fmt.Errorf("script: line %d: unexpected %s in constraint", t.line, describe(t))
	}
}

// closeParen consumes the ')' after a parenthesized e.
func (p *parser) closeParen(e Expr, err error) (Expr, error) {
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return e, nil
}
