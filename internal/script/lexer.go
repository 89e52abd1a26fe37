// Package script implements the iFuice-style script language MOMA uses to
// express match workflows (§4). It covers the constructs appearing in the
// paper verbatim:
//
//	PROCEDURE nhMatch ( $Asso1, $Same, $Asso2 )
//	   $Temp   = compose ( $Asso1, $Same, Min, Average )
//	   $Result = compose ( $Temp, $Asso2, Min, Relative )
//	   RETURN $Result
//	END
//
//	$CoAuthSim = nhMatch (DBLP.CoAuthor, DBLP.AuthorAuthor, DBLP.CoAuthor)
//	$NameSim   = attrMatch (DBLP.Author, DBLP.Author, Trigram, 0.5, "[name]", "[name]")
//	$Merged    = merge ($CoAuthSim, $NameSim, Average)
//	$Result    = select ($Merged, "[domain.id]<>[range.id]")
//
// plus threshold/best-n selections, inverse, identity and user procedures.
// The interpreter runs each mapping-valued expression as a workflow step on
// a workflow.Engine, so a script's steps run once per engine. A top-level
// $X = … is the step Cache.X; any other expression is the step named by
// its text with each variable and parameter replaced by the name of what it
// holds, e.g. compose(DBLP.VenuePub, Cache.PubSame, Min, Average). Equal
// names are equal expressions: scripts that compute one share its step, and
// rebinding $X to another definition is an error naming both until
// Engine.Forget drops Cache.X. A definition holds the version of each set
// its matchers or constraint read, so re-running a script after such a set
// changed is that error too; one Forget of the step that read the set
// forgets the steps above it as well. Source references (DBLP.Author) and
// pre-existing mappings (DBLP.CoAuthor) resolve through the same engine:
// its step results, then its repository, then its object sets.
//
// One lexer and one parser read both the statements and the object-value
// constraints select() receives as a string (§3.3). The grammar, with
// keywords case-insensitive:
//
//	script   := { stmt NEWLINE }
//	stmt     := PROCEDURE ident ( { $var [,] } ) NEWLINE { stmt NEWLINE } END
//	          | RETURN primary | $var = primary | primary
//	primary  := $var | number | "string" | ident { . ident } | ident ( [ primary { , primary } ] )
//
//	or       := and { OR and }
//	and      := cmp { AND cmp }
//	cmp      := sum [ (= | <> | != | < | <= | > | >=) sum ]
//	sum      := operand { (+ | -) operand }
//	operand  := [side.attr] | 'text' | number | ( or ) | abs ( sum )
//
// A script's newlines end statements only outside parentheses; '#' and '//'
// start comments. Outside its quoted text and references, a constraint is
// one line without comments, with blanks and tabs between tokens.
// [side.attr] names domain or range, with attr "id" the object id and "sim"
// the correspondence similarity. Constraint values are numbers when both
// comparands parse as numbers, strings otherwise.
package script

import (
	"fmt"
	"unicode"
)

// tokenKind enumerates lexical token types.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokNewline
	tokIdent  // compose, DBLP, Min, AND
	tokVar    // $Result
	tokNumber // 0.5
	tokString // "[name]"
	tokQuoted // 'conference'
	tokRef    // [domain.year]
	tokLParen
	tokRParen
	tokComma
	tokAssign // =, also equality in constraints
	tokDot    // .
	tokCmp    // <> != < <= > >=
	tokSum    // + -
)

var tokenNames = [...]string{
	tokEOF: "end of script", tokNewline: "end of line", tokIdent: "identifier",
	tokVar: "variable", tokNumber: "number", tokString: "string",
	tokQuoted: "quoted text", tokRef: "reference", tokLParen: "'('",
	tokRParen: "')'", tokComma: "','", tokAssign: "'='", tokDot: "'.'",
	tokCmp: "comparison", tokSum: "operator",
}

func (k tokenKind) String() string { return tokenNames[k] }

// token is one lexical unit with its source line for error messages.
type token struct {
	kind tokenKind
	text string
	line int
}

// lexer tokenizes a script. Newlines are emitted as statement separators
// only at parenthesis depth zero, so argument lists may span lines as they
// do in the paper's listings. A constraint lexer separates tokens by blanks
// and tabs only.
type lexer struct {
	src        []rune
	pos        int
	line       int
	depth      int
	constraint bool
}

func newLexer(src string) *lexer {
	return &lexer{src: []rune(src), line: 1}
}

// lex tokenizes the entire input.
func (lx *lexer) lex() ([]token, error) {
	var toks []token
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

func (lx *lexer) peekRune() rune {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *lexer) next() (token, error) {
	for lx.pos < len(lx.src) {
		r := lx.src[lx.pos]
		switch {
		case r == ' ' || r == '\t':
			lx.pos++
		case lx.constraint:
			return lx.token(r)
		case r == '\n':
			lx.pos++
			lx.line++
			if lx.depth == 0 {
				return token{kind: tokNewline, line: lx.line - 1}, nil
			}
		case unicode.IsSpace(r):
			lx.pos++
		case r == '#' || (r == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/'):
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		default:
			return lx.token(r)
		}
	}
	return token{kind: tokEOF, line: lx.line}, nil
}

// token reads the token starting with r at lx.pos.
func (lx *lexer) token(r rune) (token, error) {
	t := token{line: lx.line}
	start := lx.pos
	lx.pos++
	var err error
	switch {
	case r == '(':
		lx.depth++
		t.kind = tokLParen
	case r == ')':
		if lx.depth > 0 {
			lx.depth--
		}
		t.kind = tokRParen
	case r == ',':
		t.kind = tokComma
	case r == '=':
		t.kind = tokAssign
	case r == '.':
		t.kind = tokDot
	case r == '+' || r == '-':
		t.kind, t.text = tokSum, string(r)
	case r == '<' || r == '>' || r == '!':
		t.kind, t.text = tokCmp, string(r)
		if n := lx.peekRune(); n == '=' || (r == '<' && n == '>') {
			t.text += string(n)
			lx.pos++
		} else if r == '!' {
			return token{}, fmt.Errorf("script: line %d: unexpected character %q", t.line, "!")
		}
	case r == '$':
		for lx.pos < len(lx.src) && isIdentRune(lx.src[lx.pos]) {
			lx.pos++
		}
		if lx.pos == start+1 {
			return token{}, fmt.Errorf("script: line %d: '$' must begin a variable name", t.line)
		}
		t.kind, t.text = tokVar, string(lx.src[start+1:lx.pos])
	case r == '"':
		t.kind = tokString
		t.text, err = lx.until('"', "string")
	case r == '\'':
		t.kind = tokQuoted
		t.text, err = lx.until('\'', "quoted text")
	case r == '[':
		t.kind = tokRef
		t.text, err = lx.until(']', "reference")
	case unicode.IsDigit(r):
		for lx.pos < len(lx.src) && (unicode.IsDigit(lx.src[lx.pos]) || lx.src[lx.pos] == '.') {
			lx.pos++
		}
		t.kind, t.text = tokNumber, string(lx.src[start:lx.pos])
	case unicode.IsLetter(r) || r == '_':
		for lx.pos < len(lx.src) && isIdentRune(lx.src[lx.pos]) {
			lx.pos++
		}
		t.kind, t.text = tokIdent, string(lx.src[start:lx.pos])
	default:
		return token{}, fmt.Errorf("script: line %d: unexpected character %q", t.line, string(r))
	}
	return t, err
}

// until reads up to the closing delimiter and past it. Only a "string" must
// end on its own line.
func (lx *lexer) until(closing rune, what string) (string, error) {
	start := lx.pos
	for ; lx.pos < len(lx.src) && lx.src[lx.pos] != closing; lx.pos++ {
		if lx.src[lx.pos] == '\n' {
			if closing == '"' {
				break
			}
			lx.line++
		}
	}
	if lx.pos >= len(lx.src) || lx.src[lx.pos] != closing {
		return "", fmt.Errorf("script: line %d: unterminated %s", lx.line, what)
	}
	lx.pos++
	return string(lx.src[start : lx.pos-1]), nil
}

// isIdentRune reports identifier characters after the first (letters,
// digits, underscore, dash — mapping names like DBLP-ACM appear in
// repositories, and combiner names like Min-0 in merges).
func isIdentRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-'
}
