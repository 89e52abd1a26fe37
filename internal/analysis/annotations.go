package analysis

// Comment directives: the repository's invariants are declared in the code
// they protect as //moma:<name> [args] comments. The full vocabulary:
//
//	//moma:interns [note]          this function/method grows a dictionary
//	                               (seed of the dictgrowth call-graph walk)
//	//moma:readpath                entry point that must never reach an
//	                               interning API (dictgrowth checks it)
//
// and the per-analyzer suppressions, each of which MUST carry a one-line
// justification (analyzers reject bare suppressions):
//
//	//moma:nondeterministic-ok why   (mapiter, on the range statement)
//	//moma:dictgrowth-ok why         (dictgrowth, on a call site or func)
//	//moma:errsink-ok why            (errsink, on the dropped Close/Sync/
//	                                 Flush/Encode call)
//
// Site-level directives go on the governed line or the line immediately
// above it; function-level ones in the doc comment. moma-vet -suppressions
// lists every suppression in the module with its justification.

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive is one parsed //moma:<name> [args] comment.
type Directive struct {
	Pos  token.Pos
	Name string
	Args string
}

const directivePrefix = "//moma:"

// parseDirective parses one comment line; ok is false for ordinary comments.
func parseDirective(c *ast.Comment) (Directive, bool) {
	text, found := strings.CutPrefix(c.Text, directivePrefix)
	if !found {
		return Directive{}, false
	}
	name, args, _ := strings.Cut(text, " ")
	name = strings.TrimSpace(name)
	if name == "" {
		return Directive{}, false
	}
	return Directive{Pos: c.Pos(), Name: name, Args: strings.TrimSpace(args)}, true
}

// DocDirective returns the first directive of the given name in doc.
func DocDirective(doc *ast.CommentGroup, name string) (Directive, bool) {
	if doc == nil {
		return Directive{}, false
	}
	for _, c := range doc.List {
		if d, ok := parseDirective(c); ok && d.Name == name {
			return d, true
		}
	}
	return Directive{}, false
}

// buildNotes indexes every //moma: directive of the pass's files by file
// and line, including trailing comments and free-standing ones.
func (p *Pass) buildNotes() {
	p.notes = make(map[string]map[int][]Directive)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				byLine := p.notes[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]Directive)
					p.notes[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], d)
			}
		}
	}
}

// directiveAt returns a directive of the given name on the same line as
// pos or on the line immediately above it — the two idiomatic placements
// for a site-level annotation.
func (p *Pass) directiveAt(pos token.Pos, name string) (Directive, bool) {
	if p.notes == nil {
		p.buildNotes()
	}
	at := p.Fset.Position(pos)
	byLine := p.notes[at.Filename]
	for _, line := range []int{at.Line, at.Line - 1} {
		for _, d := range byLine[line] {
			if d.Name == name {
				return d, true
			}
		}
	}
	return Directive{}, false
}

// Suppressed reports whether a site is excused by the named suppression
// directive at pos or in the enclosing declaration's doc comment. A
// suppression without a justification is itself reported (at the governed
// site) — every remaining //moma:*-ok in the tree must say why it is safe.
func (p *Pass) Suppressed(pos token.Pos, doc *ast.CommentGroup, name string) bool {
	d, ok := p.directiveAt(pos, name)
	if !ok && doc != nil {
		d, ok = DocDirective(doc, name)
	}
	if !ok {
		return false
	}
	if d.Args == "" {
		p.Reportf(pos, "//moma:%s needs a one-line justification", name)
	}
	return true
}
