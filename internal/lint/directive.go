package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// The directive grammar has one verb:
//
//	//ebv:owns <reason...>
//
// It documents an ownership-transferring return or append of a pooled
// MessageBatch (see the batchown analyzer): the annotated function hands
// the batch to its caller, who inherits the recycle obligation. No
// directive suppresses a diagnostic: a rule that fires is fixed where it
// fires.
const directivePrefix = "//ebv:"

// directive is one parsed //ebv: comment.
type directive struct {
	verb   string // "owns", or an unknown verb ("" when missing)
	reason string // the free-text justification
	pos    token.Pos
}

// Directives parses and caches every //ebv: directive in the package.
func (p *Package) Directives() []directive {
	if p.directives != nil {
		return p.directives
	}
	p.directives = []directive{} // mark as collected
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, directivePrefix)
				if !ok {
					continue
				}
				d := directive{pos: c.Slash}
				if fields := strings.Fields(rest); len(fields) > 0 {
					d.verb, d.reason = fields[0], strings.Join(fields[1:], " ")
				}
				p.directives = append(p.directives, d)
			}
		}
	}
	return p.directives
}

// ownsAnnotated reports whether fn carries an //ebv:owns directive: in
// its doc comment, or anywhere within its declaration's line span.
func ownsAnnotated(p *Package, fn *ast.FuncDecl) bool {
	startLine := p.Fset.Position(fn.Pos()).Line
	endLine := p.Fset.Position(fn.End()).Line
	file := p.Fset.Position(fn.Pos()).Filename
	if fn.Doc != nil {
		startLine = p.Fset.Position(fn.Doc.Pos()).Line
	}
	for _, d := range p.Directives() {
		if d.verb != "owns" {
			continue
		}
		dp := p.Fset.Position(d.pos)
		if dp.Filename == file && dp.Line >= startLine && dp.Line <= endLine {
			return true
		}
	}
	return false
}
