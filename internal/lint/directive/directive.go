// Package directive parses `//ndplint:<verb> <justification>` comments —
// the suppression and tagging protocol shared by every ndplint analyzer.
//
// Directives follow the Go toolchain's directive convention: no space after
// `//`, so gofmt leaves them alone. The recognized verbs are:
//
//	//ndplint:hotpath             tag: function below must be allocation-free
//	//ndplint:ordered <why>       suppress: map iteration here is order-safe
//	//ndplint:alloc <why>         suppress: this allocation in a hot path is accepted
//	//ndplint:nosnap <why>        suppress: this field is deliberately not snapshotted
//
// Suppression verbs require a non-empty justification; the directives
// analyzer rejects bare suppressions and unknown verbs so the suppression
// inventory stays auditable (`ndplint -list-suppressions`).
package directive

import (
	"go/ast"
	"go/token"
	"strings"
)

const prefix = "//ndplint:"

// Verbs that tag code for an analyzer rather than silence one, and so need
// no justification.
var tagVerbs = map[string]bool{"hotpath": true}

// Known is the set of all recognized verbs.
var Known = map[string]bool{
	"hotpath": true,
	"ordered": true,
	"alloc":   true,
	"nosnap":  true,
}

// Directive is one parsed ndplint comment.
type Directive struct {
	Verb          string
	Justification string
	Pos           token.Pos
	// Line is the 1-based source line the comment sits on.
	Line int
	File string
}

// IsTag reports whether the directive tags code (vs. suppressing a finding).
func (d Directive) IsTag() bool { return tagVerbs[d.Verb] }

// Map indexes a package's directives by file and line.
type Map struct {
	byLine map[string]map[int][]Directive
	all    []Directive
}

// Parse collects every ndplint directive in files.
func Parse(fset *token.FileSet, files []*ast.File) *Map {
	m := &Map{byLine: make(map[string]map[int][]Directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, prefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, prefix)
				verb, just, _ := strings.Cut(rest, " ")
				pos := fset.Position(c.Pos())
				d := Directive{
					Verb:          verb,
					Justification: strings.TrimSpace(just),
					Pos:           c.Pos(),
					Line:          pos.Line,
					File:          pos.Filename,
				}
				lines := m.byLine[d.File]
				if lines == nil {
					lines = make(map[int][]Directive)
					m.byLine[d.File] = lines
				}
				lines[d.Line] = append(lines[d.Line], d)
				m.all = append(m.all, d)
			}
		}
	}
	return m
}

// At returns the directive with the given verb that governs the code at pos:
// a directive on the same source line (trailing comment) or on the line
// directly above. It returns nil when none applies.
func (m *Map) At(fset *token.FileSet, pos token.Pos, verb string) *Directive {
	p := fset.Position(pos)
	lines := m.byLine[p.Filename]
	if lines == nil {
		return nil
	}
	for _, line := range [2]int{p.Line, p.Line - 1} {
		for i := range lines[line] {
			if lines[line][i].Verb == verb {
				return &lines[line][i]
			}
		}
	}
	return nil
}

// All returns every directive in the package, in encounter order.
func (m *Map) All() []Directive {
	return m.all
}
