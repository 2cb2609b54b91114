// Package analysis is a dependency-free miniature of
// golang.org/x/tools/go/analysis, carrying exactly the surface ndplint's
// analyzers need: a named Analyzer with a Run function, a Pass giving it one
// type-checked package, and position-carrying Diagnostics.
//
// The repo builds hermetically (no module downloads in CI or air-gapped
// checkouts), so the real x/tools framework is deliberately not a
// dependency. The API mirrors it closely enough that migrating an analyzer
// to the upstream framework is a mechanical change of import paths.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and caching keys. By
	// convention it is a short lowercase word ("determinism").
	Name string

	// Doc is the help text: first line is a one-sentence summary.
	Doc string

	// Version participates in the fact-cache key: bump it when the
	// analyzer's behavior changes so stale cached findings are discarded.
	Version int

	// Run applies the analyzer to one package, reporting findings through
	// pass.Report. The error return is for operational failures (a broken
	// invariant in the analyzer itself), not for findings.
	Run func(pass *Pass) error
}

// Pass connects an Analyzer to the single package being analyzed.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one finding. The driver sets it.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.TypesInfo.TypeOf(e)
}

// ObjectOf returns the object denoted by ident, consulting Defs then Uses.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.TypesInfo.Defs[id]; o != nil {
		return o
	}
	return p.TypesInfo.Uses[id]
}

// Diagnostic is one finding, positioned in the analyzed package.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}
