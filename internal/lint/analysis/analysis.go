// Package analysis is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis Analyzer/Pass contract.
//
// The build environment for this repository is offline (no module proxy), so
// the real x/tools framework cannot be vendored. This package keeps the same
// shape — an Analyzer owns a name, a doc string, and a Run function that
// inspects one type-checked package through a Pass — so the strata-lint
// analyzers can be ported to the upstream framework by swapping the import
// path if x/tools ever becomes available. Analysis is strictly per package:
// there are no facts and no inter-analyzer dependencies.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. Name must be a valid identifier: it
// is how findings are attributed and how //lint:ignore comments select the
// check to suppress.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// Diagnostic is one finding reported by an analyzer.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers a diagnostic to the driver. The driver applies
	// //lint:ignore suppression after collection, so analyzers report
	// unconditionally.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.TypesInfo.TypeOf(e)
}

// ObjectOf returns the object denoted by ident, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	return p.TypesInfo.ObjectOf(id)
}
