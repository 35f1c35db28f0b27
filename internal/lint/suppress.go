package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"strings"

	"strata/internal/lint/analysis"
	"strata/internal/lint/analyzers"
)

// The suppression directive is staticcheck's:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// A directive on its own line suppresses matching findings on the next
// line; a trailing directive suppresses findings on its own line; a
// directive in a function's doc comment suppresses matching findings in the
// whole function. The reason is mandatory — a bare ignore is itself a
// malformed directive and suppresses nothing. A directive naming an
// analyzer that is not in analyzers.All is reported, so directives for a
// deleted or misspelled check fail the gate instead of piling up.

const ignorePrefix = "//lint:ignore "

type suppression struct {
	names []string // nil means malformed (no reason given)
}

func (s suppression) matches(analyzer string) bool {
	return slices.Contains(s.names, analyzer)
}

type lineKey struct {
	file string
	line int
}

type suppressions struct {
	// byLine maps the file:line a line-directive covers.
	byLine map[lineKey][]suppression
	// funcRanges holds doc-comment directives covering whole functions.
	funcRanges []funcSuppression
	// stale holds one finding per directive name no analyzer answers to.
	stale []Finding
}

type funcSuppression struct {
	file       string
	start, end int // line range, inclusive
	sup        suppression
}

func parseDirective(text string) (suppression, bool) {
	if !strings.HasPrefix(text, ignorePrefix) {
		return suppression{}, false
	}
	fields := strings.Fields(strings.TrimPrefix(text, ignorePrefix))
	if len(fields) < 2 {
		// Directive without a reason: recognized, but suppresses nothing.
		return suppression{}, true
	}
	names := []string{}
	for _, n := range strings.Split(fields[0], ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return suppression{names: names}, true
}

func registered(name string) bool {
	return slices.ContainsFunc(analyzers.All, func(a *analysis.Analyzer) bool { return a.Name == name })
}

func scanSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	s := &suppressions{byLine: make(map[lineKey][]suppression)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				sup, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				// The directive covers its own line (trailing comment)
				// and the next line (comment above the statement).
				for _, line := range []int{pos.Line, pos.Line + 1} {
					k := lineKey{pos.Filename, line}
					s.byLine[k] = append(s.byLine[k], sup)
				}
				for _, n := range sup.names {
					if !registered(n) {
						s.stale = append(s.stale, Finding{Pos: pos, Analyzer: "lint", Message: fmt.Sprintf(
							"//lint:ignore names %q, which is not a registered analyzer; delete or fix the directive", n)})
					}
				}
			}
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
			}
			for _, c := range fn.Doc.List {
				sup, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				start := fset.Position(fn.Pos())
				end := fset.Position(fn.End())
				s.funcRanges = append(s.funcRanges, funcSuppression{
					file: start.Filename, start: start.Line, end: end.Line, sup: sup,
				})
			}
		}
	}
	return s
}

func (s *suppressions) suppressed(analyzer string, pos token.Position) bool {
	for _, sup := range s.byLine[lineKey{pos.Filename, pos.Line}] {
		if sup.matches(analyzer) {
			return true
		}
	}
	for _, fr := range s.funcRanges {
		if fr.file == pos.Filename && pos.Line >= fr.start && pos.Line <= fr.end && fr.sup.matches(analyzer) {
			return true
		}
	}
	return false
}
