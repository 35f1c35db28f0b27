// Package lint is the strata-lint driver: it loads packages (plus their
// module-local dependencies, so their types resolve), runs the STRATA
// contract analyzers over each matched package on its own, and filters
// findings through //lint:ignore suppression comments.
package lint

import (
	"fmt"
	"go/token"
	"sort"

	"strata/internal/lint/analysis"
	"strata/internal/lint/loader"
)

// Finding is one unsuppressed diagnostic, resolved to a file position.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// Run loads the packages matching patterns (relative to dir) and applies
// every analyzer to each of them. Module-local dependencies are
// type-checked but never analyzed. Suppressed findings are dropped, and a
// directive naming an unregistered analyzer is itself a finding; the rest
// are returned in a deterministic order: position (file, line, column),
// then analyzer name, then message.
func Run(dir string, patterns []string, suite []*analysis.Analyzer) ([]Finding, error) {
	fset, pkgs, err := loader.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	// Hard type errors make analyzer output unreliable; surface them
	// instead of misreporting. (go vet behaves the same way.)
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			return nil, fmt.Errorf("lint: %s does not type-check: %v", pkg.Path, pkg.TypeErrors[0])
		}
	}

	var findings []Finding
	for _, pkg := range pkgs {
		if !pkg.Matched {
			continue
		}
		sup := scanSuppressions(fset, pkg.Files)
		findings = append(findings, sup.stale...)
		for _, a := range suite {
			name := a.Name
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Report: func(d analysis.Diagnostic) {
					pos := fset.Position(d.Pos)
					if !sup.suppressed(name, pos) {
						findings = append(findings, Finding{Pos: pos, Analyzer: name, Message: d.Message})
					}
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: analyzer %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sortFindings(findings)
	return findings, nil
}

// sortFindings orders findings deterministically: by position (file, line,
// column), then analyzer name, then message, so output is stable across
// runs and machines.
func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
