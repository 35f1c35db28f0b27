package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"strata/internal/lint/analysis"
)

// writeModule lays out a throwaway module under a temp dir:
// files maps relative paths to contents.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestDependencyOnlyNotAnalyzed: a package pulled in only because a
// matched package imports it is type-checked so its types resolve, but no
// analyzer runs on it — its findings are neither computed nor reported.
func TestDependencyOnlyNotAnalyzed(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":     "module deponly\n\ngo 1.22\n",
		"dep/dep.go": "package dep\n\n// Target is used by the root package.\ntype Target struct{}\n",
		"main.go":    "package main\n\nimport \"deponly/dep\"\n\nvar sentinel dep.Target\n\nfunc main() { _ = sentinel }\n",
	})

	var analyzed []string
	everywhere := &analysis.Analyzer{
		Name: "everywhere",
		Doc:  "reports once in every package it runs on",
		Run: func(pass *analysis.Pass) error {
			analyzed = append(analyzed, pass.Pkg.Path())
			pass.Reportf(pass.Files[0].Pos(), "analyzed %s", pass.Pkg.Path())
			return nil
		},
	}

	findings, err := Run(dir, []string{"."}, []*analysis.Analyzer{everywhere})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(analyzed, []string{"deponly"}) {
		t.Fatalf("analyzer ran on %v, want only the matched package deponly", analyzed)
	}
	if len(findings) != 1 || !strings.HasSuffix(findings[0].Pos.Filename, "main.go") {
		t.Fatalf("want exactly one finding, in main.go: %v", findings)
	}
}

// TestDeterministicOrder is the output-stability regression: an analyzer
// that reports in scrambled order (end of file before start, second file's
// pass interleaved by load order) must still produce findings sorted by
// position, then analyzer, then message — identically on every run.
func TestDeterministicOrder(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module detorder\n\ngo 1.22\n",
		"b.go":   "package p\n\nfunc B() {}\n",
		"a.go":   "package p\n\nfunc A() {}\n",
	})

	scrambler := &analysis.Analyzer{
		Name: "scrambler",
		Doc:  "reports end-before-start in every file",
		Run: func(pass *analysis.Pass) error {
			for _, f := range pass.Files {
				pass.Reportf(f.End()-1, "late")
				pass.Reportf(f.Pos(), "zzz-early")
				pass.Reportf(f.Pos(), "aaa-early")
			}
			return nil
		},
	}

	run := func() []Finding {
		t.Helper()
		findings, err := Run(dir, []string{"./..."}, []*analysis.Analyzer{scrambler})
		if err != nil {
			t.Fatal(err)
		}
		return findings
	}
	first := run()
	if len(first) != 6 {
		t.Fatalf("got %d findings, want 6: %v", len(first), first)
	}
	// Sorted: a.go before b.go, line 1 before line 3, and same-position
	// messages in message order.
	wantOrder := []string{"aaa-early", "zzz-early", "late", "aaa-early", "zzz-early", "late"}
	for i, f := range first {
		if f.Message != wantOrder[i] {
			t.Fatalf("finding %d out of order: got %q, want %q (all: %v)", i, f.Message, wantOrder[i], first)
		}
	}
	if !strings.HasSuffix(first[0].Pos.Filename, "a.go") || !strings.HasSuffix(first[3].Pos.Filename, "b.go") {
		t.Fatalf("files out of order: %v", first)
	}
	if second := run(); !reflect.DeepEqual(first, second) {
		t.Fatalf("two identical runs disagree:\n%v\n%v", first, second)
	}
}
