package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text      string
		directive bool
		matches   []string
		misses    []string
	}{
		{"// regular comment", false, nil, nil},
		{"//lint:ignore locksend held on purpose", true, []string{"locksend"}, []string{"goctx"}},
		{"//lint:ignore locksend,goctx shared fixture", true, []string{"locksend", "goctx"}, []string{"errdrop"}},
		// A directive without a reason is recognized but suppresses nothing.
		{"//lint:ignore locksend", true, nil, []string{"locksend"}},
	}
	for _, c := range cases {
		sup, ok := parseDirective(c.text)
		if ok != c.directive {
			t.Errorf("parseDirective(%q): directive=%v, want %v", c.text, ok, c.directive)
			continue
		}
		for _, name := range c.matches {
			if !sup.matches(name) {
				t.Errorf("parseDirective(%q): should suppress %s", c.text, name)
			}
		}
		for _, name := range c.misses {
			if sup.matches(name) {
				t.Errorf("parseDirective(%q): should NOT suppress %s", c.text, name)
			}
		}
	}
}

func TestScanSuppressions(t *testing.T) {
	const src = `package p

//lint:ignore goctx whole function is exempt
func docSuppressed() {
	_ = 1
	_ = 2
}

func lineSuppressed() {
	//lint:ignore errdrop on the next line
	_ = 3
	_ = 4 //lint:ignore locksend trailing
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	sup := scanSuppressions(fset, []*ast.File{f})

	pos := func(line int) token.Position {
		return token.Position{Filename: "p.go", Line: line}
	}
	if !sup.suppressed("goctx", pos(5)) || !sup.suppressed("goctx", pos(6)) {
		t.Error("doc-comment directive should cover the whole function body")
	}
	if sup.suppressed("errdrop", pos(5)) {
		t.Error("doc-comment directive must not leak to other analyzers")
	}
	if !sup.suppressed("errdrop", pos(11)) {
		t.Error("directive above a line should suppress that line")
	}
	if !sup.suppressed("locksend", pos(12)) {
		t.Error("trailing directive should suppress its own line")
	}
	if sup.suppressed("errdrop", pos(12)) {
		t.Error("line 12 has no errdrop directive")
	}
}

// A directive above a statement that spans several lines covers the line
// the statement starts on — diagnostics anchor at statement start — but
// deliberately not the continuation lines: a finding deep inside a long
// literal still surfaces unless its own line is annotated.
func TestSuppressMultiLineStatement(t *testing.T) {
	const src = `package p

func f() {
	//lint:ignore boundedchan burst buffer sized by config
	ch := make(
		chan int,
		1024,
	)
	_ = ch
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	sup := scanSuppressions(fset, []*ast.File{f})
	pos := func(line int) token.Position {
		return token.Position{Filename: "p.go", Line: line}
	}
	if !sup.suppressed("boundedchan", pos(5)) {
		t.Error("directive above a multi-line statement must cover its first line")
	}
	for _, line := range []int{6, 7, 8} {
		if sup.suppressed("boundedchan", pos(line)) {
			t.Errorf("continuation line %d must not inherit the directive", line)
		}
	}
}

// A directive with no reason is recognized but suppresses nothing — here
// checked on line coverage, complementing TestParseDirective's unit cases.
func TestSuppressReasonlessDirective(t *testing.T) {
	const src = `package p

func f() {
	//lint:ignore errdrop
	_ = 1
	_ = 2 //lint:ignore locksend
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	sup := scanSuppressions(fset, []*ast.File{f})
	if sup.suppressed("errdrop", token.Position{Filename: "p.go", Line: 5}) {
		t.Error("reasonless line directive must not suppress")
	}
	if sup.suppressed("locksend", token.Position{Filename: "p.go", Line: 6}) {
		t.Error("reasonless trailing directive must not suppress")
	}
}

// A directive naming an analyzer outside analyzers.All — deleted or
// misspelled — is itself a finding, while the registered names it lists
// still suppress.
func TestSuppressUnknownAnalyzer(t *testing.T) {
	const src = `package p

func f() {
	//lint:ignore atomicmix deleted analyzer
	_ = 1
	_ = 2 //lint:ignore errdrop,errfree one registered, one not
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	sup := scanSuppressions(fset, []*ast.File{f})
	if len(sup.stale) != 2 {
		t.Fatalf("got %d stale-directive findings, want 2: %v", len(sup.stale), sup.stale)
	}
	for i, want := range []struct {
		line int
		name string
	}{{4, `"atomicmix"`}, {6, `"errfree"`}} {
		got := sup.stale[i]
		if got.Pos.Line != want.line || !strings.Contains(got.Message, want.name) {
			t.Errorf("stale finding %d = %v, want line %d naming %s", i, got, want.line, want.name)
		}
	}
	if !sup.suppressed("errdrop", token.Position{Filename: "p.go", Line: 6}) {
		t.Error("the registered name in a mixed directive must still suppress")
	}
}
