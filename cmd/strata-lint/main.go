// Command strata-lint runs the STRATA contract analyzers over the
// requested packages and prints one finding per line as
// `file:line:col: message (analyzer)`, the format editors and CI
// annotators already understand.
//
// Usage:
//
//	strata-lint [-C dir] [packages]
//	strata-lint -list
//
// With no package patterns it analyzes ./.... It exits 1 when any
// unsuppressed finding remains and 2 when the packages fail to load or
// type-check.
//
// Suppress a deliberate violation with
//
//	//lint:ignore <analyzer> <reason>
//
// on (or immediately above) the offending line, or in the doc comment of
// the enclosing function. A directive naming an analyzer that -list does
// not show is itself a finding. The environment for this repo has no
// module proxy, so the suite runs on an in-tree, stdlib-only
// re-implementation of the go/analysis contract (see internal/lint/analysis)
// instead of the x/tools multichecker.
package main

import (
	"flag"
	"fmt"
	"os"

	"strata/internal/lint"
	"strata/internal/lint/analyzers"
)

func main() {
	var (
		list = flag.Bool("list", false, "list the registered analyzers and exit")
		dir  = flag.String("C", ".", "directory to resolve package patterns in")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: strata-lint [flags] [packages]\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers.All {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	findings, err := lint.Run(*dir, flag.Args(), analyzers.All)
	if err != nil {
		fmt.Fprintf(os.Stderr, "strata-lint: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "strata-lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
