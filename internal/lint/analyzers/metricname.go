package analyzers

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strings"

	"strata/internal/lint/analysis"
)

// Metricname enforces the telemetry naming contract from DESIGN.md §6: a
// metric name passed to telemetry's Writer methods (Counter, Gauge,
// Histogram) must be
//
//   - a compile-time string constant — never a fmt.Sprintf-built value,
//     which turns label-shaped data into unbounded time series
//   - snake_case matching ^[a-z][a-z0-9_]*$
//   - prefixed strata_ (or go_ for the runtime-stats mirror)
//   - registered with one help string per package
var Metricname = &analysis.Analyzer{
	Name: "metricname",
	Doc:  "telemetry metric names must be constant, strata_-prefixed snake_case, one help string each",
	Run:  runMetricname,
}

var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

func runMetricname(pass *analysis.Pass) error {
	emitted := make(map[string]string) // name -> help, this package
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			if !isWriterEmit(pass, call) {
				return true
			}
			nameArg := call.Args[0]
			tv, ok := pass.TypesInfo.Types[nameArg]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				pass.Reportf(nameArg.Pos(),
					"metric name must be a compile-time string constant, never built with fmt.Sprintf or concatenation: dynamic names turn data into unbounded time series")
				return true
			}
			name := constant.StringVal(tv.Value)
			if !metricNameRE.MatchString(name) {
				pass.Reportf(nameArg.Pos(),
					"metric name %q is not snake_case (want ^[a-z][a-z0-9_]*$)", name)
				return true
			}
			if !strings.HasPrefix(name, "strata_") && !strings.HasPrefix(name, "go_") {
				pass.Reportf(nameArg.Pos(),
					"metric name %q lacks the strata_ prefix (go_ is reserved for the runtime-stats mirror)", name)
				return true
			}
			help := ""
			if tv, ok := pass.TypesInfo.Types[call.Args[1]]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
				help = constant.StringVal(tv.Value)
			}
			if prev, seen := emitted[name]; seen {
				if prev != help {
					pass.Reportf(nameArg.Pos(),
						"metric %q re-registered with different help text; one name, one help string", name)
				}
			} else {
				emitted[name] = help
			}
			return true
		})
	}
	return nil
}

// isWriterEmit reports whether call is telemetry.Writer.Counter/Gauge/
// Histogram — matched structurally (a method of those names on a type
// named Writer in a package named telemetry) so testdata fakes of the
// telemetry API are held to the same contract as the real one.
func isWriterEmit(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Counter", "Gauge", "Histogram":
	default:
		return false
	}
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named := namedOf(sig.Recv().Type())
	if named == nil || named.Obj().Name() != "Writer" {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Name() == "telemetry"
}
