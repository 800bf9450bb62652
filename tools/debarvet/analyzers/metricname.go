package analyzers

import (
	"go/ast"
	"regexp"

	"debar/tools/debarvet/analysis"
)

// MetricName enforces the obs naming contract from the observability PR:
// metric names follow layer_subsystem_name lowercase-snake (at least
// three segments), each name is registered from at most one constant
// string per package (obs.Get* is get-or-create across packages, so the
// per-package rule catches copy-paste divergence without forbidding the
// intentional shared handles), and histogram bucket literals are
// strictly increasing.
//
// Dynamic names built with + (the segmented logs' per-instance prefixes)
// are checked part-wise: every string literal in the concatenation must
// itself be lowercase-snake, so a typo'd suffix still trips the check
// even though the full name is runtime-assembled.
var MetricName = &analysis.Analyzer{
	Name: "metricname",
	Doc: "obs metric names are layer_subsystem_name lowercase-snake, " +
		"registered once per name, with sorted histogram buckets",
	Packages:  []string{"debar"},
	SkipTests: true,
	Run:       runMetricName,
}

// fullMetricRe: at least three lowercase-snake segments.
var fullMetricRe = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+){2,}$`)

// partMetricRe: any literal fragment of a dynamic name — lowercase
// snake, allowing leading/trailing underscores at the join points.
var partMetricRe = regexp.MustCompile(`^_?[a-z][a-z0-9]*(_[a-z0-9]+)*_?$`)

var obsRegFuncs = map[string]bool{
	"GetCounter": true, "GetGauge": true, "GetHistogram": true,
	"Counter": true, "Gauge": true, "Histogram": true,
}

func runMetricName(pass *analysis.Pass) error {
	info := pass.TypesInfo
	seen := make(map[string]ast.Expr) // constant name -> first registration site
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "debar/internal/obs" {
				return true
			}
			if !obsRegFuncs[fn.Name()] || len(call.Args) == 0 {
				return true
			}
			nameArg := call.Args[0]
			if name, ok := constString(info, nameArg); ok {
				if !fullMetricRe.MatchString(name) {
					pass.Reportf(nameArg.Pos(),
						"metric name %q is not layer_subsystem_name lowercase-snake (want at least three _-separated segments)",
						name)
				} else if prev, dup := seen[name]; dup && prev != nameArg {
					pass.Reportf(nameArg.Pos(),
						"metric %q registered from more than one call site in this package; hoist the handle to a package var",
						name)
				} else {
					seen[name] = nameArg
				}
			} else {
				checkDynamicName(pass, nameArg)
			}
			if fn.Name() == "GetHistogram" || fn.Name() == "Histogram" {
				if len(call.Args) >= 2 {
					checkBuckets(pass, call.Args[1])
				}
			}
			return true
		})
	}
	return nil
}

// checkDynamicName validates every string literal fragment of a
// runtime-concatenated metric name.
func checkDynamicName(pass *analysis.Pass, e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok {
			return true
		}
		s, ok := constString(pass.TypesInfo, lit)
		if !ok || s == "" {
			return true
		}
		if !partMetricRe.MatchString(s) {
			pass.Reportf(lit.Pos(),
				"metric name fragment %q is not lowercase-snake", s)
		}
		return true
	})
}

// checkBuckets validates a literal []float64{...} bucket argument:
// strictly increasing, non-empty. Non-literal arguments (the shared
// DurationBuckets/SizeBuckets vars, ExpBuckets calls) are checked at
// their definition site instead.
func checkBuckets(pass *analysis.Pass, e ast.Expr) {
	info := pass.TypesInfo
	switch arg := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		var prev float64
		for i, elt := range arg.Elts {
			v, ok := constFloat(info, elt)
			if !ok {
				return // non-constant element: give up on ordering
			}
			if i > 0 && v <= prev {
				pass.Reportf(elt.Pos(),
					"histogram buckets not strictly increasing: %v after %v", v, prev)
				return
			}
			prev = v
		}
		if len(arg.Elts) == 0 {
			pass.Reportf(arg.Pos(), "histogram registered with empty bucket list")
		}
	case *ast.CallExpr:
		fn := calleeOf(info, arg)
		if !isPkgFunc(fn, "debar/internal/obs", "ExpBuckets") || len(arg.Args) != 3 {
			return
		}
		start, ok1 := constFloat(info, arg.Args[0])
		factor, ok2 := constFloat(info, arg.Args[1])
		n, ok3 := constFloat(info, arg.Args[2])
		if ok1 && start <= 0 {
			pass.Reportf(arg.Args[0].Pos(), "ExpBuckets start must be > 0, got %v", start)
		}
		if ok2 && factor <= 1 {
			pass.Reportf(arg.Args[1].Pos(), "ExpBuckets factor must be > 1, got %v", factor)
		}
		if ok3 && n < 1 {
			pass.Reportf(arg.Args[2].Pos(), "ExpBuckets count must be >= 1, got %v", n)
		}
	}
}
