package checkers

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/resilience-models/dvf/internal/analysis"
)

// determinismScope names the packages whose outputs must be bit-for-bit
// reproducible: the cache simulator (replay identity), the trace codec
// (encode/decode round-trip identity) and the experiments package
// (fig4–7 golden CSVs).
var determinismScope = []string{
	"internal/cache",
	"internal/trace",
	"internal/experiments",
}

// Determinism rejects the three classic sources of run-to-run drift in
// the packages whose outputs are golden-tested:
//
//   - importing math/rand (any variant);
//   - reading the wall clock (time.Now, time.Since) unless the value
//     demonstrably flows only into metrics instruments, which the golden
//     guard tests already prove to be observation-only;
//   - ranging over a map while writing to surrounding state, unless the
//     write is order-independent (keyed by the iteration key) or the
//     collected keys are sorted afterwards in the same function.
//
// Legitimate exceptions (a wall-clock cost measurement that is reported,
// not golden) carry a //dvf:allow determinism <reason> directive.
var Determinism = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "no wall clock, math/rand, or order-dependent map iteration in golden-output packages",
	Run:  runDeterminism,
}

func runDeterminism(pass *analysis.Pass) error {
	if !pass.InScope(determinismScope...) {
		return nil
	}
	for _, f := range pass.Files {
		checkRandImports(pass, f)
		parents := analysis.Parents(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkClockRead(pass, parents, n)
				checkLaunderedClock(pass, parents, n)
			case *ast.RangeStmt:
				checkMapRange(pass, f, parents, n)
			}
			return true
		})
	}
	return nil
}

func checkRandImports(pass *analysis.Pass, f *ast.File) {
	for _, imp := range f.Imports {
		switch imp.Path.Value {
		case `"math/rand"`, `"math/rand/v2"`:
			pass.Reportf(imp.Pos(), "math/rand in a golden-output package: seedable or not, iteration results must not depend on a PRNG stream")
		}
	}
}

// checkClockRead flags time.Now/time.Since calls whose result escapes the
// metrics-instrument sinks.
func checkClockRead(pass *analysis.Pass, parents map[ast.Node]ast.Node, call *ast.CallExpr) {
	if !analysis.IsPkgCall(pass.TypesInfo, call, "time", "Now", "Since") {
		return
	}
	// A Since call whose argument is a Now-derived variable is judged once,
	// at the Now site; judging it again here would double-report.
	if analysis.IsPkgCall(pass.TypesInfo, call, "time", "Since") {
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && !v.IsField() && v.Pkg() == pass.Pkg {
				return
			}
		}
	}
	if !metricsConsumed(pass, parents, call, 4) {
		pass.Reportf(call.Pos(), "wall-clock read (time.%s) escapes the metrics sink: non-metric uses of the clock make output depend on timing", analysis.CalleeFunc(pass.TypesInfo, call).Name())
	}
}

// checkLaunderedClock flags calls to module-local functions in *other*
// packages whose return value is clock-tainted according to the
// interprocedural taint summaries — the laundering case checkClockRead
// cannot see: a helper in a package outside the determinism scope wraps
// time.Now, and the golden-output package consumes the helper. The
// helper's own package is never checked (out of scope), so the taint
// must be caught here, at the call site. Same-package helpers need no
// treatment: their time.Now escapes at the source and is flagged there.
//
// The same metrics-sink escape hatch applies: a laundered timestamp
// that demonstrably flows only into metrics instruments is
// observation-only.
func checkLaunderedClock(pass *analysis.Pass, parents map[ast.Node]ast.Node, call *ast.CallExpr) {
	if pass.Prog == nil {
		return
	}
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg() == pass.Pkg {
		return
	}
	if pass.Prog.Package(fn.Pkg().Path()) == nil || analysis.ObservabilityPkg(fn.Pkg()) {
		return
	}
	if !pass.Prog.ClockSummary(fn).ConstTainted() {
		return
	}
	if metricsConsumed(pass, parents, call, 4) {
		return
	}
	pass.Reportf(call.Pos(), "call to %s.%s returns a wall-clock-derived value (laundered time.Now) that escapes the metrics sink", fn.Pkg().Name(), fn.Name())
}

// metricsConsumed reports whether every consumption path of expr ends in
// a method call on a metrics instrument (receiver type declared in a
// package named "metrics"). It follows one pattern of indirection per
// recursion step: wrapping expressions up to the enclosing statement, and
// single-variable assignments whose variable's uses are then checked the
// same way (t0 := time.Now(); d := time.Since(t0); hist.Observe(d)).
func metricsConsumed(pass *analysis.Pass, parents map[ast.Node]ast.Node, expr ast.Expr, depth int) bool {
	if depth == 0 {
		return false
	}
	var n ast.Node = expr
	for {
		parent := parents[n]
		if parent == nil {
			return false
		}
		switch p := parent.(type) {
		case *ast.ParenExpr, *ast.SelectorExpr:
			n = parent
			continue
		case *ast.CallExpr:
			if recv := analysis.ReceiverType(pass.TypesInfo, p); analysis.NamedIn(recv, "metrics") {
				return true
			}
			// A call on the tainted value itself (d.Nanoseconds(), t0.Unix())
			// keeps the taint; a call taking it as an argument does too
			// (time.Since(t0)). Either way the call's result is what must
			// reach metrics.
			n = parent
			continue
		case *ast.AssignStmt:
			// Only the single-assign form is followed; anything fancier is
			// treated as an escape.
			if len(p.Lhs) != 1 || len(p.Rhs) != 1 || p.Rhs[0] != n {
				return false
			}
			id, ok := p.Lhs[0].(*ast.Ident)
			if !ok {
				return false
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj == nil {
				return false
			}
			return varOnlyFeedsMetrics(pass, obj, depth-1)
		default:
			return false
		}
	}
}

// varOnlyFeedsMetrics checks that every use of the variable is itself
// metrics-consumed.
func varOnlyFeedsMetrics(pass *analysis.Pass, obj types.Object, depth int) bool {
	for _, f := range pass.Files {
		if !fileContains(f, obj.Pos()) {
			continue
		}
		parents := analysis.Parents(f)
		ok := true
		ast.Inspect(f, func(n ast.Node) bool {
			id, isIdent := n.(*ast.Ident)
			if !isIdent || !ok || pass.TypesInfo.Uses[id] != obj {
				return ok
			}
			if !metricsConsumed(pass, parents, id, depth) {
				ok = false
			}
			return ok
		})
		return ok
	}
	return false
}

func fileContains(f *ast.File, pos token.Pos) bool {
	return f.FileStart <= pos && pos < f.FileEnd
}

// checkMapRange flags order-dependent writes inside a range over a map.
func checkMapRange(pass *analysis.Pass, f *ast.File, parents map[ast.Node]ast.Node, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	keyObj := rangeVarObj(pass, rng.Key)
	inner := innerObjects(pass, rng.Body)

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // closures are not executed by the loop itself
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				checkRangeWrite(pass, f, parents, rng, keyObj, inner, n, lhs, i)
			}
		case *ast.IncDecStmt:
			// Integer ++/-- on outer state is commutative and therefore
			// order-independent; anything else is not.
			if target := writeTargetObj(pass, n.X); target != nil && !inner[target] && !isIntegerExpr(pass, n.X) {
				pass.Reportf(n.Pos(), "map iteration order reaches %s: increment of outer state inside a map range", target.Name())
			}
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "map iteration order reaches a channel send inside a map range")
		case *ast.ExprStmt:
			checkRangeCall(pass, rng, keyObj, n)
			return false
		}
		return true
	})
}

// rangeVarObj resolves the range key variable, nil for `_` or absent.
func rangeVarObj(pass *analysis.Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

// innerObjects collects every object declared inside the loop body;
// writes to those cannot leak iteration order.
func innerObjects(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	inner := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				inner[obj] = true
			}
		}
		return true
	})
	return inner
}

// writeTargetObj resolves the root object an assignment target mutates:
// the variable itself for identifiers, the base variable for selector and
// index expressions.
func writeTargetObj(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[x]
			if obj == nil {
				obj = pass.TypesInfo.Defs[x]
			}
			return obj
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// checkRangeWrite judges one assignment target inside a map-range body.
func checkRangeWrite(pass *analysis.Pass, f *ast.File, parents map[ast.Node]ast.Node, rng *ast.RangeStmt, keyObj types.Object, inner map[types.Object]bool, assign *ast.AssignStmt, lhs ast.Expr, i int) {
	target := writeTargetObj(pass, lhs)
	if target == nil || inner[target] {
		return
	}
	// Commutative integer accumulation (n += v, bits |= m) yields the
	// same result in any iteration order. Floating-point addition does
	// not associate and string += concatenates in order, so only integer
	// element types qualify.
	switch assign.Tok {
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		if isIntegerExpr(pass, lhs) {
			return
		}
	}
	// Order-independent form 1: a map write keyed by the iteration key —
	// merged[id] = merged[id].add(st) visits every key exactly once, so
	// the final map is independent of iteration order.
	if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && keyObj != nil && usesObject(pass, idx.Index, keyObj) {
		return
	}
	// Order-independent form 2: collecting keys for a later sort —
	// ids = append(ids, id) followed by sort.Slice(ids, ...) below the
	// loop in the same function.
	rhs := assign.Rhs[min(i, len(assign.Rhs)-1)]
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && sortedBelow(pass, f, parents, rng, target) {
			return
		}
	}
	pass.Reportf(assign.Pos(), "map iteration order reaches %s: accumulate into a key-indexed map, or collect keys and sort them before use", target.Name())
}

// isIntegerExpr reports whether the expression has integer type.
func isIntegerExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// usesObject reports whether obj appears in expr.
func usesObject(pass *analysis.Pass, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && (pass.TypesInfo.Uses[id] == obj || pass.TypesInfo.Defs[id] == obj) {
			found = true
		}
		return !found
	})
	return found
}

// sortedBelow reports whether target is passed to a sort/slices ordering
// function after the range statement, within the same function body.
func sortedBelow(pass *analysis.Pass, f *ast.File, parents map[ast.Node]ast.Node, rng *ast.RangeStmt, target types.Object) bool {
	// Find the enclosing function body to bound the search.
	var body *ast.BlockStmt
	for n := ast.Node(rng); n != nil; n = parents[n] {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		}
		if body != nil {
			break
		}
	}
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found || call.Pos() < rng.End() {
			return !found
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if pkg := fn.Pkg().Path(); pkg != "sort" && pkg != "slices" {
			return true
		}
		if len(call.Args) > 0 && usesObject(pass, call.Args[0], target) {
			found = true
		}
		return !found
	})
	return found
}

// checkRangeCall flags side-effecting calls inside a map-range body:
// emitting output per iteration bakes map order into the result. delete
// on the ranged map keyed by the iteration key is the one sanctioned
// call-with-side-effects.
func checkRangeCall(pass *analysis.Pass, rng *ast.RangeStmt, keyObj types.Object, stmt *ast.ExprStmt) {
	call, ok := stmt.X.(*ast.CallExpr)
	if !ok {
		return
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch id.Name {
		case "delete":
			if len(call.Args) == 2 && keyObj != nil && usesObject(pass, call.Args[1], keyObj) {
				return
			}
		case "panic", "print", "println":
			return // diagnostics on the failure path, not output
		}
	}
	pass.Reportf(call.Pos(), "side-effecting call inside a map range: iteration order becomes observable; sort keys first")
}
