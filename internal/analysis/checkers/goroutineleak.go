package checkers

import (
	"go/ast"
	"go/types"

	"github.com/resilience-models/dvf/internal/analysis"
)

// GoroutineLeak flags goroutines launched in library code (internal/...)
// with no visible join path. Every goroutine in the pipeline must be
// collectable — the experiment fan-out joins through wg.Wait, the
// service's grid workers park on channel close and are reaped by a
// WaitGroup — because a leaked goroutine pins its cell state, skews
// metrics snapshots, and turns the race detector's schedule into a
// lottery.
//
// A launched func literal passes when its body contains a join signal: a
// WaitGroup Done/Wait call, a channel send or close, a channel receive,
// or a select (the ctx.Done pattern). A launched named function passes
// when the call site hands it a channel, a context.Context, a
// *sync.WaitGroup, or a (pointer to a) struct carrying a channel field —
// the join then lives inside the callee.
var GoroutineLeak = &analysis.Analyzer{
	Name: "goroutineleak",
	Doc:  "library goroutines must have a join path (WaitGroup, channel, or context)",
	Run:  runGoroutineLeak,
}

func runGoroutineLeak(pass *analysis.Pass) error {
	if !pass.InScope("internal/") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
				if !hasJoinSignal(pass, lit.Body) {
					pass.Reportf(gs.Pos(), "goroutine body has no join path (no WaitGroup Done/Wait, channel operation, or select); it cannot be collected")
				}
				return true
			}
			if !joinCapableArgs(pass, gs.Call) {
				pass.Reportf(gs.Pos(), "goroutine launches %s without a channel, context, or WaitGroup to join on", callLabel(pass, gs.Call))
			}
			return true
		})
	}
	return nil
}

// hasJoinSignal scans a goroutine body for any construct that lets
// another goroutine observe its progress or completion.
func hasJoinSignal(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
			}
		case *ast.RangeStmt:
			// Ranging over a channel parks the goroutine until close —
			// the fan-out worker pattern. Ranging over anything else says
			// nothing about liveness.
			if tv, ok := pass.TypesInfo.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if fun.Name == "close" {
					found = true
				}
			case *ast.SelectorExpr:
				if name := fun.Sel.Name; name == "Done" || name == "Wait" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// joinCapableArgs reports whether any argument (or the receiver) of the
// launched call carries a join primitive.
func joinCapableArgs(pass *analysis.Pass, call *ast.CallExpr) bool {
	exprs := make([]ast.Expr, 0, len(call.Args)+1)
	exprs = append(exprs, call.Args...)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		exprs = append(exprs, sel.X)
	}
	for _, e := range exprs {
		tv, ok := pass.TypesInfo.Types[e]
		if !ok {
			continue
		}
		if isJoinType(tv.Type) {
			return true
		}
	}
	return false
}

func isJoinType(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Chan:
		return true
	case *types.Pointer:
		if n, ok := u.Elem().(*types.Named); ok {
			if n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync" && n.Obj().Name() == "WaitGroup" {
				return true
			}
			// A pointer to a struct carrying a channel field — the
			// streaming-flush pattern (tracez.Tracer): the launcher closes
			// the channel, the goroutine ranges over it. A struct whose
			// only primitive is an embedded WaitGroup stays flagged: the
			// checker cannot see the callee balance Add/Done through an
			// opaque receiver.
			if st, ok := n.Underlying().(*types.Struct); ok {
				return structHasChanField(st)
			}
		}
	case *types.Interface:
		if n, ok := t.(*types.Named); ok {
			return n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "context" && n.Obj().Name() == "Context"
		}
	case *types.Struct:
		// A struct value carrying a channel field (the fan-out's fanMsg
		// ack pattern) can signal completion.
		return structHasChanField(u)
	}
	return false
}

func structHasChanField(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if _, ok := st.Field(i).Type().Underlying().(*types.Chan); ok {
			return true
		}
	}
	return false
}
