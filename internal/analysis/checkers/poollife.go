package checkers

import (
	"go/ast"
	"go/types"

	"github.com/resilience-models/dvf/internal/analysis"
)

// Poollife guards the arena-batch lifecycle the zero-copy replay path
// is built on: every batch taken from a trace arena pool (or a
// sync.Pool) must be returned exactly once on every path. The dynamic
// suite can only observe a leak as slow memory growth and a double-Put
// as eventual aliasing corruption — exactly the silent-data-corruption
// class the DVF model studies — so this checker rejects the code shape
// instead:
//
//   - a path that leaves the function while a batch is live (the
//     classic early error return between Get and Put) is a leak; when
//     no path releases the batch at all, the finding carries the
//     mechanical fix `defer pool.Put(b)`;
//   - a use of the batch after Put is a use-after-release into the
//     arena freelist;
//   - a second Put is a double release (two future Gets alias one
//     slab);
//   - a batch acquired per loop iteration but not released by the end
//     of the body leaks one arena per iteration, and a deferred Put
//     inside a loop runs at function exit, not per iteration.
//
// Handoffs stay legitimate: storing a batch into a field, sending it on
// a channel or passing it to a goroutine transfers ownership out, and
// releasing a batch the function never acquired (the consumer half of a
// fan-out) binds no obligation here. Helper functions compose through
// ownership summaries, so a leak created through a helper in another
// package is still observed at the acquiring call site.
var Poollife = &analysis.Analyzer{
	Name: "poollife",
	Doc:  "pooled batches are released exactly once on every path: no leaks on error returns, no use-after-Put, no double-Put",
	Run:  runPoollife,
}

func runPoollife(pass *analysis.Pass) error {
	if !pass.InScope("internal/", "cmd/") {
		return nil
	}
	analysis.OwnCheck(pass, poolModel)
	return nil
}

// poolModel instantiates the ownership engine for arena batches.
var poolModel = &analysis.OwnModel{
	Name: "poollife",
	What: "pooled batch",
	Acquire: func(info *types.Info, call *ast.CallExpr) (int, bool) {
		fn := analysis.CalleeFunc(info, call)
		if isPoolMethod(fn, "Get") {
			return 0, true
		}
		return 0, false
	},
	Release: func(info *types.Info, call *ast.CallExpr) (int, bool) {
		fn := analysis.CalleeFunc(info, call)
		if isPoolMethod(fn, "Put") && len(call.Args) == 1 {
			return 0, true
		}
		return 0, false
	},
	Tracks: isRefBatch,
	FixFor: func(r *analysis.OwnResource) []analysis.SuggestedFix {
		if r.BindName == "" || r.RecvPath == "" || !r.AcquireEnd.IsValid() {
			return nil
		}
		return []analysis.SuggestedFix{{
			Message: "defer the release right after the acquire",
			Edits: []analysis.TextEdit{{
				Pos:     r.AcquireEnd,
				End:     r.AcquireEnd,
				NewText: "\ndefer " + r.RecvPath + ".Put(" + r.BindName + ")",
			}},
		}}
	},
}

// isPoolMethod reports whether fn is the named method on a sync.Pool or
// on a trace arena pool, recognized by shape rather than type name: a
// package-trace type whose Get hands out, and whose Put takes back, a
// *RefBatch.
func isPoolMethod(fn *types.Func, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if analysis.NamedIn(rt, "sync") && namedName(rt) == "Pool" {
		return true
	}
	if !analysis.NamedIn(rt, "trace") {
		return false
	}
	batch := sig.Results()
	if name == "Put" {
		batch = sig.Params()
	}
	return batch.Len() == 1 && isRefBatch(batch.At(0).Type())
}

// isRefBatch reports whether t is (a pointer to) trace.RefBatch.
func isRefBatch(t types.Type) bool {
	return analysis.NamedIn(t, "trace") && namedName(t) == "RefBatch"
}

// namedName returns the name of a (possibly pointer-wrapped) named
// type, or "".
func namedName(t types.Type) string {
	n, ok := analysis.Deref(t).(*types.Named)
	if !ok {
		return ""
	}
	return n.Obj().Name()
}
