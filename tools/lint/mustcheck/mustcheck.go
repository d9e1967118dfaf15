// Package mustcheck is errcheck scoped to the APIs whose discarded
// results corrupt shared state instead of merely losing information. A
// dropped error from Structure.Bind means a caller solves with
// availabilities that were never checked to lie in [0,1]; a dropped
// link.NewKState error hands the solver a fading chain whose rows were
// never checked to be stochastic. Generic
// errcheck would flag every fmt.Fprintf in the repo; this pass watches
// exactly the solver-critical surface.
package mustcheck

import (
	"go/ast"
	"go/types"

	"wirelesshart/tools/lint/analysis"
)

// Analyzer is the mustcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "mustcheck",
	Doc: "require callers to use the results of the solver-critical APIs " +
		"(Structure.Bind, the link constructors, the cluster and engine surfaces): " +
		"a dropped error there poisons cached models",
	Run: run,
}

// checked is the set of functions (by types.Func.FullName) whose results
// must not be discarded. Extend it when a new cache-poisoning API appears.
var checked = map[string]bool{
	"(*wirelesshart/internal/pathmodel.Structure).Bind": true,
	"wirelesshart/internal/link.New":                    true,

	// Batched solver surface: its error's loss silently corrupts a whole
	// batch of scenarios at once.
	"wirelesshart/internal/pathmodel.SolveBatch": true,

	// Fading-link surface: every constructor validates stochasticity
	// (row sums, probability ranges, unique stationary distribution);
	// a dropped error hands the solver an invalid chain.
	"wirelesshart/internal/link.NewKState":                  true,
	"wirelesshart/internal/link.FromModel":                  true,
	"wirelesshart/internal/link.NewUniformMixing":           true,
	"(*wirelesshart/internal/spec.Spec).ResolveLinkProcess": true,

	// Cluster surface: a dropped NewRing error leaves a replica routing on
	// a nil or half-validated ring, and a dropped snapshot error either
	// loses the warm cache (save) or hides a rejected restore (load).
	"wirelesshart/internal/cluster.NewRing":               true,
	"wirelesshart/internal/cluster.WriteSnapshot":         true,
	"wirelesshart/internal/cluster.ReadSnapshot":          true,
	"(*wirelesshart/internal/engine.Engine).SaveSnapshot": true,
	"(*wirelesshart/internal/engine.Engine).LoadSnapshot": true,

	// PR 9 distributed surface: a dropped Post error silently turns a
	// peer-forwarded evaluation into a missing result, and a dropped
	// Evaluate* error serves a stale or zero Result to the caller — the
	// SIGTERM drain path discards in-flight work with no trace.
	"(*wirelesshart/internal/cluster.Client).Post":         true,
	"(*wirelesshart/internal/engine.Engine).Evaluate":      true,
	"(*wirelesshart/internal/engine.Engine).EvaluatePeer":  true,
	"(*wirelesshart/internal/engine.Engine).EvaluateBatch": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if fn := watched(pass, call); fn != nil {
						pass.Reportf(call.Pos(), "result of %s discarded; it must be checked", fn.Name())
					}
				}
			case *ast.GoStmt:
				if fn := watched(pass, n.Call); fn != nil {
					pass.Reportf(n.Call.Pos(), "result of %s discarded by go statement; it must be checked", fn.Name())
				}
			case *ast.DeferStmt:
				if fn := watched(pass, n.Call); fn != nil {
					pass.Reportf(n.Call.Pos(), "result of %s discarded by defer statement; it must be checked", fn.Name())
				}
			case *ast.AssignStmt:
				checkAssign(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkAssign flags `x, _ := st.Bind(...)`-style assignments that blank
// out the error result of a watched call.
func checkAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	fn := watched(pass, call)
	if fn == nil {
		return
	}
	results := fn.Type().(*types.Signature).Results()
	if len(as.Lhs) != results.Len() {
		return // single-value context mismatches are a compile error anyway
	}
	for i := 0; i < results.Len(); i++ {
		if !isErrorType(results.At(i).Type()) {
			continue
		}
		if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			pass.Reportf(as.Lhs[i].Pos(), "error result of %s assigned to blank identifier; it must be checked", fn.Name())
		}
	}
}

// watched resolves call's static callee and returns it when it is in the
// checked set.
func watched(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || !checked[fn.FullName()] {
		return nil
	}
	return fn
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
