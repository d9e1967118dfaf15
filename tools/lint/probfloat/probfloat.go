// Package probfloat guards the model's probability arithmetic at the
// source level with two rules.
//
// Rule 1 — no raw floating-point equality. Probabilities and
// availabilities are accumulated through products and convolutions, so
// `p == q` on computed values is almost always a latent bug; the paper's
// measures are all defined up to a numeric tolerance. Comparisons where
// either side is the untyped constant 0 are allowed: exact-zero tests are
// the established sparsity idiom of the solver's hot loops (mass that was
// never written is exactly 0.0), and both-constant comparisons fold at
// compile time.
//
// Rule 2 — constant probability arguments must lie in [0,1]. Calls whose
// parameters are documented probabilities (link.New's p_fl/p_rc,
// NewUniformMixing's stay probability, stats.Percentile's quantile level,
// ...) are checked whenever the argument is a compile-time
// constant; 1.5 in a PRc position becomes a diagnostic instead of a
// runtime validation error three layers later.
package probfloat

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"wirelesshart/tools/lint/analysis"
)

// Analyzer is the probfloat pass.
var Analyzer = &analysis.Analyzer{
	Name: "probfloat",
	Doc: "flag ==/!= between floating-point expressions (compare with a tolerance instead) " +
		"and constant probability arguments outside [0,1] in known probability parameters",
	Run: run,
}

// probArgs maps a function's types.Func.FullName to the indices of its
// probability-valued parameters. Extend this table when a new API grows a
// probability parameter.
var probArgs = map[string][]int{
	"wirelesshart/internal/link.New":                      {0, 1}, // pfl, prc
	"(wirelesshart/internal/link.Model).TransientUp":      {0},    // u0 (initial up-probability)
	"wirelesshart/internal/stats.GeometricMean":           {0},    // p
	"wirelesshart/internal/stats.NegBinomialCycles":       {1},    // ps
	"wirelesshart/internal/stats.NegBinomialReachability": {1},    // ps
	"(*wirelesshart/internal/stats.PMF).Quantile":         {0},    // level
	"wirelesshart/internal/stats.Percentile":              {1},    // q (quantile level)
	"wirelesshart/internal/link.NewUniformMixing":         {0},    // stay
	"wirelesshart/internal/link.FromAvailability":         {0, 1}, // availability, prc
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkEquality(pass, n)
			case *ast.CallExpr:
				checkCall(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkEquality(pass *analysis.Pass, e *ast.BinaryExpr) {
	if e.Op != token.EQL && e.Op != token.NEQ {
		return
	}
	xt, xok := pass.TypesInfo.Types[e.X]
	yt, yok := pass.TypesInfo.Types[e.Y]
	if !xok || !yok || !isFloat(xt.Type) || !isFloat(yt.Type) {
		return
	}
	// Both constant: folded at compile time, nothing can drift.
	if xt.Value != nil && yt.Value != nil {
		return
	}
	// Exact-zero comparison: the sparsity/sentinel idiom.
	if isConstZero(xt) || isConstZero(yt) {
		return
	}
	pass.Reportf(e.OpPos, "floating-point %s comparison on probability-carrying values; compare against a tolerance (only == 0 sparsity tests are exact)", e.Op)
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isConstZero(tv types.TypeAndValue) bool {
	if tv.Value == nil || tv.Value.Kind() == constant.Unknown {
		return false
	}
	v := constant.ToFloat(tv.Value)
	if v.Kind() != constant.Float {
		return false
	}
	f, _ := constant.Float64Val(v)
	return f == 0
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	idxs, ok := probArgs[fn.FullName()]
	if !ok {
		return
	}
	for _, i := range idxs {
		if i >= len(call.Args) {
			continue
		}
		arg := call.Args[i]
		tv, ok := pass.TypesInfo.Types[arg]
		if !ok || tv.Value == nil {
			continue
		}
		v := constant.ToFloat(tv.Value)
		if v.Kind() != constant.Float {
			continue
		}
		f, _ := constant.Float64Val(v)
		if f < 0 || f > 1 {
			pass.Reportf(arg.Pos(), "probability argument %v to %s is outside [0,1]", tv.Value, fn.Name())
		}
	}
}

// calleeFunc resolves the static callee of a call, or nil for indirect
// calls, conversions and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
