// Package geometry enforces the paper's Figure-1 index geometry: a
// two-level predictor's table index is built from history-register
// bits and PC bits, and every such index must be bounded by a
// power-of-two mask before it touches a table. This is exactly the
// class of aliasing bug — wrong mask, non-power-of-two table,
// unmasked history shift — that the reference-model diff harness can
// only catch dynamically, per trace; here it becomes a compile-time
// error.
//
// The analyzer runs a small function-local taint analysis. Taint
// sources are branch-address bits (selectors .PC/.Target, parameters
// named pc/addr/target), history patterns (calls to
// Value/Lookup/Row/Val/Access on history, core, or refmodel types;
// history-register fields like hist/value/ghist/phist), and anything
// arithmetically derived from them. A masking operation — x & m or
// x % m — launders the result clean; derivations of a clean index
// stay clean, which is what admits shift-derived sub-indices such as
// a bit-packed counter lane (word = idx>>5, lane = idx&31 from an
// already-masked idx). Three rules are enforced:
//
//  1. A slice or array index expression must be clean: every tainted
//     term must pass through & (len(t)-1), & ((1<<bits)-1), or % m
//     before use as an index.
//  2. A constant used as a mask over tainted bits must have the form
//     2^k - 1: any other constant silently changes the table
//     geometry (the paper's wrong-mask aliasing bug).
//  3. A history-register update that shifts the register's own value
//     (v = v<<1 | bit, or v = v*2 + bit) must re-mask at top level,
//     and a store into a history-register field must store a clean
//     (masked) value — an unmasked shift grows the register beyond
//     its declared width and corrupts row selection.
package geometry

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"bpred/internal/analysis"
)

// Analyzer is the geometry pass.
var Analyzer = &analysis.Analyzer{
	Name: "geometry",
	Doc: "check that table indexes derived from PC/history bits are masked to a " +
		"power-of-two geometry and history-register shifts are re-masked",
	Run: run,
}

// histPkgs are the logical packages whose named fields and methods
// carry history patterns.
var histPkgs = []string{"history", "core", "refmodel"}

// histFields are struct fields holding history-register contents.
var histFields = map[string]bool{
	"hist": true, "value": true, "ghist": true, "phist": true, "history": true,
}

// taintedMethods are methods whose results are history patterns.
// Val reads the open-addressed per-branch register file (PCMap) and
// Access is the fused lookup+update probe on Perfect BHTs; both
// return patterns the caller must mask to its own width.
var taintedMethods = map[string]bool{
	"Value": true, "Lookup": true, "Row": true,
	"Val": true, "Access": true,
}

// addrParams are parameter names treated as raw branch-address bits.
var addrParams = map[string]bool{"pc": true, "addr": true, "target": true}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			fa := &funcAnalysis{pass: pass, taint: make(map[types.Object]bool), reported: make(map[token.Pos]bool)}
			fa.propagate(fn.Body)
			fa.check(fn.Body)
		}
	}
	return nil, nil
}

// funcAnalysis is the per-function taint state.
type funcAnalysis struct {
	pass     *analysis.Pass
	taint    map[types.Object]bool
	reported map[token.Pos]bool
}

// propagate runs the assignment fixed point: objects assigned from
// tainted expressions become tainted. Taint only grows, so a few
// rounds converge.
func (fa *funcAnalysis) propagate(body *ast.BlockStmt) {
	for round := 0; round < 4; round++ {
		changed := false
		ast.Inspect(body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) > 1 && len(s.Rhs) == 1 {
					// Tuple assignment (row, miss := bht.Lookup(pc)).
					if fa.taintOf(s.Rhs[0]) {
						for _, l := range s.Lhs {
							changed = fa.mark(l) || changed
						}
					}
					return true
				}
				for i, l := range s.Lhs {
					if i < len(s.Rhs) && fa.taintOf(s.Rhs[i]) {
						changed = fa.mark(l) || changed
					}
				}
			case *ast.ValueSpec:
				if len(s.Names) > 1 && len(s.Values) == 1 {
					if fa.taintOf(s.Values[0]) {
						for _, name := range s.Names {
							changed = fa.markIdent(name) || changed
						}
					}
					return true
				}
				for i, name := range s.Names {
					if i < len(s.Values) && fa.taintOf(s.Values[i]) {
						changed = fa.markIdent(name) || changed
					}
				}
			case *ast.RangeStmt:
				// Ranging over a history table taints the element.
				if s.Value != nil && fa.taintOf(s.X) {
					changed = fa.mark(s.Value) || changed
				}
			}
			return true
		})
		if !changed {
			return
		}
	}
}

// mark taints the object behind an assignable expression, reporting
// whether that changed anything.
func (fa *funcAnalysis) mark(e ast.Expr) bool {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return fa.markIdent(id)
	}
	return false
}

func (fa *funcAnalysis) markIdent(id *ast.Ident) bool {
	obj := fa.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = fa.pass.TypesInfo.Uses[id]
	}
	if obj == nil || fa.taint[obj] {
		return false
	}
	fa.taint[obj] = true
	return true
}

// taintOf reports whether e may carry unmasked PC or history bits.
func (fa *funcAnalysis) taintOf(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return fa.taintOf(x.X)
	case *ast.Ident:
		obj := fa.pass.TypesInfo.Uses[x]
		if obj == nil {
			obj = fa.pass.TypesInfo.Defs[x]
		}
		if obj != nil && fa.taint[obj] {
			return true
		}
		return obj != nil && addrParams[obj.Name()] && isInteger(obj.Type())
	case *ast.SelectorExpr:
		return fa.isSource(x)
	case *ast.IndexExpr:
		// Element reads inherit the container's taint
		// (t.hist[i] is a history pattern).
		return fa.taintOf(x.X)
	case *ast.CallExpr:
		if tv, ok := fa.pass.TypesInfo.Types[x.Fun]; ok && tv.IsType() {
			// Conversion: uint64(v) keeps v's taint.
			if len(x.Args) == 1 {
				return fa.taintOf(x.Args[0])
			}
			return false
		}
		if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && taintedMethods[sel.Sel.Name] {
			return analysis.PkgMatch(analysis.ReceiverPkgPath(fa.pass.TypesInfo, sel), histPkgs...)
		}
		return false
	case *ast.BinaryExpr:
		switch x.Op {
		case token.AND, token.REM:
			return false // masked
		case token.AND_NOT, token.SHL, token.SHR:
			return fa.taintOf(x.X)
		case token.OR, token.XOR, token.ADD, token.SUB, token.MUL, token.QUO:
			return fa.taintOf(x.X) || fa.taintOf(x.Y)
		default:
			return false
		}
	case *ast.UnaryExpr:
		if x.Op == token.XOR || x.Op == token.SUB || x.Op == token.ADD {
			return fa.taintOf(x.X)
		}
		return false
	}
	return false
}

// isSource reports whether sel directly denotes address or history
// bits.
func (fa *funcAnalysis) isSource(sel *ast.SelectorExpr) bool {
	name := sel.Sel.Name
	if name == "PC" || name == "Target" {
		if tv, ok := fa.pass.TypesInfo.Types[sel]; ok && isInteger(tv.Type) {
			return true
		}
	}
	if !histFields[name] {
		return false
	}
	s, ok := fa.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	obj := s.Obj()
	return obj.Pkg() != nil && analysis.PkgMatch(obj.Pkg().Path(), histPkgs...)
}

// check walks the function once, reporting rule violations.
func (fa *funcAnalysis) check(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IndexExpr:
			if fa.indexable(x.X) && fa.taintOf(x.Index) {
				fa.reportf(x.Index.Pos(),
					"unmasked table index derived from PC/history bits; bound it with "+
						"x & (len(t)-1), x & ((1<<bits)-1), or x %% n before indexing")
			}
		case *ast.BinaryExpr:
			if x.Op == token.AND {
				fa.checkMask(x)
			}
		case *ast.AssignStmt:
			fa.checkAssign(x)
		}
		return true
	})
}

// indexable reports whether e is a slice or array (the structures
// whose geometry the paper's masks declare). Map lookups cannot
// alias and are exempt.
func (fa *funcAnalysis) indexable(e ast.Expr) bool {
	tv, ok := fa.pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	case *types.Pointer:
		_, ok := t.Elem().Underlying().(*types.Array)
		return ok
	}
	return false
}

// checkMask validates constant masks applied to tainted bits: they
// must be 2^k - 1, anything else silently reshapes the table.
func (fa *funcAnalysis) checkMask(b *ast.BinaryExpr) {
	for _, pair := range [2][2]ast.Expr{{b.X, b.Y}, {b.Y, b.X}} {
		cexpr, other := pair[0], pair[1]
		tv, ok := fa.pass.TypesInfo.Types[cexpr]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
			continue
		}
		if !fa.taintOf(other) {
			continue
		}
		v, exact := constant.Uint64Val(tv.Value)
		if !exact || (v+1)&v != 0 {
			fa.reportf(cexpr.Pos(),
				"constant mask %s over PC/history bits is not of the form 2^k-1; "+
					"table geometry must be a power of two", tv.Value)
		}
	}
}

// checkAssign enforces the history-update rules on one assignment.
func (fa *funcAnalysis) checkAssign(s *ast.AssignStmt) {
	// Op-assign shifts (v <<= 1) can never re-mask in the same
	// statement.
	if s.Tok == token.SHL_ASSIGN && len(s.Lhs) == 1 && fa.histLike(s.Lhs[0]) {
		fa.reportf(s.Pos(),
			"history register shifted with <<= cannot be re-masked in the same statement; "+
				"use v = (v << k | bits) & mask")
		return
	}
	if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
		return
	}
	for i, lhs := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		rhs := s.Rhs[i]
		if fa.isSelfShift(lhs, rhs) && fa.histLike(lhs) && fa.taintOf(rhs) {
			fa.reportf(s.Pos(),
				"history register shift is not re-masked: the register grows past its "+
					"declared width; write v = (v << k | bits) & mask")
			continue
		}
		// Stores into history-register fields must be masked.
		if fa.histStore(lhs) && fa.taintOf(rhs) {
			fa.reportf(s.Pos(),
				"unmasked value stored into a history register; mask to the declared width first")
		}
	}
}

// isSelfShift reports whether rhs contains lhs shifted left (v << k)
// or doubled by a constant power of two (v * 2^k) — the
// shift-register update idiom.
func (fa *funcAnalysis) isSelfShift(lhs, rhs ast.Expr) bool {
	target := types.ExprString(ast.Unparen(lhs))
	found := false
	ast.Inspect(rhs, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch b.Op {
		case token.SHL:
			if types.ExprString(ast.Unparen(b.X)) == target {
				found = true
			}
		case token.MUL:
			if (types.ExprString(ast.Unparen(b.X)) == target && fa.isPow2Const(b.Y)) ||
				(types.ExprString(ast.Unparen(b.Y)) == target && fa.isPow2Const(b.X)) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isPow2Const reports whether e is an integer constant 2^k, k >= 1.
func (fa *funcAnalysis) isPow2Const(e ast.Expr) bool {
	tv, ok := fa.pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return false
	}
	v, exact := constant.Uint64Val(tv.Value)
	return exact && v >= 2 && v&(v-1) == 0
}

// histLike reports whether an assignment target holds history bits.
func (fa *funcAnalysis) histLike(lhs ast.Expr) bool {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		return fa.taintOf(x)
	case *ast.SelectorExpr:
		return fa.isSource(x)
	case *ast.IndexExpr:
		return fa.taintOf(x.X)
	}
	return false
}

// histStore reports whether lhs writes a history-register field or
// element.
func (fa *funcAnalysis) histStore(lhs ast.Expr) bool {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return fa.isSource(x)
	case *ast.IndexExpr:
		if sel, ok := ast.Unparen(x.X).(*ast.SelectorExpr); ok {
			return fa.isSource(sel)
		}
	}
	return false
}

// isInteger reports whether t is an integer type.
func isInteger(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}

// reportf deduplicates reports by position (taintOf may visit the
// same expression from several contexts).
func (fa *funcAnalysis) reportf(pos token.Pos, format string, args ...any) {
	if fa.reported[pos] {
		return
	}
	fa.reported[pos] = true
	fa.pass.Reportf(pos, format, args...)
}
