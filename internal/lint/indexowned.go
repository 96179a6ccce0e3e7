package lint

import (
	"go/ast"
	"go/types"
)

// Indexowned enforces the parallel-sweep ownership rule from PR 3:
// a closure handed to runIndexed (or to sweepRows, its
// results-by-index wrapper) runs concurrently with its siblings,
// so it must write only state owned by its index parameter — slots
// like out[i] or out[2*i+1] — never shared scalars, maps keyed by
// non-index values, or appends to shared slices. The race detector
// catches the timing-dependent subset of violations at runtime; this
// analyzer catches all of them at build time, including ones whose
// interleavings never fire under -race.
//
// Ownership is tracked by taint: the index parameter is owned, any
// local whose initializer mentions an owned value is owned (i := k/2),
// and a write through an index expression whose subscript mentions an
// owned value is legal. Everything declared inside the closure is its
// private state and free to mutate.
var Indexowned = &Analyzer{
	Name: "indexowned",
	Doc:  "inside runIndexed workers, flag writes to shared state not indexed by the worker's index parameter",
	Run:  runIndexowned,
}

func runIndexowned(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := calleeName(call.Fun)
			if !ok || (name != "runIndexed" && name != "sweepRows") || len(call.Args) < 2 {
				return true
			}
			lit, ok := call.Args[1].(*ast.FuncLit)
			if !ok {
				return true
			}
			checkWorkerBody(pass, lit)
			return true
		})
	}
}

func checkWorkerBody(pass *Pass, lit *ast.FuncLit) {
	owned := map[types.Object]bool{}
	for _, field := range lit.Type.Params.List {
		for _, id := range field.Names {
			if obj := pass.Info.Defs[id]; obj != nil {
				owned[obj] = true
			}
		}
	}

	mentionsOwned := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && owned[pass.Info.ObjectOf(id)] {
				found = true
			}
			return !found
		})
		return found
	}

	// Propagate ownership into locals derived from the index (i := k/2,
	// lo := i*width). A few rounds cover transitive chains.
	for round := 0; round < 3; round++ {
		changed := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range assign.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.Info.Defs[id]
				if obj == nil || owned[obj] {
					continue
				}
				rhs := assign.Rhs[0]
				if len(assign.Rhs) == len(assign.Lhs) {
					rhs = assign.Rhs[i]
				}
				if mentionsOwned(rhs) {
					owned[obj] = true
					changed = true
				}
			}
			return true
		})
		if !changed {
			break
		}
	}

	declaredInside := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= lit.Pos() && obj.Pos() < lit.End()
	}

	checkWrite := func(pos ast.Node, target ast.Expr) {
		// Walk down the selector/index/star chain to the base
		// identifier, remembering whether any subscript on the way
		// mentions an owned value.
		ownedIndex := false
		for {
			switch t := target.(type) {
			case *ast.ParenExpr:
				target = t.X
			case *ast.StarExpr:
				target = t.X
			case *ast.SelectorExpr:
				target = t.X
			case *ast.IndexExpr:
				if mentionsOwned(t.Index) {
					ownedIndex = true
				}
				target = t.X
			default:
				id, ok := target.(*ast.Ident)
				if !ok {
					return // writes through call results etc.: out of scope
				}
				obj := pass.Info.ObjectOf(id)
				if obj == nil || declaredInside(obj) || ownedIndex {
					return
				}
				pass.Reportf(pos.Pos(),
					"runIndexed worker writes shared %s without indexing by its worker index; each worker may only write slots its index owns (PR 3 determinism invariant)",
					id.Name)
				return
			}
		}
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkWrite(n, lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(n, n.X)
		case *ast.SendStmt:
			if id, ok := baseIdent(n.Chan); ok {
				obj := pass.Info.ObjectOf(id)
				if obj != nil && !declaredInside(obj) {
					pass.Reportf(n.Pos(),
						"runIndexed worker sends on shared channel %s; results must land at the worker's own index, not flow through shared channels",
						id.Name)
				}
			}
		}
		return true
	})
}

func baseIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		default:
			id, ok := e.(*ast.Ident)
			return id, ok
		}
	}
}
