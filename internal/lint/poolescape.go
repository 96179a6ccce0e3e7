package lint

import (
	"go/ast"
	"go/types"
)

// Poolescape guards the pooled-object lifecycle. Types marked
// //meshvet:pooled (simnet.Packet, transport.Segment, httpsim.wireMsg)
// are recycled through free lists: once a value reaches its Release /
// free point it is scrubbed and handed to the next allocation, so any
// reference that outlives the owning call reads another packet's data.
// The analyzer flags every construct that can retain such a value past
// its call frame:
//
//   - assignment into a struct field, slice/map element, or global
//   - sending it on a channel
//   - appending it to a slice (a pool's own free list is the one
//     sanctioned retainer and carries //meshvet:allow poolescape)
//   - capturing it in a closure, which may run after the value is freed
//   - placing it in a composite literal, as a field, an element or a
//     map key: the literal carries it wherever it is stored or passed
//
// This is deliberately flow-insensitive: rather than proving a store
// happens after Release, it treats retention itself as the hazard and
// makes the sanctioned retainers (the pools, the scheduler's wire lane)
// annotate themselves. An annotation at every retention site is
// exactly the audit trail pooling discipline needs.
var Poolescape = &Analyzer{
	Name: "poolescape",
	Doc:  "flag stores of //meshvet:pooled values into fields, globals, channels, slices, composite literals, or closures",
	Run:  runPoolescape,
}

func runPoolescape(pass *Pass) {
	for _, f := range pass.Files {
		// Closure extents for capture attribution: each pooled-variable
		// use is charged to its innermost enclosing FuncLit, if any.
		var lits []*ast.FuncLit
		ast.Inspect(f, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				lits = append(lits, fl)
			}
			return true
		})

		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, rhs := range n.Rhs {
					name, pooled := pass.pooledType(pass.TypeOf(rhs))
					if !pooled {
						continue
					}
					switch lhs := n.Lhs[i].(type) {
					case *ast.SelectorExpr:
						pass.Reportf(n.Pos(),
							"pooled %s stored into field %s may outlive its Release; only annotated pool internals retain pooled values",
							name, lhs.Sel.Name)
					case *ast.IndexExpr:
						pass.Reportf(n.Pos(),
							"pooled %s stored into a slice/map element may outlive its Release", name)
					case *ast.Ident:
						if obj := pass.Info.ObjectOf(lhs); obj != nil && isPackageLevel(obj) {
							pass.Reportf(n.Pos(),
								"pooled %s stored into package-level %s outlives every Release", name, lhs.Name)
						}
					}
				}
			case *ast.SendStmt:
				if name, pooled := pass.pooledType(pass.TypeOf(n.Value)); pooled {
					pass.Reportf(n.Pos(),
						"pooled %s sent on a channel escapes its owner and may be read after Release", name)
				}
			case *ast.CallExpr:
				if !isBuiltinAppend(pass, n) {
					return true
				}
				for _, arg := range n.Args[1:] {
					if name, pooled := pass.pooledType(pass.TypeOf(arg)); pooled {
						pass.Reportf(n.Pos(),
							"pooled %s appended to a slice is retained past this call; only the owning pool's free list may do this (//meshvet:allow poolescape)",
							name)
					}
				}
			case *ast.CompositeLit:
				checkPooledLiteral(pass, n)
			case *ast.Ident:
				checkPooledCapture(pass, n, lits)
			}
			return true
		})
	}
}

// checkPooledLiteral reports each pooled value lit holds as a field,
// an element or a map key, keyed or positional.
func checkPooledLiteral(pass *Pass, lit *ast.CompositeLit) {
	t := pass.TypeOf(lit)
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem() // an element literal with its &T elided
	}
	st, isStruct := t.Underlying().(*types.Struct)
	_, isMap := t.Underlying().(*types.Map)
	for i, elt := range lit.Elts {
		where := "a slice/map element"
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if name, pooled := pass.pooledType(pass.TypeOf(kv.Key)); isMap && pooled {
				pass.Reportf(kv.Key.Pos(),
					"pooled %s stored as a map key of a composite literal may outlive its Release", name)
			}
			if id, ok := kv.Key.(*ast.Ident); ok && isStruct {
				where = "field " + id.Name
			}
			elt = kv.Value
		} else if isStruct {
			where = "field " + st.Field(i).Name()
		}
		if name, pooled := pass.pooledType(pass.TypeOf(elt)); pooled {
			pass.Reportf(elt.Pos(),
				"pooled %s stored into %s of a composite literal may outlive its Release", name, where)
		}
	}
}

// checkPooledCapture reports id if it is a use of a pooled-typed
// variable captured by a closure it was declared outside of.
func checkPooledCapture(pass *Pass, id *ast.Ident, lits []*ast.FuncLit) {
	obj, ok := pass.Info.Uses[id].(*types.Var)
	if !ok || obj.IsField() {
		return
	}
	name, pooled := pass.pooledType(obj.Type())
	if !pooled {
		return
	}
	var inner *ast.FuncLit
	for _, fl := range lits {
		if fl.Pos() <= id.Pos() && id.Pos() < fl.End() {
			if inner == nil || fl.Pos() > inner.Pos() {
				inner = fl
			}
		}
	}
	if inner == nil {
		return
	}
	if obj.Pos() >= inner.Pos() && obj.Pos() < inner.End() {
		return // declared inside the closure: not a capture
	}
	pass.Reportf(id.Pos(),
		"closure captures pooled %s %s; the closure may run after Release returns it to the pool", name, id.Name)
}

func isPackageLevel(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}
