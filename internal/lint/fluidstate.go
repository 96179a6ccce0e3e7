package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Fluidstate pins the PR 8 FlowEngine hygiene rules — the ones whose
// violation shows up as a wrong rate (stale scratch), a corrupted
// transfer (pooled flow read after free), or a silently stuck
// simulation (orphaned completion timer), none of which fail loudly:
//
//  1. Scratch ownership. The per-NIC fluid scratch fields (fluidRate,
//     fluidCap, fluidCnt, fluidSeen) are owned by FlowEngine's
//     recompute cycle: only FlowEngine methods may write them.
//  2. Reset on entering the scope. recompute re-shares one component,
//     not the fleet, so there is no whole-set reset to lean on: a NIC's
//     fluidRate, fluidCap and fluidCnt hold whatever the last fill that
//     reached it left there. In a FlowEngine method that fills (adds
//     to, subtracts from or counts in those three), every NIC entering
//     the scope is reset before the fill reads it: the first fill write
//     comes after a reset of all three (the seeds, which entered
//     before the method ran), and every fluidSeen = true sits in a
//     block that resets all three (the NICs the scope grows by). And
//     the scope flag is scratch too: the method clears fluidSeen after
//     its last mark and fill write and cannot return in between, so
//     the flag is false on every NIC when it returns. A method that
//     only marks (seeding the next scope) is not a fill and is left to
//     rule 1. A reset is fluidRate = 0, fluidCnt = 0 and any plain
//     assignment to fluidCap, whose reset value is the line rate.
//  3. No use after free. Once a fluid flow is handed to
//     FlowEngine.free it belongs to the pool; reading it afterwards
//     reads the next transfer's state. Capture what the continuation
//     needs (the callback, the id) before freeing. The check is
//     textual within the enclosing function, matching the engine's
//     straight-line free sites.
//  4. Cancel before re-arm. The engine's single completion timer may
//     only be replaced by a fresh timer after the pending one is
//     cancelled in the same function — an orphaned completion fires
//     into a recomputed flow set and completes the wrong flow. (This
//     is the demotion-path discipline: every demotion funnels through
//     a refresh that cancels before re-arming.)
//
// The analyzer applies inside meshlayer/internal/simnet (and the
// meshvet testdata packages); the types are matched by name there.
var Fluidstate = &Analyzer{
	Name: "fluidstate",
	Doc:  "FlowEngine hygiene: scratch reset on entering recompute's scope and scope flag cleared on return, no pooled-flow use after free, completion timer cancelled before re-arm",
	Run:  runFluidstate,
}

// fluidScratchFields are the per-NIC scratch fields owned by
// FlowEngine.recompute.
var fluidScratchFields = map[string]bool{
	"fluidRate": true,
	"fluidCap":  true,
	"fluidCnt":  true,
	"fluidSeen": true,
}

func fluidPkgAllowed(path string) bool {
	return path == "meshlayer/internal/simnet" || strings.HasPrefix(path, "meshvet/testdata/")
}

// fluidNamedIs reports whether t (behind pointers) is the named type
// `name` declared in a fluidstate-scoped package.
func fluidNamedIs(pass *Pass, t types.Type, name string) bool {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == name && obj.Pkg() != nil && fluidPkgAllowed(obj.Pkg().Path())
}

func runFluidstate(pass *Pass) {
	if !fluidPkgAllowed(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkFluidFunc(pass, fn)
			}
		}
	}
}

func checkFluidFunc(pass *Pass, fn *ast.FuncDecl) {
	isEngineMethod := fn.Recv != nil && len(fn.Recv.List) > 0 &&
		fluidNamedIs(pass, pass.TypeOf(fn.Recv.List[0].Type), "FlowEngine")

	// Rule 1 + 2: collect scratch writes. A write is a reset, a mark
	// (fluidSeen = true), a clear (fluidSeen = false) or a fill.
	var w fluidWrites
	noteWrite := func(field string, pos token.Pos, reset bool) {
		switch {
		case !isEngineMethod:
			pass.Reportf(pos,
				"NIC fluid scratch field %s written outside a FlowEngine method; the scratch is owned by the engine's recompute cycle", field)
		case field != "fluidSeen" && reset:
			w.resets = append(w.resets, fluidWrite{field, pos})
		case field != "fluidSeen":
			w.fills = append(w.fills, fluidWrite{field, pos})
		case reset:
			w.clears = append(w.clears, pos)
		default:
			w.marks = append(w.marks, pos)
		}
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			w.blocks = append(w.blocks, n)
		case *ast.ReturnStmt:
			w.returns = append(w.returns, n.Pos())
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				field, ok := fluidScratchTarget(pass, lhs)
				if !ok {
					continue
				}
				reset := false
				if len(n.Lhs) == len(n.Rhs) && n.Tok == token.ASSIGN {
					reset = field == "fluidCap" || isZeroExpr(n.Rhs[i])
				}
				noteWrite(field, lhs.Pos(), reset)
			}
			checkFluidTimerArm(pass, fn, n)
		case *ast.IncDecStmt:
			if field, ok := fluidScratchTarget(pass, n.X); ok {
				noteWrite(field, n.X.Pos(), false)
			}
		}
		return true
	})
	w.checkScope(pass)

	checkFluidUseAfterFree(pass, fn)
}

// fluidFillFields are the three scratch fields progressive filling
// computes in; fluidSeen, the fourth, is the scope flag.
var fluidFillFields = []string{"fluidRate", "fluidCap", "fluidCnt"}

type fluidWrite struct {
	field string
	pos   token.Pos
}

// fluidWrites is what rule 2 needs to know about one FlowEngine
// method: its scratch writes by kind, and the blocks and returns they
// are positioned against.
type fluidWrites struct {
	resets, fills []fluidWrite
	marks, clears []token.Pos
	returns       []token.Pos
	blocks        []*ast.BlockStmt
}

// checkScope enforces rule 2 on a method that fills.
func (w *fluidWrites) checkScope(pass *Pass) {
	if len(w.fills) == 0 {
		return
	}
	first, last := w.fills[0], w.fills[0].pos
	for _, f := range w.fills {
		if f.pos < first.pos {
			first = f
		}
		if f.pos > last {
			last = f.pos
		}
	}
	for _, m := range w.marks {
		if m > last {
			last = m
		}
	}

	// The seeds: all three reset before the first fill write.
	for _, field := range fluidFillFields {
		if !w.resetIn(field, token.NoPos, first.pos) {
			pass.Reportf(first.pos,
				"fluid scratch fill (%s) before %s is reset; a NIC entering the scope holds what the last fill that reached it left there",
				first.field, field)
		}
	}
	// The NICs the scope grows by: all three reset where the NIC is marked.
	for _, m := range w.marks {
		b := w.innermostBlock(m)
		for _, field := range fluidFillFields {
			if !w.resetIn(field, b.Pos(), b.End()) {
				pass.Reportf(m,
					"NIC enters the scope (fluidSeen = true) without resetting %s in the same block; the fill would read the last fill's value",
					field)
			}
		}
	}
	// The flag: cleared after the last mark and fill, no return before.
	cleared := token.NoPos
	for _, c := range w.clears {
		if c > last && (cleared == token.NoPos || c < cleared) {
			cleared = c
		}
	}
	if cleared == token.NoPos {
		pass.Reportf(last,
			"fluidSeen is not cleared after the last scope write; the scope flag must be false on every NIC when the method returns")
		return
	}
	start := first.pos
	for _, m := range w.marks {
		if m < start {
			start = m
		}
	}
	for _, r := range w.returns {
		if r > start && r < cleared {
			pass.Reportf(r,
				"return between the first scope write and the fluidSeen clear; the scope flag must be false on every NIC when the method returns")
		}
	}
}

// resetIn reports whether field is reset at a position in [from, to).
func (w *fluidWrites) resetIn(field string, from, to token.Pos) bool {
	for _, r := range w.resets {
		if r.field == field && r.pos >= from && r.pos < to {
			return true
		}
	}
	return false
}

func (w *fluidWrites) innermostBlock(pos token.Pos) *ast.BlockStmt {
	var in *ast.BlockStmt
	for _, b := range w.blocks {
		if b.Pos() <= pos && pos < b.End() && (in == nil || b.Pos() > in.Pos()) {
			in = b
		}
	}
	return in
}

// fluidScratchTarget reports whether expr writes a fluid scratch field
// of a NIC, returning the field name.
func fluidScratchTarget(pass *Pass, expr ast.Expr) (string, bool) {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok || !fluidScratchFields[sel.Sel.Name] {
		return "", false
	}
	if !fluidNamedIs(pass, pass.TypeOf(sel.X), "NIC") {
		return "", false
	}
	return sel.Sel.Name, true
}

// isZeroExpr recognizes the zero values the reset idiom uses: 0, 0.0,
// false, and nil.
func isZeroExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		return e.Value == "0" || e.Value == "0.0"
	case *ast.Ident:
		return e.Name == "false" || e.Name == "nil"
	}
	return false
}

// checkFluidTimerArm enforces rule 4 on one assignment: replacing the
// engine's completion timer with a freshly scheduled one requires a
// textually earlier <recv>.timer.Cancel() in the same function.
// Assigning the zero Timer (a composite literal) is the "consumed"
// marker and is always allowed.
func checkFluidTimerArm(pass *Pass, fn *ast.FuncDecl, n *ast.AssignStmt) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, lhs := range n.Lhs {
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "timer" || !fluidNamedIs(pass, pass.TypeOf(sel.X), "FlowEngine") {
			continue
		}
		if _, isLit := n.Rhs[i].(*ast.CompositeLit); isLit {
			continue
		}
		if !cancelledBefore(pass, fn, types.ExprString(sel), lhs.Pos()) {
			pass.Reportf(lhs.Pos(),
				"completion timer %s re-armed without cancelling the pending timer first; an orphaned completion fires into a recomputed flow set",
				types.ExprString(sel))
		}
	}
}

// cancelledBefore reports whether fn contains a call <target>.Cancel()
// at a position before pos.
func cancelledBefore(pass *Pass, fn *ast.FuncDecl, target string, pos token.Pos) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= pos {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Cancel" {
			return true
		}
		if types.ExprString(sel.X) == target {
			found = true
		}
		return true
	})
	return found
}

// checkFluidUseAfterFree enforces rule 3: after a variable is passed to
// FlowEngine.free, later uses of it in the same function are flagged,
// until (if ever) the variable is wholly reassigned.
func checkFluidUseAfterFree(pass *Pass, fn *ast.FuncDecl) {
	// freed maps a variable object to the end position of its free call.
	freed := map[types.Object]token.Pos{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "free" || !fluidNamedIs(pass, pass.TypeOf(sel.X), "FlowEngine") {
			return true
		}
		if id, ok := call.Args[0].(*ast.Ident); ok {
			if obj := pass.Info.ObjectOf(id); obj != nil {
				if old, dup := freed[obj]; !dup || call.End() < old {
					freed[obj] = call.End()
				}
			}
		}
		return true
	})
	if len(freed) == 0 {
		return
	}

	// A whole-variable reassignment re-validates the handle from that
	// point on.
	revalidated := map[types.Object]token.Pos{}
	reassigned := map[*ast.Ident]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.Info.ObjectOf(id)
			if obj == nil {
				continue
			}
			if end, wasFreed := freed[obj]; wasFreed && id.Pos() > end {
				reassigned[id] = true
				if old, ok := revalidated[obj]; !ok || id.Pos() < old {
					revalidated[obj] = id.Pos()
				}
			}
		}
		return true
	})

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || reassigned[id] {
			return true
		}
		obj := pass.Info.ObjectOf(id)
		if obj == nil {
			return true
		}
		end, wasFreed := freed[obj]
		if !wasFreed || id.Pos() <= end {
			return true
		}
		if rev, ok := revalidated[obj]; ok && id.Pos() > rev {
			return true
		}
		pass.Reportf(id.Pos(),
			"pooled flow %s used after FlowEngine.free returned it to the pool; capture what the continuation needs before freeing", id.Name)
		return true
	})
}
