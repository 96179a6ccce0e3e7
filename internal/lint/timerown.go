package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Timerown pins the PR 7 stuck-pipe bug class: a simnet.Timer that
// somebody captured and then lost track of. The east-west gateway
// wedge happened exactly this way — a timeout timer armed per forward
// and forgotten on one path, leaving the pipe stuck behind a
// partitioned peer. The rule, applied to the timer-heavy packages
// (internal/mesh, internal/transport, internal/ctrlplane):
//
//   - Discarding the Timer result of Scheduler.After/At is the
//     explicit fire-and-forget form: the callback must guard itself
//     (the settled/done flag idiom). Allowed.
//   - A Timer captured into a local must be cancellable: the enclosing
//     function must cancel it on some path, store it into exactly one
//     struct field (transferring ownership), or return it to the
//     caller. A captured-but-never-cancelled timer is a leak waiting
//     to fire; a timer stored into two fields has two owners racing to
//     cancel it.
//   - A Timer assigned directly into a struct field must be preceded,
//     in the same function, by Cancel on that same field: re-arming
//     over a possibly-pending timer orphans it. Cancel of a zero or
//     already-fired Timer is a free no-op, so the discipline costs
//     nothing where the field was empty.
//   - Scheduler.Rearm cancels its first argument itself (or re-arms
//     that very event in place), so x.f = sched.Rearm(x.f, …) is an
//     owning re-arm and needs no Cancel before it. A Rearm assigned to
//     anything but its first argument hands one event to two owners.
var Timerown = &Analyzer{
	Name: "timerown",
	Doc:  "captured simnet.Timer values are cancelled, stored into exactly one owning field (after cancelling it), or returned",
	Run:  runTimerown,
}

func timerownPkgAllowed(path string) bool {
	switch path {
	case "meshlayer/internal/mesh", "meshlayer/internal/transport", "meshlayer/internal/ctrlplane":
		return true
	}
	return strings.HasPrefix(path, "meshvet/testdata/")
}

// isSimTimer reports whether t is the simnet.Timer type (or a
// testdata package's own Timer, for the analyzer's test suite).
func isSimTimer(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Name() != "Timer" || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == "meshlayer/internal/simnet" || strings.HasPrefix(path, "meshvet/testdata/")
}

func runTimerown(pass *Pass) {
	if !timerownPkgAllowed(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkTimerFunc(pass, fn)
			}
		}
	}
}

func checkTimerFunc(pass *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isSimTimer(pass.TypeOf(call)) {
				continue
			}
			if from, ok := rearmOf(call); ok {
				if !checkTimerRearm(pass, as.Lhs[i], from) {
					continue
				}
				if _, local := as.Lhs[i].(*ast.Ident); !local {
					continue // an owning field re-arm: Rearm did the Cancel
				}
			}
			switch lhs := as.Lhs[i].(type) {
			case *ast.SelectorExpr:
				checkTimerFieldArm(pass, fn, lhs)
			case *ast.Ident:
				checkTimerLocal(pass, fn, lhs)
			}
		}
		return true
	})
}

// rearmOf returns the timer a <sched>.Rearm(t, at, fn) call re-arms.
func rearmOf(call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Rearm" || len(call.Args) == 0 {
		return nil, false
	}
	return call.Args[0], true
}

// checkTimerRearm enforces that a Rearm's result goes back where its
// timer came from: the event it returns may be the very one its first
// argument still names, so storing it anywhere else makes two owners.
func checkTimerRearm(pass *Pass, lhs, from ast.Expr) bool {
	to, was := types.ExprString(lhs), types.ExprString(from)
	if to == was {
		return true
	}
	pass.Reportf(lhs.Pos(),
		"timer re-armed from %s into %s; the event may still be %s's, making two owners — assign Rearm's result to the timer it re-arms",
		was, to, was)
	return false
}

// checkTimerFieldArm enforces cancel-before-re-arm on a direct field
// assignment.
func checkTimerFieldArm(pass *Pass, fn *ast.FuncDecl, lhs *ast.SelectorExpr) {
	if cancelledBefore(pass, fn, types.ExprString(lhs), lhs.Pos()) {
		return
	}
	pass.Reportf(lhs.Pos(),
		"timer armed into %s without first cancelling it; a pending timer would be orphaned — call %s.Cancel() before re-arming (a no-op when empty)",
		types.ExprString(lhs), types.ExprString(lhs))
}

// checkTimerLocal enforces the ownership rule on a timer captured into
// a local variable.
func checkTimerLocal(pass *Pass, fn *ast.FuncDecl, lhs *ast.Ident) {
	obj := pass.Info.ObjectOf(lhs)
	if obj == nil {
		return
	}
	cancelled := false
	returned := false
	fieldStores := map[string]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// <local>.Cancel()
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Cancel" {
				if id, ok := sel.X.(*ast.Ident); ok && pass.Info.ObjectOf(id) == obj {
					cancelled = true
				}
			}
		case *ast.AssignStmt:
			// field = <local>
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				id, ok := rhs.(*ast.Ident)
				if !ok || pass.Info.ObjectOf(id) != obj {
					continue
				}
				if sel, ok := n.Lhs[i].(*ast.SelectorExpr); ok {
					fieldStores[types.ExprString(sel)] = true
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if id, ok := res.(*ast.Ident); ok && pass.Info.ObjectOf(id) == obj {
					returned = true
				}
			}
		}
		return true
	})
	if len(fieldStores) > 1 {
		owners := make([]string, 0, len(fieldStores))
		for o := range fieldStores {
			owners = append(owners, o)
		}
		sort.Strings(owners)
		pass.Reportf(lhs.Pos(),
			"timer %s stored into %d fields (%s); exactly one owner may hold (and cancel) a timer",
			lhs.Name, len(owners), strings.Join(owners, ", "))
		return
	}
	if cancelled || returned || len(fieldStores) == 1 {
		return
	}
	pass.Reportf(lhs.Pos(),
		"timer %s is captured but never cancelled, stored into an owning field, or returned; drop the result for fire-and-forget, or cancel it on every settling path",
		lhs.Name)
}
