package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Ctlwrite enforces the PR 6 control-plane invariant: with distribution
// enabled, a sidecar routes on the snapshot the control plane pushed to
// it, so the only code allowed to mutate that routing state is the push
// path itself (ControlPlane setters staging updates, the distributor
// applying acknowledged pushes). A direct write anywhere else —
// poking a ControlPlane policy map, swapping a Sidecar's agent,
// editing a pushed Snapshot in place — silently desynchronizes a
// sidecar from the version-numbered state the server believes it has,
// which is exactly the bug class the versioned protocol exists to
// rule out.
//
// Protected state: fields of ControlPlane, servicePolicy (an entry of
// the control plane's one policy store — instant-mode sidecars read it
// live and pushed snapshots share its pointers, so a stray write would
// change what sidecars enforce without a version bump), sidecarAgent,
// Snapshot, and ewSummaryTable (PR 7: a regional control plane's
// learned view of peer-region capacity — the east-west routing state
// the failover ladder spills onto, mutable only through the summary
// push path), plus the Sidecar.ctrl agent pointer, plus the elements of
// a resourceSet (one server version's resources, which every Snapshot
// at that version shares, so only the Server building it may fill it —
// a write from a Snapshot method would change every subscriber at that
// version at once). Methods of the owning type may mutate it (that is
// the push path); everyone else needs a //meshvet:allow ctlwrite with
// justification — e.g. instant-propagation registration installing the
// bootstrap snapshot.
var Ctlwrite = &Analyzer{
	Name: "ctlwrite",
	Doc:  "flag direct mutation of sidecar routing state outside the control-plane push path",
	Run:  runCtlwrite,
}

// ctlProtectedTypes maps each type whose fields or elements form the
// distributed routing state to the receiver type whose methods may
// write it: the type itself, except servicePolicy, which belongs to
// the ControlPlane whose setters edit it, and resourceSet, which
// belongs to the Server that builds one per version.
var ctlProtectedTypes = map[string]string{
	"ControlPlane":   "ControlPlane",
	"servicePolicy":  "ControlPlane",
	"sidecarAgent":   "sidecarAgent",
	"Snapshot":       "Snapshot",
	"ewSummaryTable": "ewSummaryTable",
	"resourceSet":    "Server",
}

// ctlPkgAllowed limits name matching to the packages that actually
// define the protected state, so an unrelated type that happens to be
// called Snapshot elsewhere is not caught.
func ctlPkgAllowed(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == "meshlayer/internal/mesh" ||
		path == "meshlayer/internal/ctrlplane" ||
		strings.HasPrefix(path, "meshvet/testdata/")
}

// ctlNamed unwraps pointers and returns the underlying named type.
func ctlNamed(t types.Type) (*types.Named, bool) {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}

// ctlProtected reports whether e is a value of a protected type that
// methods on recv may not write, and names the type.
func ctlProtected(pass *Pass, e ast.Expr, recv string) (string, bool) {
	named, ok := ctlNamed(pass.TypeOf(e))
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj == nil || !ctlPkgAllowed(obj.Pkg()) {
		return "", false
	}
	owner, protected := ctlProtectedTypes[obj.Name()]
	return obj.Name(), protected && owner != recv
}

func runCtlwrite(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok {
				checkCtlFunc(pass, fn)
			}
		}
	}
}

// checkCtlFunc inspects one top-level function. Closures inside it
// attribute to it: a helper closure inside a ControlPlane method is
// still the push path.
func checkCtlFunc(pass *Pass, fn *ast.FuncDecl) {
	recv := ""
	if fn.Recv != nil && len(fn.Recv.List) > 0 {
		if named, ok := ctlNamed(pass.TypeOf(fn.Recv.List[0].Type)); ok && named.Obj() != nil {
			recv = named.Obj().Name()
		}
	}
	if fn.Body == nil {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkCtlWrite(pass, recv, n, lhs)
			}
		case *ast.IncDecStmt:
			checkCtlWrite(pass, recv, n, n.X)
		case *ast.CallExpr:
			// delete(m, k) and clear(m) write m's elements, as m[k] = v does.
			if id, ok := n.Fun.(*ast.Ident); ok && (id.Name == "delete" || id.Name == "clear") && len(n.Args) > 0 {
				if _, builtin := pass.Info.Uses[id].(*types.Builtin); builtin {
					checkCtlWrite(pass, recv, n, &ast.IndexExpr{X: n.Args[0]})
				}
			}
		}
		return true
	})
}

// checkCtlWrite walks the written expression root-wards. A write lands
// in protected state when any step dereferences into a protected type
// (sel.field, ptr deref, an index into a value of a protected type, or
// an index into a protected container field).
func checkCtlWrite(pass *Pass, recv string, n ast.Node, target ast.Expr) {
	for {
		switch t := target.(type) {
		case *ast.ParenExpr:
			target = t.X
		case *ast.IndexExpr:
			if name, ok := ctlProtected(pass, t.X, recv); ok {
				reportCtl(pass, n, name)
				return
			}
			target = t.X
		case *ast.StarExpr:
			if name, ok := ctlProtected(pass, t.X, recv); ok {
				reportCtl(pass, n, name)
				return
			}
			target = t.X
		case *ast.SelectorExpr:
			if name, ok := ctlProtected(pass, t.X, recv); ok {
				reportCtl(pass, n, name)
				return
			}
			if named, ok := ctlNamed(pass.TypeOf(t.X)); ok && named.Obj() != nil &&
				named.Obj().Name() == "Sidecar" && t.Sel.Name == "ctrl" &&
				ctlPkgAllowed(named.Obj().Pkg()) {
				reportCtl(pass, n, "Sidecar.ctrl")
				return
			}
			target = t.X
		default:
			return
		}
	}
}

func reportCtl(pass *Pass, n ast.Node, name string) {
	pass.Reportf(n.Pos(),
		"direct write to %s routing state bypasses the control-plane push path; mutate via ControlPlane setters so the change is versioned and pushed (//meshvet:allow ctlwrite <reason> for sanctioned sites)",
		name)
}
