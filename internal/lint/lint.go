// Package lint is meshvet's analysis framework: a small, stdlib-only
// reimplementation of the golang.org/x/tools/go/analysis surface
// (Analyzer, Pass, positional diagnostics) plus the loader and comment
// directives the suite needs. It exists because this module takes no
// external dependencies; the five analyzers it hosts turn the
// simulator's determinism, pooling, and concurrency invariants — held
// by convention since PRs 2–3 — into machine-checked law.
//
// Invariants enforced (see DESIGN.md "Machine-checked invariants"):
//
//   - walltime:   sim code never reads the wall clock (time.Now & co).
//   - globalrand: sim code never draws from process-global randomness.
//   - mapiter:    no order-dependent work inside `range` over a map.
//   - poolescape: pooled values (//meshvet:pooled) are not retained
//     beyond their Release/free point.
//   - indexowned: runIndexed workers write only slots owned by their
//     index parameter.
//   - ctlwrite:   sidecar routing state is mutated only through the
//     control-plane push path.
//   - headerreg:  every x-mesh-* header string is a constant in the
//     header registry (internal/mesh/headers.go) and is referenced
//     through it.
//   - fluidstate: FlowEngine hygiene — per-NIC fluid scratch reset as a
//     NIC enters recompute's scope and the scope flag cleared on return,
//     no use of a pooled flow after free, completion timer cancelled
//     before re-arm.
//   - metricdecl: metric names are named constants at registration
//     sites, follow the naming convention, and register as one kind.
//   - timerown:   a captured simnet.Timer is cancelled somewhere or
//     handed to exactly one owner.
//
// Since PR 9 the framework also carries cross-package facts (facts.go):
// analyzers export facts about declarations ("this const is a
// registered mesh header", "this const names a counter"), and the same
// analyzer imports them when it later runs on a dependent package. Run
// processes packages in dependency order and the loader type-checks
// each module-local package exactly once, so a types.Object is the one
// identity for a declaration everywhere it is referenced.
//
// Two comment directives configure the suite in source:
//
//	//meshvet:allow <analyzer> <reason>   suppress, with justification,
//	                                      on this line and the next
//	//meshvet:pooled                      mark a type as pool-recycled
//
// Malformed directives (unknown verb or analyzer, missing reason,
// //meshvet:pooled detached from a type declaration) are themselves
// reported as diagnostics rather than silently ignored.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named check. Run inspects a single type-checked
// package via its Pass and reports findings with Pass.Reportf.
type Analyzer struct {
	Name string // short lowercase identifier, used in //meshvet:allow
	Doc  string // one-paragraph description of the invariant
	Run  func(*Pass)
}

// All is the registry of every meshvet analyzer, in reporting order.
// Directive validation accepts exactly these names (plus the reserved
// "directive" pseudo-analyzer used for malformed-directive reports).
var All = []*Analyzer{Walltime, Globalrand, Mapiter, Poolescape, Indexowned, Ctlwrite, Headerreg, Fluidstate, Metricdecl, Timerown}

// DirectiveAnalyzerName labels diagnostics produced by directive
// validation itself. It is reserved: //meshvet:allow cannot suppress it.
const DirectiveAnalyzerName = "directive"

func knownAnalyzer(name string) bool {
	for _, a := range All {
		if a.Name == name {
			return true
		}
	}
	return false
}

// Pass carries one package's syntax and type information to an
// analyzer, mirroring analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	store *factStore
	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos attributed to the running
// analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportfFix records a diagnostic carrying a machine-applicable
// suggested edit: replace source bytes [pos, end) with newText. The
// offsets in the fix are resolved file offsets, so `meshvet -fix` (and
// any -json consumer) can apply it without re-parsing.
func (p *Pass) ReportfFix(pos, end token.Pos, newText string, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Fix: &SuggestedFix{
			Start:   p.Fset.Position(pos),
			End:     p.Fset.Position(end),
			NewText: newText,
		},
	})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if t, ok := p.Info.Types[e]; ok {
		return t.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// SuggestedFix is a machine-applicable edit: replace the source bytes
// from Start.Offset to End.Offset with NewText.
type SuggestedFix struct {
	Start   token.Position
	End     token.Position
	NewText string
}

// Diagnostic is one finding at a resolved source position, optionally
// carrying a suggested edit.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	Fix      *SuggestedFix
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// pooledType reports whether t (possibly behind pointers) is a named
// type marked //meshvet:pooled, returning its display name. The
// marking travels as a framework fact in the reserved "pooled"
// namespace, so cross-package retention (e.g. mesh code holding a
// simnet.Packet) resolves through object identity.
func (p *Pass) pooledType(t types.Type) (string, bool) {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if p.store.get(pooledNS, obj, (*PooledFact)(nil)) != nil {
		return obj.Name(), true
	}
	return "", false
}
