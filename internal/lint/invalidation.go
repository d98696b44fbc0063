package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Invalidation enforces the cache-coherence contract of the incremental
// engine. Two invariants, one per layer:
//
//   - Engine: the exported Net/Vals/St fields are read-freely,
//     mutate-through-Apply (engine.go's documented contract). Any direct
//     assignment to them outside package core is flagged.
//   - CPM: the propagation rows feed two lazy caches (the exactness
//     certificate, the AEM column memo). The rows are p in both forms,
//     plus, in the ER form, the per-output rows at the wrong patterns
//     (the cur and prev slices), whose lazy state is the certificate. A
//     function that writes p, cur or prev of a CPM it did not just
//     construct must drop those caches in the same body — the
//     paired-call pattern Refresh implements (cert.Store(nil) /
//     aemFor = nil) — or call Refresh or refreshRows, which do, on the
//     same CPM. A row write without that evidence means queries can read
//     stale cache entries against fresh rows.
//
// Constructors (Build, BuildParallel, BuildER) define the receiver
// locally — a fresh CPM has empty caches, so they pass without
// special-casing. A finding on a line carrying //als:invalidate-ok is an
// acknowledged exception.
var Invalidation = &Analyzer{
	Name: "invalidation",
	Doc:  "CPM row writers must invalidate lazy caches; Engine state mutates through Apply",
	Run:  runInvalidation,
}

func runInvalidation(p *Pass) {
	if p.TypesInfo == nil {
		return
	}
	const corePath = "batchals/internal/core"
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if p.PkgPath != corePath {
				p.checkEngineWrites(fn.Body)
			}
			p.checkCPMRowWrites(fn)
		}
	}
}

// checkEngineWrites flags direct assignments to Engine.Net/Vals/St from
// outside package core.
func (p *Pass) checkEngineWrites(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			switch sel.Sel.Name {
			case "Net", "Vals", "St":
			default:
				continue
			}
			if !isNamed(p.typeOf(sel.X), "batchals/internal/core", "Engine") {
				continue
			}
			if p.suppressed(as.Pos(), "als:invalidate-ok") {
				continue
			}
			p.Reportf(as.Pos(), "direct write to Engine.%s; route mutation through Engine.Apply so caches and golden state stay coherent", sel.Sel.Name)
		}
		return true
	})
}

// checkCPMRowWrites enforces the paired-call pattern on writes to the
// CPM's rows (p, cur, prev).
func (p *Pass) checkCPMRowWrites(fn *ast.FuncDecl) {
	var writes []*ast.AssignStmt // statements writing some CPM's p field
	var writeBases []types.Object
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if base := p.cpmRowTarget(lhs); base != nil {
				writes = append(writes, as)
				writeBases = append(writeBases, base)
				break // one finding per statement
			}
		}
		return true
	})
	if len(writes) == 0 {
		return
	}
	for i, as := range writes {
		base := writeBases[i]
		if p.locallyConstructedCPM(fn.Body, base) {
			continue
		}
		if p.invalidatesCaches(fn.Body, base) {
			continue
		}
		if p.suppressed(as.Pos(), "als:invalidate-ok") {
			continue
		}
		p.Reportf(as.Pos(), "write to CPM propagation rows without invalidating the lazy caches in this function; drop cert/aemFor or route through Refresh")
	}
}

// cpmRowTarget reports whether lhs writes (directly or through indexing)
// a row field of a core.CPM — p, or the ER form's cur and prev — returning
// the base object of the receiver chain, or nil.
func (p *Pass) cpmRowTarget(lhs ast.Expr) types.Object {
	e := ast.Unparen(lhs)
	for {
		ix, ok := e.(*ast.IndexExpr)
		if !ok {
			break
		}
		e = ast.Unparen(ix.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	switch sel.Sel.Name {
	case "p", "cur", "prev":
	default:
		return nil
	}
	if !isNamed(p.typeOf(sel.X), "batchals/internal/core", "CPM") {
		return nil
	}
	return p.chainBase(sel.X)
}

// chainBase resolves the root identifier's object of a selector/index
// chain (c.p[id] -> object of c), or nil.
func (p *Pass) chainBase(e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return p.objectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// locallyConstructedCPM reports whether base is defined in this body by a
// short variable declaration whose value is a fresh CPM (composite
// literal or constructor call) — fresh CPMs have empty caches.
func (p *Pass) locallyConstructedCPM(body *ast.BlockStmt, base types.Object) bool {
	if base == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if ok && p.objectOf(id) == base {
				found = true
			}
		}
		return true
	})
	return found
}

// invalidatesCaches reports whether the body contains cache-invalidation
// evidence for the CPM: a cert.Store call, an aemFor reset, or a Refresh
// or refreshRows call.
func (p *Pass) invalidatesCaches(body *ast.BlockStmt, base types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Store":
				// cert.Store(nil) on the same CPM.
				if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
					if p.chainBase(inner) == base {
						found = true
					}
				}
			case "Refresh", "refreshRows":
				if isNamed(p.typeOf(sel.X), "batchals/internal/core", "CPM") && p.chainBase(sel.X) == base {
					found = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if ok && sel.Sel.Name == "aemFor" && p.chainBase(sel.X) == base {
					found = true
				}
			}
		}
		return true
	})
	return found
}
