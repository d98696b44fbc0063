// Package lint implements the repo's custom Go-level static analyzers on a
// minimal, dependency-free reimplementation of the golang.org/x/tools
// go/analysis surface (Analyzer / Pass / Reportf). The container build
// vendors no third-party modules, so the framework is stdlib-only
// (go/ast + go/parser + go/token + go/types + go/importer); cmd/vetals
// drives it both standalone and through the `go vet -vettool` unitchecker
// protocol.
//
// Since PR 6 the framework is type-aware: packages are loaded with full
// go/types information (see Loader), and Pass carries TypesInfo/Pkg so
// analyzers can resolve methods, named types and package-level objects
// instead of pattern-matching identifiers.
//
// Eight analyzers enforce repo invariants:
//
//   - bitveclen:     every bitvec.Vec method that takes another *Vec must
//     guard against length mismatch before touching word slices.
//   - randseed:      library packages must not draw from the global
//     math/rand source.
//   - apipanic:      the public (non-internal, non-main) API must not
//     panic.
//   - ctxflow:       a function that receives a context.Context and
//     dispatches pool work must use DoCtx and pass the context on, never
//     drop it.
//   - sharddisjoint: code iterating a par.Shards shard must index word
//     slices only through that shard's [W0,W1) range.
//   - invalidation:  writers of core.CPM rows (either form's) must
//     invalidate the lazy caches; core.Engine state must be mutated
//     through Apply.
//   - allocfree:     functions annotated //als:allocfree must not contain
//     heap-allocating constructs (unless acknowledged by //als:alloc-ok).
//   - errwrap:       sentinel errors must be wrapped with %w and compared
//     with errors.Is, never ==.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named check, mirroring go/analysis.Analyzer.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one package's syntax and type information through an
// analyzer, mirroring go/analysis.Pass. TypesInfo and Pkg are nil when the
// unit was loaded without type information (syntax-only mode); analyzers
// that need types must no-op in that case.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	PkgPath  string // import path ("batchals/internal/bitvec")
	PkgName  string // package identifier ("bitvec")
	Files    []*ast.File

	// Pkg and TypesInfo are the go/types results for the unit the files
	// belong to. For test units the type-check covers more files than
	// Files (the whole augmented package), but diagnostics are only
	// reported against Files.
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic

	commentIndex map[string]map[int]string // filename -> line -> comment text
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders "file:line:col: message [analyzer]".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// All returns the repo's analyzers in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		BitvecLen, RandSeed, APIPanic,
		CtxFlow, ShardDisjoint, Invalidation, AllocFree, ErrWrap,
	}
}

// Unit is one analyzable package variant: the base package of a directory,
// its in-package test files (typed against the augmented package), or its
// external _test package. Files lists the files diagnostics are reported
// on; Pkg/Info may cover more files (the augmented type-check).
type Unit struct {
	Fset    *token.FileSet
	PkgPath string
	PkgName string
	Files   []*ast.File

	Pkg  *types.Package
	Info *types.Info

	// TypeErrors collects the go/types errors of the unit's type-check;
	// a non-empty list means Pkg/Info are incomplete.
	TypeErrors []error
}

// RunUnit applies the analyzers to one loaded unit and returns the
// combined diagnostics.
func RunUnit(u *Unit, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      u.Fset,
			PkgPath:   u.PkgPath,
			PkgName:   u.PkgName,
			Files:     u.Files,
			Pkg:       u.Pkg,
			TypesInfo: u.Info,
			diags:     &diags,
		}
		a.Run(pass)
	}
	return diags
}

// Run applies the analyzers to one parsed package without type information
// and returns the combined diagnostics in source order. Type-aware
// analyzers no-op; this is the legacy syntax-only entry point kept for the
// unitchecker fallback and the package's own unit tests.
func Run(fset *token.FileSet, pkgPath, pkgName string, files []*ast.File, analyzers []*Analyzer) []Diagnostic {
	return RunUnit(&Unit{
		Fset:    fset,
		PkgPath: pkgPath,
		PkgName: pkgName,
		Files:   files,
	}, analyzers)
}

// isTestFile reports whether the file position sits in a _test.go file.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// importedAs returns the local identifier under which file f imports path,
// or "" when the path is not imported (or imported blank/dot).
func importedAs(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != path {
			continue
		}
		if imp.Name != nil {
			switch imp.Name.Name {
			case "_", ".":
				return ""
			}
			return imp.Name.Name
		}
		// Default name: last path element.
		if i := strings.LastIndex(p, "/"); i >= 0 {
			return p[i+1:]
		}
		return p
	}
	return ""
}
