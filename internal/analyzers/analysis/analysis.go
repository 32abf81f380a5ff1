// Package analysis is the minimal in-repo counterpart of
// golang.org/x/tools/go/analysis: just enough Analyzer/Pass surface for
// the asbestosvet suite (cmd/asbestosvet) and its drivers. The repo bakes
// in no third-party modules, so the contract the x/tools ecosystem
// standardizes — an Analyzer with a Run function over a type-checked
// package, reporting position-anchored diagnostics — is restated here in
// ~100 lines and kept source-compatible enough that the analyzers could
// be ported to the real package by changing one import.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name is the analyzer's command-line and diagnostic tag; it must be a
	// valid Go identifier.
	Name string
	// Doc is the help text: first line is the one-line summary, the rest
	// states the enforced contract and names its escape hatches.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// Pass is the analysis of a single package: parsed syntax, type
// information, and a diagnostic sink.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic; drivers install it.
	Report func(Diagnostic)
}

// Diagnostic is a position-anchored finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// InTestFile reports whether pos lies in a _test.go file. The asbestosvet
// contracts bind production code; tests exercise deliberate violations
// (unpaired ⋆ grants, Background receives under a test deadline) and are
// exempt wholesale.
func (p *Pass) InTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// KernelType reports whether t (after stripping pointers) is the named
// kernel type, matching by package-path suffix so the check works
// identically against the real tree ("asbestos/internal/kernel") and the
// analysistest stubs mirroring it.
func KernelType(t types.Type, name string) bool {
	return pathType(t, "internal/kernel", name)
}

// LabelType is KernelType for asbestos/internal/label.
func LabelType(t types.Type, name string) bool {
	return pathType(t, "internal/label", name)
}

func pathType(t types.Type, pathSuffix, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Name() != name {
		return false
	}
	return strings.HasSuffix(obj.Pkg().Path(), pathSuffix)
}

// PkgFunc reports whether the call's callee is the package-level function
// pkgSuffix.name (e.g. "internal/kernel".Grant), resolved through the type
// info so aliases and qualified imports are all handled.
func PkgFunc(info *types.Info, call *ast.CallExpr, pkgSuffix, name string) bool {
	fn := Callee(info, call)
	return fn != nil && fn.Name() == name && fn.Pkg() != nil &&
		strings.HasSuffix(fn.Pkg().Path(), pkgSuffix) && !IsMethod(fn)
}

// Callee resolves the static callee of a call, or nil for dynamic calls
// (func values) and conversions.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[f]
	case *ast.SelectorExpr:
		if sel := info.Selections[f]; sel != nil {
			obj = sel.Obj()
		} else {
			obj = info.Uses[f.Sel] // package-qualified
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// IsMethod reports whether fn has a receiver.
func IsMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// MethodOn reports whether call invokes a method with the given name whose
// receiver type (pointer-stripped) is pkgSuffix.typeName.
func MethodOn(info *types.Info, call *ast.CallExpr, pkgSuffix, typeName, name string) bool {
	fn := Callee(info, call)
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return pathType(sig.Recv().Type(), pkgSuffix, typeName)
}
