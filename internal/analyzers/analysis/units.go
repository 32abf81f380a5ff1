package analysis

import (
	"go/ast"
	"go/types"
)

// FuncUnit is one function body to analyze independently: a FuncDecl's or
// FuncLit's. Closures are separate units — an obligation acquired inside a
// closure must be discharged inside it (the closure may run on another
// goroutine or never), so the walkers never look across the FuncLit
// boundary in either direction.
type FuncUnit struct {
	// Decl is the declaration when the unit is a named function, nil for
	// closures; Lit the reverse.
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	Body *ast.BlockStmt
}

// FuncUnits lists every function body in the file: declarations first,
// then each closure (at any nesting depth) as its own unit.
func FuncUnits(file *ast.File) []FuncUnit {
	var units []FuncUnit
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				units = append(units, FuncUnit{Decl: n, Body: n.Body})
			}
		case *ast.FuncLit:
			units = append(units, FuncUnit{Lit: n, Body: n.Body})
		}
		return true
	})
	return units
}

// InspectUnit walks body without descending into nested function literals,
// so each unit's analysis sees only its own statements.
func InspectUnit(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// IsDeliveryPtr reports whether t is *kernel.Delivery.
func IsDeliveryPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	return ok && KernelType(ptr.Elem(), "Delivery")
}

// IsHandle reports whether t is handle.Handle.
func IsHandle(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Handle" && obj.Pkg() != nil && pkgSuffix(obj.Pkg().Path(), "internal/handle")
}

// FirstResultIs reports whether the call's (first) result type satisfies
// pred — works for single- and tuple-result calls.
func FirstResultIs(info *types.Info, call *ast.CallExpr, pred func(types.Type) bool) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		return t.Len() > 0 && pred(t.At(0).Type())
	default:
		return pred(t)
	}
}

// ParamObjs returns the declared parameter objects of fd in order,
// with nil entries for unnamed/blank parameters.
func ParamObjs(info *types.Info, fd *ast.FuncDecl) []types.Object {
	var objs []types.Object
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			objs = append(objs, nil)
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				objs = append(objs, nil)
				continue
			}
			objs = append(objs, info.Defs[name])
		}
	}
	return objs
}

// CalleeDischargesArg reports whether call passes a matching argument to a
// same-package function whose summary says that parameter is always
// discharged. Variadic positions are never treated as discharging.
func CalleeDischargesArg(info *types.Info, call *ast.CallExpr, sums map[*types.Func][]bool, match func(ast.Expr) bool) bool {
	fn := Callee(info, call)
	if fn == nil {
		return false
	}
	flags, ok := sums[fn]
	if !ok {
		return false
	}
	if call.Ellipsis.IsValid() {
		return false
	}
	for i, arg := range call.Args {
		if i >= len(flags) {
			break
		}
		if flags[i] && match(arg) {
			return true
		}
	}
	return false
}

func pkgSuffix(path, suffix string) bool {
	if path == suffix {
		return true
	}
	n := len(path) - len(suffix)
	return n > 0 && path[n-1] == '/' && path[n:] == suffix
}
