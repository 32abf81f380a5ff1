// Package ctxrecv enforces ctx-aware blocking receives: every
// Port.Recv/Mailbox.Recv/Process.RecvCtx/Select call must be handed a
// context that can actually end the wait. Passing context.Background() (or
// TODO()) makes the receive a wedge-forever path invisible to the evloop
// timers' deadline ladder.
package ctxrecv

import (
	"go/ast"
	"go/types"

	"asbestos/internal/analyzers/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxrecv",
	Doc: `require cancellable contexts on blocking kernel receives

The kernel's blocking receives (Port.Recv, Mailbox.Recv, Process.RecvCtx,
Select) take the context that bounds the wait; the evloop deadline ladder
and every service shutdown path rely on it. A receive given a bare
context.Background()/context.TODO() — directly, or via a variable assigned
nothing else — can never be cancelled and wedges its goroutine forever.
Thread the caller's context, or derive one with WithTimeout/WithCancel.
Test files are exempt (the test binary's deadline bounds them).`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	info := pass.TypesInfo
	for _, file := range pass.Files {
		if len(file.Decls) > 0 && pass.InTestFile(file.Pos()) {
			continue
		}
		for _, unit := range analysis.FuncUnits(file) {
			analysis.InspectUnit(unit.Body, func(n ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isBlockingRecv(info, call) || len(call.Args) == 0 {
					return
				}
				ctxArg := ast.Unparen(call.Args[0])
				if bare, name := bareContext(info, unit, ctxArg); bare {
					pass.Reportf(call.Pos(), "blocking %s with context.%s(): the wait can never be cancelled — thread the caller's ctx or derive one with WithTimeout/WithCancel", recvName(call), name)
				}
			})
		}
	}
	return nil
}

func recvName(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// isBlockingRecv matches the kernel's blocking receive family, including
// Select through the facade's func variable (name + *kernel.Delivery first
// result).
func isBlockingRecv(info *types.Info, call *ast.CallExpr) bool {
	switch {
	case analysis.MethodOn(info, call, "internal/kernel", "Port", "Recv"),
		analysis.MethodOn(info, call, "internal/kernel", "Mailbox", "Recv"),
		analysis.MethodOn(info, call, "internal/kernel", "Process", "RecvCtx"),
		analysis.PkgFunc(info, call, "internal/kernel", "Select"):
		return true
	}
	if recvName(call) == "Select" {
		return analysis.FirstResultIs(info, call, analysis.IsDeliveryPtr)
	}
	return false
}

// bareContext reports whether e is context.Background()/TODO() — written
// directly, or an identifier whose every defining assignment in the unit
// is such a call.
func bareContext(info *types.Info, unit analysis.FuncUnit, e ast.Expr) (bool, string) {
	if call, ok := e.(*ast.CallExpr); ok {
		return bareContextCall(info, call)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return false, ""
	}
	obj := info.Uses[id]
	if obj == nil {
		return false, ""
	}
	name := ""
	found := false
	allBare := true
	analysis.InspectUnit(unit.Body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return
		}
		for i, l := range as.Lhs {
			lid, ok := l.(*ast.Ident)
			if !ok {
				continue
			}
			lobj := info.Defs[lid]
			if lobj == nil {
				lobj = info.Uses[lid]
			}
			if lobj != obj {
				continue
			}
			found = true
			call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
			if !ok {
				allBare = false
				continue
			}
			bare, n := bareContextCall(info, call)
			if !bare {
				allBare = false
			} else {
				name = n
			}
		}
	})
	return found && allBare, name
}

func bareContextCall(info *types.Info, call *ast.CallExpr) (bool, string) {
	for _, name := range []string{"Background", "TODO"} {
		if analysis.PkgFunc(info, call, "context", name) {
			return true, name
		}
	}
	return false, ""
}
