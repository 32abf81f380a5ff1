// Package privdrop enforces the ⋆-privilege hygiene rule from the kernel
// package docs: a capability grant (kernel.Grant hands out ⋆ for a handle)
// must be paired with DropPrivilege/DropAfter on every path in the same
// function, stored for a later recorded drop, or explicitly waived with a
// //asbestos:keepstar comment naming how long the ⋆ lives and why — the
// reply-capability leak class.
package privdrop

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"asbestos/internal/analyzers/analysis"
	"asbestos/internal/analyzers/flow"
)

var Analyzer = &analysis.Analyzer{
	Name: "privdrop",
	Doc: `pair every star-level grant with a DropPrivilege on all paths

kernel.Grant(h) builds a DecontSend label carrying ⋆ for h: once sent, the
recipient holds a capability the granter can only revoke by dropping its
own privilege. The kernel docs therefore require transient grants (reply
capabilities above all) to reach proc.DropPrivilege(h, ...) or
batcher.DropAfter(h) on every path after the grant. This analyzer tracks
each handle passed to Grant and flags paths on which no drop happens.
Discharges: DropPrivilege/DropAfter on the handle, passing it to a
same-package function that always drops it, storing it in a
field/global/channel (a recorded deferred drop), or returning it.
Deliberately long-lived grants (bootstrap meshes, per-user taint handles)
are waived with //asbestos:keepstar <lifetime> <reason> on the grant line,
the line above, or the function's doc comment. Both are mandatory; the
lifetime is one of conn, session, listener, volume or authority.
Grants of a port's own handle (x.Handle() where x is a *kernel.Port or
*kernel.Mailbox) are registration handoffs and exempt, as are grants built
in a return statement (the caller owns the pairing) and ellipsis spreads.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	sums := dropSummaries(pass)
	for _, file := range pass.Files {
		if len(file.Decls) > 0 && pass.InTestFile(file.Pos()) {
			continue
		}
		dirs := analysis.Directives(pass.Fset, file, "keepstar")
		for _, unit := range analysis.FuncUnits(file) {
			checkUnit(pass, unit, sums, dirs)
		}
	}
	return nil
}

// isGrantCall recognizes kernel.Grant — directly, or through the facade's
// `var Grant = kernel.Grant` (a func-value call, matched by name plus
// *label.Label result).
func isGrantCall(info *types.Info, call *ast.CallExpr) bool {
	if analysis.PkgFunc(info, call, "internal/kernel", "Grant") {
		return true
	}
	name := ""
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = f.Name
	case *ast.SelectorExpr:
		name = f.Sel.Name
	}
	if name != "Grant" {
		return false
	}
	return analysis.FirstResultIs(info, call, func(t types.Type) bool {
		ptr, ok := t.(*types.Pointer)
		return ok && analysis.LabelType(ptr.Elem(), "Label")
	})
}

// isDropCall reports whether call drops ⋆ for res: DropPrivilege on a
// Process or DropAfter on a Batcher with res as the handle argument.
func isDropCall(info *types.Info, call *ast.CallExpr, res flow.Resource) bool {
	if !analysis.MethodOn(info, call, "internal/kernel", "Process", "DropPrivilege") &&
		!analysis.MethodOn(info, call, "internal/kernel", "Batcher", "DropAfter") {
		return false
	}
	return len(call.Args) > 0 && flow.MatchResource(info, res, call.Args[0])
}

// dropSummaries marks same-package functions that drop ⋆ for a
// handle-typed parameter on every path, so replyFail-style helpers count
// as the pairing at their call sites.
func dropSummaries(pass *analysis.Pass) map[*types.Func][]bool {
	sums := make(map[*types.Func][]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			params := analysis.ParamObjs(pass.TypesInfo, fd)
			var flags []bool
			any := false
			for _, p := range params {
				if p == nil || !analysis.IsHandle(p.Type()) {
					flags = append(flags, false)
					continue
				}
				res := flow.Resource{Obj: p}
				t := &flow.Tracker{
					Info: pass.TypesInfo,
					Res:  res,
					Satisfies: func(call *ast.CallExpr) bool {
						return isDropCall(pass.TypesInfo, call, res)
					},
				}
				ok := len(t.Check(fd.Body)) == 0
				flags = append(flags, ok)
				any = any || ok
			}
			if any {
				sums[fn] = flags
			}
		}
	}
	return sums
}

// grantSite is one trackable handle argument of one Grant call.
type grantSite struct {
	call *ast.CallExpr
	res  flow.Resource
	name string // printed form of the handle expression
}

func checkUnit(pass *analysis.Pass, unit analysis.FuncUnit, sums map[*types.Func][]bool, dirs map[int]analysis.Directive) {
	info := pass.TypesInfo

	// Collect Grant calls, remembering which sit inside a return statement
	// (the grant label is the caller's value; pairing is the caller's job).
	inReturn := map[*ast.CallExpr]bool{}
	var grants []*ast.CallExpr
	analysis.InspectUnit(unit.Body, func(n ast.Node) {
		ret, isRet := n.(*ast.ReturnStmt)
		if isRet {
			ast.Inspect(ret, func(m ast.Node) bool {
				if c, ok := m.(*ast.CallExpr); ok && isGrantCall(info, c) {
					inReturn[c] = true
				}
				return true
			})
		}
		if c, ok := n.(*ast.CallExpr); ok && isGrantCall(info, c) {
			grants = append(grants, c)
		}
	})

	var sites []grantSite
	for _, g := range grants {
		if inReturn[g] || g.Ellipsis.IsValid() {
			continue
		}
		for _, arg := range g.Args {
			arg := ast.Unparen(arg)
			path := flow.ExprPath(arg)
			if path == "" {
				continue // calls, indexes: not a stable name to track
			}
			root := rootIdentOf(arg)
			obj := objOf(info, root)
			if obj == nil {
				continue
			}
			if ownPortHandle(info, unit, obj, arg) {
				continue
			}
			res := flow.Resource{Obj: obj}
			if _, isSel := arg.(*ast.SelectorExpr); isSel {
				res.Sel = path
			}
			sites = append(sites, grantSite{call: g, res: res, name: path})
		}
	}

	for _, site := range sites {
		site := site
		t := &flow.Tracker{
			Info:  info,
			Res:   site.res,
			Start: site.call,
			Satisfies: func(call *ast.CallExpr) bool {
				if isDropCall(info, call, site.res) {
					return true
				}
				return analysis.CalleeDischargesArg(info, call, sums, func(e ast.Expr) bool {
					return flow.MatchResource(info, site.res, e)
				})
			},
			EscapeExempt: func(call *ast.CallExpr) bool {
				return isGrantCall(info, call)
			},
		}
		for _, leak := range t.Check(unit.Body) {
			d, ok := analysis.WaiverFor(pass.Fset, dirs, site.call.Pos(), unit.Decl, "keepstar")
			if !ok {
				d, ok = analysis.WaiverFor(pass.Fset, dirs, leak.Pos, nil, "keepstar")
			}
			if !ok {
				pass.Reportf(leak.Pos, "star-level grant of %s is not dropped on this path (%s): pair with DropPrivilege/DropAfter or waive with //asbestos:keepstar <lifetime> <reason>", site.name, leak.Reason)
			} else if msg := waiverProblem(d.Reason); msg != "" {
				pass.Reportf(leak.Pos, "%s", msg)
			}
		}
	}
}

// lifetimes are the words a keepstar waiver may give for how long its ⋆
// lives: one connection, one user session, a listen registration, a
// mounted volume, or for good (an authority over every user).
var lifetimes = map[string]bool{"conn": true, "session": true, "listener": true, "volume": true, "authority": true}

// waiverProblem returns what is wrong with a keepstar waiver's text, or ""
// if it names a lifetime and then a reason.
func waiverProblem(text string) string {
	words := strings.Fields(text)
	switch {
	case len(words) == 0:
		return "asbestos:keepstar waiver needs a reason"
	case !lifetimes[words[0]]:
		return fmt.Sprintf("asbestos:keepstar waiver needs a lifetime (conn, session, listener, volume or authority) before its reason, not %q", words[0])
	case len(words) == 1:
		return "asbestos:keepstar waiver needs a reason after its lifetime"
	}
	return ""
}

// ownPortHandle exempts handles that name the process's own endpoint:
// x.Handle() receiver typed *kernel.Port / *kernel.Mailbox (directly as
// the grant argument, or an identifier defined once from such a call).
// Granting ⋆ on your own port is the registration handoff the IPC model is
// built on; it does not confer privilege over anything the sender does not
// already own outright.
func ownPortHandle(info *types.Info, unit analysis.FuncUnit, obj types.Object, arg ast.Expr) bool {
	if id, ok := arg.(*ast.Ident); ok {
		// Find the sole defining assignment of id inside this unit.
		var rhs ast.Expr
		count := 0
		analysis.InspectUnit(unit.Body, func(n ast.Node) {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return
			}
			for i, l := range as.Lhs {
				lid, ok := l.(*ast.Ident)
				if !ok || objOf(info, lid) != obj {
					continue
				}
				count++
				if len(as.Rhs) == len(as.Lhs) {
					rhs = as.Rhs[i]
				}
			}
		})
		if count == 1 && rhs != nil {
			return isPortHandleCall(info, rhs)
		}
		_ = id
		return false
	}
	return isPortHandleCall(info, arg)
}

func isPortHandleCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	return analysis.MethodOn(info, call, "internal/kernel", "Port", "Handle") ||
		analysis.MethodOn(info, call, "internal/kernel", "Mailbox", "Handle")
}

func rootIdentOf(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if id == nil {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}
