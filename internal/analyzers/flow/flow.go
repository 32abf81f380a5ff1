// Package flow is the shared control-flow engine behind the asbestosvet
// analyzers: a structural all-paths obligation checker over Go syntax.
//
// The repo's resource contracts all have the same shape — "once X happens,
// Y must happen on every path before the function exits": a Delivery drawn
// from the payload pool must reach Release/Detach (releasecheck), a
// ⋆-grant must be paired with DropPrivilege (privdrop). Tracker encodes
// that shape once. It walks a function body as structured control flow
// (if/for/range/switch/select/defer, labeled break/continue), carrying a
// per-path obligation state, and reports every exit a live obligation can
// escape through — the "which resource escaped on which path" view a CFG
// gives, computed directly on the AST since Go's statement structure (goto
// aside; functions using goto are skipped conservatively) is already a
// reducible CFG.
//
// Path sensitivity is limited to the guards that matter for these APIs:
// `err != nil` / `res == nil` comparisons (and their &&/||/! compositions)
// kill the obligation on branches where the resource provably does not
// exist — the standard `d, err := Recv(); if err != nil { return }` prologue
// is clean without annotations.
package flow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Resource names the tracked value: a plain identifier (Obj) or a selector
// chain rooted at Obj whose printed form is Sel (e.g. "id.UT"). Selector
// resources are matched textually with the root object compared by
// identity, so distinct instances of a same-named field never alias.
type Resource struct {
	Obj types.Object
	Sel string
}

// Tracker configures one obligation check over one function body.
type Tracker struct {
	Info *types.Info
	Res  Resource

	// Err is the companion error variable from the acquiring assignment
	// (nil if none): `err != nil` branches are treated as resource-absent.
	Err types.Object
	// Nilable enables `res == nil` guard recognition (receive APIs return
	// nil deliveries; handles are values and never nil).
	Nilable bool

	// Start is the acquisition node: the obligation activates when it
	// executes. A Start inside a loop body re-activates per iteration, and
	// an obligation still live at the body's end is reported there (the
	// next iteration re-acquires over the leak). A nil Start means the
	// obligation is live from function entry (parameter summaries).
	Start ast.Node

	// Satisfies reports whether a call discharges the obligation outright
	// (d.Release(), proc.DropPrivilege(res, ...), a same-package callee
	// summarized as always-discharging its parameter).
	Satisfies func(call *ast.CallExpr) bool

	// EscapeDischarges treats storing the resource into a field, element,
	// global, channel or goroutine as an ownership transfer.
	EscapeDischarges bool
	// EscapeExempt marks calls whose arguments do not count as escaping
	// mentions: privdrop exempts kernel.Grant itself, so assigning the
	// grant's *label* into a struct is not mistaken for storing the handle.
	EscapeExempt func(call *ast.CallExpr) bool
	// ReturnDischarges treats returning the resource as handing the
	// obligation to the caller.
	ReturnDischarges bool
	// DynamicCallDischarges treats passing the resource to a func-value
	// call (handler/yield invocation) as a transfer.
	DynamicCallDischarges bool

	leaks []Leak
}

// Leak is one escaping path: the exit's position and what went wrong.
type Leak struct {
	Pos    token.Pos
	Reason string
}

// state is the per-path obligation: nil pointer = path unreachable,
// live = obligation outstanding.
type state struct{ live bool }

func merge(a, b *state) *state {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &state{live: a.live || b.live}
}

func clone(s *state) *state {
	if s == nil {
		return nil
	}
	c := *s
	return &c
}

// Check walks body and returns every path on which the obligation
// activates and escapes. Functions containing goto are skipped (no
// findings): the structural walk does not model irreducible flow.
func (t *Tracker) Check(body *ast.BlockStmt) []Leak {
	hasGoto := false
	ast.Inspect(body, func(n ast.Node) bool {
		if br, ok := n.(*ast.BranchStmt); ok && br.Tok == token.GOTO {
			hasGoto = true
		}
		return !hasGoto
	})
	if hasGoto {
		return nil
	}
	w := &walker{t: t}
	res := w.stmts(body.List, &state{live: t.Start == nil})
	w.exit(res.fall, body.Rbrace, "function exit")
	// Unlabeled break/continue with no enclosing loop cannot parse; any
	// recorded ones at top level would be syntax errors. Ignore.
	t.leaks = dedup(t.leaks)
	return t.leaks
}

func dedup(ls []Leak) []Leak {
	seen := make(map[Leak]bool, len(ls))
	out := ls[:0]
	for _, l := range ls {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

// result carries the continuations out of a statement list.
type result struct {
	fall *state            // falls off the end
	brk  map[string]*state // break, by label ("" = unlabeled)
	cont map[string]*state // continue, by label
}

func (r *result) addBrk(label string, s *state) {
	if s == nil {
		return
	}
	if r.brk == nil {
		r.brk = map[string]*state{}
	}
	r.brk[label] = merge(r.brk[label], s)
}

func (r *result) addCont(label string, s *state) {
	if s == nil {
		return
	}
	if r.cont == nil {
		r.cont = map[string]*state{}
	}
	r.cont[label] = merge(r.cont[label], s)
}

// absorb folds o's break/continue continuations into r; the enclosing
// loop/switch walkers consume the entries addressed to them afterwards.
func (r *result) absorb(o result) {
	for l, s := range o.brk {
		r.addBrk(l, s)
	}
	for l, s := range o.cont {
		r.addCont(l, s)
	}
}

type walker struct {
	t *Tracker
}

// exit reports a leak if the obligation is live on a path leaving the
// function at pos.
func (w *walker) exit(s *state, pos token.Pos, how string) {
	if s != nil && s.live {
		w.t.leaks = append(w.t.leaks, Leak{Pos: pos, Reason: how})
	}
}

func (w *walker) containsStart(n ast.Node) bool {
	if w.t.Start == nil || n == nil {
		return false
	}
	return w.t.Start.Pos() >= n.Pos() && w.t.Start.End() <= n.End()
}

func (w *walker) stmts(list []ast.Stmt, st *state) result {
	var res result
	cur := st
	for _, s := range list {
		if cur == nil {
			break // unreachable
		}
		r := w.stmt(s, cur)
		for l, b := range r.brk {
			res.addBrk(l, b)
		}
		for l, c := range r.cont {
			res.addCont(l, c)
		}
		cur = r.fall
	}
	res.fall = cur
	return res
}

// stmt walks one statement.
func (w *walker) stmt(s ast.Stmt, st *state) result {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(s.List, st)

	case *ast.IfStmt:
		if s.Init != nil {
			r := w.stmt(s.Init, st)
			st = r.fall
		}
		// Calls in the condition can discharge (`if !yield(d) { return }`).
		w.scanCalls(s.Cond, st)
		thenSt, elseSt := w.guard(s.Cond, st)
		var res result
		rThen := w.stmt(s.Body, clone(thenSt))
		res.absorb(rThen)
		var elseFall *state
		if s.Else != nil {
			rElse := w.stmt(s.Else, clone(elseSt))
			res.absorb(rElse)
			elseFall = rElse.fall
		} else {
			elseFall = elseSt
		}
		res.fall = merge(rThen.fall, elseFall)
		return res

	case *ast.ForStmt:
		if s.Init != nil {
			r := w.stmt(s.Init, st)
			st = r.fall
		}
		return w.loop(st, s.Body, s.Cond != nil, s, s.Post)

	case *ast.RangeStmt:
		// Range acquisitions (Start == the RangeStmt) activate at the top
		// of each iteration — loop() handles that so the zero-iteration
		// fall-through keeps the un-acquired entry state.
		return w.loop(st, s.Body, true, s, nil)

	case *ast.SwitchStmt:
		if s.Init != nil {
			r := w.stmt(s.Init, st)
			st = r.fall
		}
		return w.switchBody(s.Body, st, s.Tag == nil)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			r := w.stmt(s.Init, st)
			st = r.fall
		}
		return w.switchBody(s.Body, st, false)

	case *ast.SelectStmt:
		var res result
		var fall *state
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			entry := clone(st)
			if cc.Comm != nil {
				r := w.stmt(cc.Comm, entry)
				entry = r.fall
			}
			r := w.stmts(cc.Body, entry)
			res.absorb(r)
			fall = merge(fall, r.fall)
		}
		if len(s.Body.List) == 0 {
			fall = st
		}
		// select{} with no cases blocks forever; merged case falls plus
		// breaks form the continuation.
		res.fall = merge(fall, res.brk[""])
		delete(res.brk, "")
		return res

	case *ast.LabeledStmt:
		inner := w.stmtLabeled(s.Stmt, st, s.Label.Name)
		return inner

	case *ast.ReturnStmt:
		w.scanEvents(s, st)
		if st != nil && st.live {
			if w.t.ReturnDischarges {
				for _, e := range s.Results {
					if w.carries(e) {
						return result{}
					}
				}
			}
			w.exit(st, s.Pos(), "return")
		}
		return result{} // no continuation

	case *ast.BranchStmt:
		var res result
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			res.addBrk(label, st)
		case token.CONTINUE:
			res.addCont(label, st)
		case token.FALLTHROUGH:
			// Handled by switchBody via the fall state.
			res.fall = st
		}
		return res

	case *ast.DeferStmt:
		w.activateIfStart(s, st)
		if st != nil {
			if w.deferSatisfies(s.Call) {
				st = &state{live: false}
			}
		}
		return result{fall: st}

	case *ast.GoStmt:
		w.activateIfStart(s, st)
		if st != nil && st.live && w.t.EscapeDischarges && w.mentions(s.Call) {
			st = &state{live: false}
		}
		return result{fall: st}

	default:
		// Simple statements: assign, expr, send, incdec, decl, empty.
		st = clone(st)
		w.activateIfStart(s, st)
		w.scanEvents(s, st)
		if w.terminates(s) {
			// panic/os.Exit/log.Fatal: the path ends here; a live
			// obligation on a crash path is not a leak worth reporting.
			return result{}
		}
		return result{fall: st}
	}
}

// stmtLabeled walks a labeled loop/switch so labeled break/continue
// resolve against it.
func (w *walker) stmtLabeled(s ast.Stmt, st *state, label string) result {
	r := w.stmt(s, st)
	// A labeled break addressed to this statement falls through here. A
	// labeled continue is a back edge of this loop; folding it into the
	// fall state keeps any live obligation flowing to the function exit
	// (conservative: at worst the leak is reported there instead of at
	// the back edge).
	if b, ok := r.brk[label]; ok {
		r.fall = merge(r.fall, b)
		delete(r.brk, label)
	}
	if c, ok := r.cont[label]; ok {
		r.fall = merge(r.fall, c)
		delete(r.cont, label)
	}
	return r
}

// loop walks a for/range body: continues and the body's fall state feed
// the back edge; breaks and (when the loop can run zero times) the entry
// state feed the continuation.
func (w *walker) loop(st *state, body *ast.BlockStmt, mayskip bool, loopNode ast.Node, post ast.Stmt) result {
	startInside := w.containsStart(body) || w.t.Start == loopNode
	entry := clone(st)
	if w.t.Start == loopNode && entry != nil {
		// The loop statement itself acquires (range over Drain): the
		// obligation is live from the top of every iteration, but not on
		// the zero-iteration path that skips the body.
		entry.live = true
	}
	r := w.stmts(body.List, entry)

	// Back-edge states: fall off body end + unlabeled continues (labeled
	// continues addressed elsewhere propagate out; ones addressed to this
	// loop's label were rewritten by stmtLabeled… they were not — handle
	// all continue labels here conservatively by treating any labeled
	// continue that reaches this loop's walk as a back edge of some
	// enclosing loop; only the unlabeled ones are ours for certain.)
	back := merge(r.fall, r.cont[""])
	delete(r.cont, "")
	if post != nil && back != nil {
		pr := w.stmt(post, back)
		back = pr.fall
	}
	if startInside {
		// Per-iteration obligation: live at the back edge means the next
		// iteration re-acquires on top of the leak.
		w.exit(back, body.End(), "end of loop iteration (re-acquired next round)")
		back = &state{live: false}
	}

	var res result
	for l, b := range r.brk {
		if l == "" {
			continue
		}
		res.addBrk(l, b)
	}
	for l, c := range r.cont {
		res.addCont(l, c)
	}
	fall := r.brk[""]
	if mayskip {
		fall = merge(fall, st)
	}
	// One-pass fixpoint approximation: a second iteration entering with
	// the back-edge state could only add live-ness the merge below already
	// includes (states form a 2-point lattice and the walk is monotone).
	fall = merge(fall, back)
	res.fall = fall
	return res
}

// switchBody walks switch cases; condSwitch applies guard analysis to the
// case expressions of an untagged switch.
func (w *walker) switchBody(body *ast.BlockStmt, st *state, condSwitch bool) result {
	var res result
	var fall *state    // merged normal completions
	chain := clone(st) // state on the "no case matched yet" path
	var ftState *state // fallthrough into the next case
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		entry := clone(chain)
		if condSwitch && len(cc.List) > 0 {
			var caseSt *state
			next := chain
			for _, cond := range cc.List {
				thenSt, elseSt := w.guard(cond, next)
				caseSt = merge(caseSt, thenSt)
				next = elseSt
			}
			entry = caseSt
			chain = next
		}
		if len(cc.List) == 0 {
			hasDefault = true
		}
		entry = merge(entry, ftState)
		ftState = nil
		r := w.stmts(cc.Body, entry)
		res.absorb(r)
		if endsInFallthrough(cc.Body) {
			ftState = r.fall
		} else {
			fall = merge(fall, r.fall)
		}
	}
	fall = merge(fall, ftState)
	if !hasDefault {
		fall = merge(fall, chain) // nothing matched
	}
	fall = merge(fall, res.brk[""])
	delete(res.brk, "")
	res.fall = fall
	return res
}

func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// activateIfStart flips the obligation live when the acquisition statement
// executes.
func (w *walker) activateIfStart(s ast.Stmt, st *state) {
	if st != nil && w.containsStart(s) {
		st.live = true
	}
}

// scanEvents applies the discharge/overwrite events of one simple
// statement to st (in place).
func (w *walker) scanEvents(s ast.Stmt, st *state) {
	if st == nil || !st.live {
		return
	}
	isStart := w.containsStart(s)

	// Overwrite: re-assigning the tracked variable while the obligation is
	// live loses the only reference (the acquiring statement itself is
	// exempt — that IS the definition).
	if as, ok := s.(*ast.AssignStmt); ok && !isStart {
		for _, lhs := range as.Lhs {
			if w.isRes(lhs) {
				w.t.leaks = append(w.t.leaks, Leak{Pos: as.Pos(), Reason: "overwritten"})
				st.live = false // one report per path
				return
			}
		}
	}

	// Discharging calls anywhere in the statement.
	w.scanCalls(s, st)
	if !st.live {
		return
	}

	// Escape stores: the resource value moving into a field, element,
	// global or channel is an ownership transfer.
	if w.t.EscapeDischarges && w.escapes(s) {
		st.live = false
	}
}

// scanCalls clears the obligation if any call under n discharges it:
// a Satisfies match, or the resource handed to a func-value call.
func (w *walker) scanCalls(n ast.Node, st *state) {
	if n == nil || st == nil || !st.live {
		return
	}
	done := false
	ast.Inspect(n, func(x ast.Node) bool {
		if done {
			return false
		}
		switch x := x.(type) {
		case *ast.FuncLit:
			return false // closures evaluated elsewhere; see deferSatisfies
		case *ast.CallExpr:
			if w.t.Satisfies != nil && w.t.Satisfies(x) {
				done = true
				return false
			}
			if w.t.DynamicCallDischarges && w.isDynamic(x) && w.argMentions(x) {
				done = true
				return false
			}
		}
		return true
	})
	if done {
		st.live = false
	}
}

// deferSatisfies reports whether a deferred call discharges: either
// directly (defer d.Release()) or via a closure that contains a
// discharging call (defer func() { ...; d.Release() }()).
func (w *walker) deferSatisfies(call *ast.CallExpr) bool {
	if w.t.Satisfies != nil && w.t.Satisfies(call) {
		return true
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		found := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok && w.t.Satisfies != nil && w.t.Satisfies(c) {
				found = true
			}
			return !found
		})
		return found
	}
	return false
}

// escapes reports whether s stores the resource beyond the function:
// assignment into a selector/index/deref/global target whose value side
// mentions the resource, or a channel send of it.
func (w *walker) escapes(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.SendStmt:
		return w.mentionsStored(s.Value)
	case *ast.AssignStmt:
		// n:1 and n:n forms: conservatively, if any RHS mentions the
		// resource and any LHS is an escaping target, call it a transfer.
		rhsMentions := false
		for _, r := range s.Rhs {
			if w.mentionsStored(r) {
				rhsMentions = true
			}
		}
		if !rhsMentions {
			return false
		}
		for _, l := range s.Lhs {
			if EscapingTarget(w.t.Info, l) {
				return true
			}
		}
	}
	return false
}

// EscapingTarget reports whether an assignment target lets the value
// outlive the enclosing function's locals: a field, element, pointer
// dereference, or package-level variable. (Identifiers captured from an
// enclosing function count only when analyzing a closure body — the
// caller decides by passing the closure's scope; here package scope is
// the conservative line.)
func EscapingTarget(info *types.Info, lhs ast.Expr) bool {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	case *ast.Ident:
		obj := info.Defs[l]
		if obj == nil {
			obj = info.Uses[l]
		}
		if v, ok := obj.(*types.Var); ok {
			if v.Parent() != nil && v.Parent().Parent() == types.Universe {
				return true // package-level var
			}
		}
	}
	return false
}

// guard splits st by a branch condition, recognizing resource-absence
// tests: res == nil, err != nil and their compositions kill the obligation
// on the matching branch.
func (w *walker) guard(cond ast.Expr, st *state) (thenSt, elseSt *state) {
	if st == nil {
		return nil, nil
	}
	dead := &state{live: false}
	switch c := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch c.Op {
		case token.EQL, token.NEQ:
			if kill, ok := w.nilTest(c); ok {
				if (c.Op == token.EQL) == kill.absentWhenEqual {
					return dead, clone(st)
				}
				return clone(st), dead
			}
			// `err == ErrDead` (a specific sentinel): equality implies err
			// is non-nil, so the resource is absent on the then branch.
			if c.Op == token.EQL && w.errSentinelTest(c) {
				return dead, clone(st)
			}
		case token.LAND:
			// then: both conjuncts true; else: a false, or a true and b
			// false — dead only if both else-sides are.
			tA, eA := w.guard(c.X, st)
			tB, eB := w.guard(c.Y, tA)
			return tB, merge(eA, eB)
		case token.LOR:
			// then: a true, or a false and b true — dead only if both
			// then-sides are (`err != nil || d == nil` guards this way).
			tA, eA := w.guard(c.X, st)
			tB, eB := w.guard(c.Y, eA)
			return merge(tA, tB), eB
		}
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			t, e := w.guard(c.X, st)
			return e, t
		}
	}
	return clone(st), clone(st)
}

type nilKill struct {
	// absentWhenEqual: `x == nil` means the resource is absent (res
	// compared to nil). For `err == nil` absence is on the NOT-equal side.
	absentWhenEqual bool
}

func (w *walker) nilTest(c *ast.BinaryExpr) (nilKill, bool) {
	x, y := ast.Unparen(c.X), ast.Unparen(c.Y)
	if isNil(w.t.Info, y) {
		return w.nilOperand(x)
	}
	if isNil(w.t.Info, x) {
		return w.nilOperand(y)
	}
	return nilKill{}, false
}

func (w *walker) nilOperand(e ast.Expr) (nilKill, bool) {
	if w.t.Nilable && w.isRes(e) {
		return nilKill{absentWhenEqual: true}, true
	}
	if w.t.Err != nil {
		if id, ok := e.(*ast.Ident); ok && w.t.Info.Uses[id] == w.t.Err {
			return nilKill{absentWhenEqual: false}, true
		}
	}
	return nilKill{}, false
}

// errSentinelTest reports whether c compares the companion error variable
// against a non-nil error-typed expression.
func (w *walker) errSentinelTest(c *ast.BinaryExpr) bool {
	if w.t.Err == nil {
		return false
	}
	x, y := ast.Unparen(c.X), ast.Unparen(c.Y)
	isErrVar := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && w.t.Info.Uses[id] == w.t.Err
	}
	other := ast.Expr(nil)
	switch {
	case isErrVar(x):
		other = y
	case isErrVar(y):
		other = x
	default:
		return false
	}
	if isNil(w.t.Info, other) {
		return false
	}
	tv, ok := w.t.Info.Types[other]
	return ok && types.Identical(tv.Type, types.Universe.Lookup("error").Type())
}

func isNil(info *types.Info, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNilConst := info.Uses[id].(*types.Nil)
	return isNilConst || id.Name == "nil"
}

// isRes reports whether e denotes the tracked resource.
func (w *walker) isRes(e ast.Expr) bool {
	return MatchResource(w.t.Info, w.t.Res, e)
}

// carries reports whether a returned expression hands the resource itself
// to the caller: the resource, its address, or a composite literal
// embedding it. A call taking the resource as an argument does NOT carry
// it — `return parse(d)` returns parse's result, and d still leaks (the
// original adminExec payload-leak shape).
func (w *walker) carries(e ast.Expr) bool {
	e = ast.Unparen(e)
	if w.isRes(e) {
		return true
	}
	switch e := e.(type) {
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return w.carries(e.X)
		}
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if w.carries(el) {
				return true
			}
		}
	}
	return false
}

// mentionsStored is mentions minus occurrences inside EscapeExempt calls:
// used for escape-store detection, where e.g. an argument of kernel.Grant
// contributes to the label value, not to where the handle itself is stored.
func (w *walker) mentionsStored(n ast.Node) bool {
	if w.t.EscapeExempt == nil {
		return w.mentions(n)
	}
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		if c, ok := x.(*ast.CallExpr); ok && w.t.EscapeExempt(c) {
			return false
		}
		if e, ok := x.(ast.Expr); ok && w.isRes(e) {
			found = true
		}
		return !found
	})
	return found
}

// mentions reports whether the resource occurs anywhere under e.
func (w *walker) mentions(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if e, ok := x.(ast.Expr); ok && w.isRes(e) {
			found = true
		}
		return !found
	})
	return found
}

// argMentions reports whether any argument of the call mentions the
// resource.
func (w *walker) argMentions(call *ast.CallExpr) bool {
	for _, a := range call.Args {
		if w.mentions(a) {
			return true
		}
	}
	return false
}

// isDynamic reports whether the call invokes a func value rather than a
// declared function/method (handler tables, yield callbacks).
func (w *walker) isDynamic(call *ast.CallExpr) bool {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj := w.t.Info.Uses[f]
		if obj == nil {
			return false
		}
		if _, isFunc := obj.(*types.Func); isFunc {
			return false
		}
		if _, isVar := obj.(*types.Var); isVar {
			return true // func-typed variable or parameter
		}
		return false
	case *ast.SelectorExpr:
		if sel := w.t.Info.Selections[f]; sel != nil {
			_, isVar := sel.Obj().(*types.Var)
			return isVar // func-typed field
		}
		if obj := w.t.Info.Uses[f.Sel]; obj != nil {
			_, isVar := obj.(*types.Var)
			return isVar
		}
	}
	return false
}

// MatchResource reports whether e denotes res: the identifier resolving to
// res.Obj, or (for selector resources) a selector chain printing as
// res.Sel whose root identifier resolves to res.Obj.
func MatchResource(info *types.Info, res Resource, e ast.Expr) bool {
	e = ast.Unparen(e)
	if res.Sel == "" {
		id, ok := e.(*ast.Ident)
		if !ok {
			return false
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		return obj != nil && obj == res.Obj
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if ExprPath(sel) != res.Sel {
		return false
	}
	root := rootIdent(sel)
	if root == nil {
		return false
	}
	obj := info.Uses[root]
	if obj == nil {
		obj = info.Defs[root]
	}
	return obj != nil && obj == res.Obj
}

// ExprPath prints an ident/selector chain ("cs.id.UT"); "" for anything
// else (calls, indexes — those are not stable resource names).
func ExprPath(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := ExprPath(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}

func rootIdent(e ast.Expr) *ast.Ident {
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

// terminates recognizes statements that end the goroutine without a
// normal return: panic and the conventional fatal helpers.
func (w *walker) terminates(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name == "panic"
	case *ast.SelectorExpr:
		switch f.Sel.Name {
		case "Exit", "Fatal", "Fatalf", "Goexit", "Fatalln":
			return true
		}
	}
	return false
}
