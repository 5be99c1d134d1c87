package repair

import (
	"fmt"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/ctoken"
	"github.com/hetero/heterogen/internal/ctypes"
	"github.com/hetero/heterogen/internal/hls"
)

// stack_trans($d1:dyn): convert a self-recursive void function into an
// iterative state machine driven by an explicit context stack — the
// general form of the paper's Figure 2c (we emit a switch-based
// continuation dispatch instead of computed gotos, which is both valid C
// and synthesizable).
//
// Supported shape:
//
//   - the function returns void and only calls itself via top-level
//     statements of its body (guard ifs with early returns are fine);
//   - array parameters are passed through unchanged to recursive calls
//     (they become shared state rather than per-frame context);
//   - no return statement appears inside a loop or switch (a frame-exit
//     return compiles to a `break` out of the dispatch switch).
//
// The body is segmented at its recursive call statements. Each segment
// becomes one `case` of the dispatch; a recursive call pushes the current
// frame's continuation and then the callee frame.
func instStackTrans(u *cast.Unit, d hls.Diagnostic, st *State) []Edit {
	name := d.Subject
	fn := u.Func(name)
	if fn == nil || fn.Body == nil {
		return nil
	}
	size := st.Sizes["stack:"+name]
	if size == 0 {
		size = initialStackSize
	}
	key := "stack:" + name
	return []Edit{{
		Template: "stack_trans",
		Class:    hls.ClassDynamicData,
		Target:   name,
		Note:     fmt.Sprintf("stack size=%d", size),
		Apply:    func(u *cast.Unit) error { return applyStackTrans(u, name, size) },
		OnAccept: func(s *State) { s.Sizes[key] = size },
	}}
}

func applyStackTrans(u *cast.Unit, name string, size int) error {
	fn := u.Func(name)
	if fn == nil || fn.Body == nil {
		return fmt.Errorf("stack_trans: function %q not found", name)
	}
	if _, isVoid := ctypes.Resolve(fn.Ret).(ctypes.Void); !isVoid {
		return fmt.Errorf("stack_trans: %q returns a value; only void recursion is supported", name)
	}

	// Segment the body at top-level self-call statements.
	var segments [][]cast.Stmt
	var calls []*cast.Call
	current := []cast.Stmt{}
	topLevelCalls := 0
	for _, s := range fn.Body.Stmts {
		if es, ok := s.(*cast.ExprStmt); ok {
			if c, ok := es.X.(*cast.Call); ok {
				if id, ok := c.Fun.(*cast.Ident); ok && id.Name == name {
					segments = append(segments, current)
					calls = append(calls, c)
					current = []cast.Stmt{}
					topLevelCalls++
					continue
				}
			}
		}
		current = append(current, s)
	}
	segments = append(segments, current)
	if topLevelCalls == 0 {
		return fmt.Errorf("stack_trans: %q has no top-level recursive call", name)
	}
	if total := len(cast.CallsTo(fn, name)); total != topLevelCalls {
		return fmt.Errorf("stack_trans: %q has nested recursive calls (%d of %d are top-level)",
			name, topLevelCalls, total)
	}
	for _, seg := range segments {
		for _, s := range seg {
			if returnInsideLoop(s, false) {
				return fmt.Errorf("stack_trans: %q returns from inside a loop", name)
			}
		}
	}

	// Split parameters: scalars go into the frame context; arrays and
	// pointers-to-arrays are shared state and must be passed through
	// unchanged in every recursive call.
	var ctxParams []cast.Param
	shared := map[string]bool{}
	for _, p := range fn.Params {
		switch ctypes.Resolve(p.Type).(type) {
		case ctypes.Array, ctypes.Pointer, ctypes.Ref, ctypes.Stream:
			shared[p.Name] = true
		default:
			ctxParams = append(ctxParams, p)
		}
	}
	for _, c := range calls {
		ai := 0
		for _, p := range fn.Params {
			if ai >= len(c.Args) {
				return fmt.Errorf("stack_trans: arity mismatch in recursive call of %q", name)
			}
			if shared[p.Name] {
				id, ok := c.Args[ai].(*cast.Ident)
				if !ok || id.Name != p.Name {
					return fmt.Errorf("stack_trans: array parameter %q is not passed through unchanged", p.Name)
				}
			}
			ai++
		}
	}

	// Top-level locals that are live across segments join the context and
	// their declarations become plain assignments. Locals referenced by a
	// single segment stay local declarations (arrays like a merge buffer
	// must stay local — they cannot live in the frame context).
	var ctxLocals []cast.Param
	for si, seg := range segments {
		for sj, s := range seg {
			ds, ok := s.(*cast.DeclStmt)
			if !ok {
				continue
			}
			// Cross-segment iff referenced by this segment's recursive
			// call or anywhere after this segment.
			crossSegment := (si < len(calls) && usedByCall(calls[si], ds.Name)) ||
				usedAfter(segments, calls, si, ds.Name)
			if !crossSegment {
				continue // stays a local declaration inside its case body
			}
			switch ctypes.Resolve(ds.Type).(type) {
			case ctypes.Int, ctypes.FPGAInt, ctypes.Float, ctypes.FPGAFloat, ctypes.Bool:
				ctxLocals = append(ctxLocals, cast.Param{Name: ds.Name, Type: ds.Type})
				if ds.Init != nil {
					segments[si][sj] = &cast.ExprStmt{P: ds.P, X: &cast.Assign{
						P: ds.P, Op: ctoken.ASSIGN,
						L: &cast.Ident{P: ds.P, Name: ds.Name}, R: ds.Init}}
				} else {
					segments[si][sj] = &cast.Block{P: ds.P}
				}
			default:
				return fmt.Errorf("stack_trans: non-scalar local %q of %q is live across recursive calls", ds.Name, name)
			}
		}
	}

	// Build the context struct:  struct f_ctx { scalars...; int loc; };
	ctxTag := name + "_ctx"
	stackName := name + "_stack"
	topName := name + "_top"
	ctxStruct := &ctypes.Struct{Tag: ctxTag}
	for _, p := range ctxParams {
		ctxStruct.Fields = append(ctxStruct.Fields, ctypes.Field{Name: p.Name, Type: p.Type})
	}
	for _, l := range ctxLocals {
		ctxStruct.Fields = append(ctxStruct.Fields, ctypes.Field{Name: l.Name, Type: l.Type})
	}
	ctxStruct.Fields = append(ctxStruct.Fields, ctypes.Field{Name: "loc", Type: ctypes.IntT})
	u.Structs[ctxTag] = ctxStruct

	ident := func(n string) *cast.Ident { return &cast.Ident{Name: n} }
	intLit := func(v int) *cast.IntLit { return &cast.IntLit{Value: int64(v), Text: fmt.Sprintf("%d", v)} }
	assign := func(l, r cast.Expr) cast.Stmt {
		return &cast.ExprStmt{X: &cast.Assign{Op: ctoken.ASSIGN, L: l, R: r}}
	}
	topSlot := func(field string) cast.Expr {
		return &cast.Member{X: &cast.Index{X: ident(stackName), Idx: ident(topName)}, Field: field}
	}
	incTop := assign(ident(topName), &cast.Binary{Op: ctoken.ADD, L: ident(topName), R: intLit(1)})
	decTop := assign(ident(topName), &cast.Binary{Op: ctoken.SUB, L: ident(topName), R: intLit(1)})

	// pushFrame emits "stack[top].<f> = <val>...; stack[top].loc = loc; top++".
	pushFrame := func(fields map[string]cast.Expr, loc int) []cast.Stmt {
		var out []cast.Stmt
		for _, f := range ctxStruct.Fields {
			if f.Name == "loc" {
				continue
			}
			if v, ok := fields[f.Name]; ok {
				out = append(out, assign(topSlot(f.Name), v))
			}
		}
		out = append(out, assign(topSlot("loc"), intLit(loc)))
		out = append(out, incTop)
		return out
	}

	// Dispatch cases. Each non-final segment ends by pushing its
	// continuation (all context vars written back) then the callee frame.
	var cases []*cast.SwitchCase
	for si, seg := range segments {
		body := make([]cast.Stmt, 0, len(seg)+8)
		for _, s := range seg {
			body = append(body, replaceReturnsWithBreak(s))
		}
		if si < len(calls) {
			// Continuation: copy every context variable back.
			cont := map[string]cast.Expr{}
			for _, f := range ctxStruct.Fields {
				if f.Name != "loc" {
					cont[f.Name] = ident(f.Name)
				}
			}
			body = append(body, pushFrame(cont, si+1)...)
			// Callee frame: bind scalar parameters to the call arguments.
			callee := map[string]cast.Expr{}
			ai := 0
			for _, p := range fn.Params {
				if !shared[p.Name] {
					callee[p.Name] = calls[si].Args[ai]
				}
				ai++
			}
			body = append(body, pushFrame(callee, 0)...)
		}
		body = append(body, &cast.Break{})
		cases = append(cases, &cast.SwitchCase{Value: intLit(si), Body: body})
	}

	// While-loop driver.
	loopBody := []cast.Stmt{decTop}
	// Load the frame into plain locals named like the original variables.
	for _, f := range ctxStruct.Fields {
		if f.Name == "loc" {
			continue
		}
		loopBody = append(loopBody, &cast.DeclStmt{Name: f.Name, Type: f.Type,
			Init: &cast.Member{X: &cast.Index{X: ident(stackName), Idx: ident(topName)}, Field: f.Name}})
	}
	dispatch := &cast.Switch{
		X:        &cast.Member{X: &cast.Index{X: ident(stackName), Idx: ident(topName)}, Field: "loc"},
		BranchID: -1, Cases: cases,
	}
	loopBody = append(loopBody, dispatch)

	newBody := []cast.Stmt{assign(ident(topName), intLit(0))}
	initFields := map[string]cast.Expr{}
	for _, p := range ctxParams {
		initFields[p.Name] = ident(p.Name)
	}
	newBody = append(newBody, pushFrame(initFields, 0)...)
	newBody = append(newBody, &cast.While{
		Cond:     &cast.Binary{Op: ctoken.GTR, L: ident(topName), R: intLit(0)},
		Body:     &cast.Block{Stmts: loopBody},
		BranchID: -1,
	})

	// Install: context struct + stack globals before the function, new body.
	sdecl := &cast.StructDecl{Type: ctxStruct}
	stackVar := &cast.VarDecl{Name: stackName, Type: ctypes.Array{Elem: ctxStruct, Len: size}}
	topVar := &cast.VarDecl{Name: topName, Type: ctypes.IntT}
	u.InsertDeclBefore(sdecl, fn)
	u.InsertDeclBefore(stackVar, fn)
	u.InsertDeclBefore(topVar, fn)
	fn.Body = &cast.Block{Stmts: newBody}

	// NumberBranches renumbers every branch site in the unit, so this
	// edit declares no Scope and always runs on a full clone: every
	// declaration it renumbers belongs to this candidate alone, never to
	// a parent program that other candidates share and are evaluated on.
	cast.NumberBranches(u)
	return nil
}

// usedByCall reports whether the call's arguments reference name.
func usedByCall(c *cast.Call, name string) bool {
	used := false
	for _, a := range c.Args {
		cast.Inspect(a, func(n cast.Node) bool {
			if id, ok := n.(*cast.Ident); ok && id.Name == name {
				used = true
			}
			return true
		})
	}
	return used
}

// usedAfter reports whether name is referenced by any segment (or call)
// after index si.
func usedAfter(segments [][]cast.Stmt, calls []*cast.Call, si int, name string) bool {
	check := func(n cast.Node) bool {
		found := false
		cast.Inspect(n, func(m cast.Node) bool {
			if id, ok := m.(*cast.Ident); ok && id.Name == name {
				found = true
			}
			return true
		})
		return found
	}
	for k := si + 1; k < len(segments); k++ {
		for _, s := range segments[k] {
			if check(s) {
				return true
			}
		}
	}
	for k := si + 1; k < len(calls); k++ {
		if usedByCall(calls[k], name) {
			return true
		}
	}
	return false
}

// replaceReturnsWithBreak maps frame-exit returns to switch breaks (valid
// because stack_trans rejects returns nested in loops/switches).
func replaceReturnsWithBreak(s cast.Stmt) cast.Stmt {
	switch x := s.(type) {
	case *cast.Return:
		return &cast.Break{P: x.P}
	case *cast.Block:
		out := &cast.Block{P: x.P, Stmts: make([]cast.Stmt, len(x.Stmts))}
		for i, st := range x.Stmts {
			out.Stmts[i] = replaceReturnsWithBreak(st)
		}
		return out
	case *cast.If:
		return &cast.If{P: x.P, Cond: x.Cond, BranchID: x.BranchID,
			Then: replaceReturnsWithBreak(x.Then),
			Else: replaceReturnsWithBreak(x.Else)}
	}
	return s
}

// returnInsideLoop reports whether any return statement is nested inside
// a loop or switch under s.
func returnInsideLoop(s cast.Stmt, inLoop bool) bool {
	switch x := s.(type) {
	case nil:
		return false
	case *cast.Return:
		return inLoop
	case *cast.Block:
		for _, st := range x.Stmts {
			if returnInsideLoop(st, inLoop) {
				return true
			}
		}
	case *cast.If:
		return returnInsideLoop(x.Then, inLoop) || returnInsideLoop(x.Else, inLoop)
	case *cast.For:
		return returnInsideLoop(x.Body, true)
	case *cast.While:
		return returnInsideLoop(x.Body, true)
	case *cast.Switch:
		for _, c := range x.Cases {
			for _, st := range c.Body {
				if returnInsideLoop(st, true) {
					return true
				}
			}
		}
	}
	return false
}
