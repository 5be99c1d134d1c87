package interp

import (
	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/ctoken"
	"github.com/hetero/heterogen/internal/ctypes"
)

// The compiler translates one function body into direct-threaded code
// (code.go) by mirroring the tree walker case-by-case. Every decision
// the walker makes from information that is static — name resolution,
// expression types, strides, builtin dispatch, branch IDs, pragma
// directives — is resolved here once; everything that can differ at run
// time (values, modes, partition maps, callee declarations under
// structure-sharing units) stays a run-time read. When a construct
// cannot be reproduced exactly, compilation bails out (panic recovered
// in compileFunc) and the whole function falls back to the tree.

// fallbackError is the sentinel the compiler panics with to bail out.
type fallbackError struct{ why string }

func bail(why string) { panic(&fallbackError{why: why}) }

// ctSlot is a compile-time name binding: the frame slot plus the
// declared type (what frame.lookup(...).typ would report) and whether
// the binding is array storage (isLV == false at run time). A
// variable-length array (vla) is bound at run time with its
// concretized type, so typ keeps the unknown outer length and anything
// that reads the length must read the binding instead.
type ctSlot struct {
	slot    int
	typ     ctypes.Type
	isArray bool
	vla     bool
}

type compiler struct {
	unit   *cast.Unit
	fn     *cast.FuncDecl
	scopes []map[string]ctSlot
	nslots int
	// globals maps name -> declared type with Reset's last-wins
	// semantics (the runtime map is overwritten in declaration order).
	globals map[string]ctypes.Type
	methods map[string]map[string]*cast.FuncDecl
}

func newCompiler(u *cast.Unit, fn *cast.FuncDecl) *compiler {
	c := &compiler{
		unit:    u,
		fn:      fn,
		globals: map[string]ctypes.Type{},
		methods: map[string]map[string]*cast.FuncDecl{},
	}
	for _, d := range u.Decls {
		switch x := d.(type) {
		case *cast.VarDecl:
			c.globals[x.Name] = x.Type
		case *cast.StructDecl:
			m := map[string]*cast.FuncDecl{}
			for _, fn := range x.Methods {
				m[fn.Name] = fn
			}
			c.methods[x.Type.Tag] = m
		}
	}
	return c
}

func (c *compiler) pushScope() { c.scopes = append(c.scopes, map[string]ctSlot{}) }
func (c *compiler) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

// declare allocates a fresh slot for a name in the current scope (a
// redeclaration shadows, exactly like frame.define overwriting the
// scope map entry).
func (c *compiler) declare(name string, t ctypes.Type, isArray bool) int {
	s := c.nslots
	c.nslots++
	c.scopes[len(c.scopes)-1][name] = ctSlot{slot: s, typ: t, isArray: isArray}
	return s
}

// declareVLA is declare for a variable-length array.
func (c *compiler) declareVLA(name string, t ctypes.Type) int {
	s := c.declare(name, t, true)
	c.scopes[len(c.scopes)-1][name] = ctSlot{slot: s, typ: t, isArray: true, vla: true}
	return s
}

// touchesVLA reports whether e names a variable-length array in scope:
// its static type then carries an unknown length the tree walker sees
// concretized.
func (c *compiler) touchesVLA(e cast.Expr) bool {
	found := false
	cast.Inspect(e, func(n cast.Node) bool {
		if id, ok := n.(*cast.Ident); ok {
			if s, ok := c.lookup(id.Name); ok && s.vla {
				found = true
			}
		}
		return !found
	})
	return found
}

// unsized reports whether t is an array type with a dimension of
// unknown length.
func unsized(t ctypes.Type) bool {
	a, ok := ctypes.Resolve(t).(ctypes.Array)
	return ok && (a.Len < 0 || unsized(a.Elem))
}

// lookup resolves a name against the compile-time scope chain.
func (c *compiler) lookup(name string) (ctSlot, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s, true
		}
	}
	return ctSlot{}, false
}

// compileFunc compiles fn against unit u; any bail-out (or compiler
// defect) recovers into a fallback marker and the tree walker runs the
// function instead.
func compileFunc(u *cast.Unit, fn *cast.FuncDecl) (cf *compiledFunc) {
	cf = &compiledFunc{fn: fn}
	defer func() {
		if r := recover(); r != nil {
			*cf = compiledFunc{fn: fn, fallback: true}
		}
	}()
	if fn.Body == nil {
		cf.fallback = true
		return
	}
	c := newCompiler(u, fn)
	c.pushScope() // the frame's parameter scope (newFrame's initial scope)
	cf.paramSlots = make([]int, len(fn.Params))
	for i, prm := range fn.Params {
		// Parameters always bind as scalar lvalues (arrays decay to
		// pointers in bindParams), so isArray is false.
		cf.paramSlots[i] = c.declare(prm.Name, prm.Type, false)
	}
	c.pushScope() // execBlock's scope for the body
	for _, s := range fn.Body.Stmts {
		cf.stmts = append(cf.stmts, c.stmt(s))
		cf.isCall = append(cf.isCall, isCallStmt(s))
	}
	c.popScope()
	c.popScope()
	cf.nslots = c.nslots
	cf.parts = gatherPartitions(fn)
	cf.dataflow = hasDataflow(fn)
	return
}

// ---------------------------------------------------------------------------
// Statements

// stmt compiles one statement. The produced op performs the walker's
// execStmt step (in.step(s.Pos())) before its work.
func (c *compiler) stmt(s cast.Stmt) execOp {
	pos := s.Pos()
	switch x := s.(type) {
	case *cast.ExprStmt:
		ev := c.eval(x.X)
		return func(in *Interp, fr *frame) control {
			in.step(pos)
			ev(in, fr)
			return ctlNone
		}
	case *cast.DeclStmt:
		return c.declStmt(x)
	case *cast.Block:
		c.pushScope()
		ops := make([]execOp, 0, len(x.Stmts))
		for _, sub := range x.Stmts {
			ops = append(ops, c.stmt(sub))
		}
		c.popScope()
		return func(in *Interp, fr *frame) control {
			in.step(pos)
			for _, op := range ops {
				if ctl := op(in, fr); ctl != ctlNone || fr.returned {
					return ctl
				}
			}
			return ctlNone
		}
	case *cast.If:
		return c.ifStmt(x)
	case *cast.For:
		return c.forStmt(x)
	case *cast.While:
		return c.whileStmt(x)
	case *cast.Return:
		var ev evalOp
		if x.X != nil {
			ev = c.eval(x.X)
		}
		return func(in *Interp, fr *frame) control {
			in.step(pos)
			if ev != nil {
				fr.retVal = ev(in, fr)
			}
			fr.returned = true
			in.addCost(costReturn)
			return ctlNone
		}
	case *cast.Break:
		return func(in *Interp, fr *frame) control {
			in.step(pos)
			return ctlBreak
		}
	case *cast.Continue:
		return func(in *Interp, fr *frame) control {
			in.step(pos)
			return ctlContinue
		}
	case *cast.Switch:
		return c.switchStmt(x)
	case *cast.Pragma:
		d := ParsePragma(x.Text)
		if d.Kind == PragmaArrayPartition && d.Variable != "" {
			name, banks := d.Variable, partitionBanks(d)
			return func(in *Interp, fr *frame) control {
				in.step(pos)
				in.setPartition(name, banks)
				return ctlNone
			}
		}
		return func(in *Interp, fr *frame) control {
			in.step(pos)
			return ctlNone
		}
	case *cast.Label:
		return func(in *Interp, fr *frame) control {
			in.step(pos)
			return ctlNone
		}
	case *cast.Goto:
		p := x.P
		return func(in *Interp, fr *frame) control {
			in.step(pos)
			in.fail(p, "goto is not supported by the interpreter")
			return ctlNone
		}
	}
	return func(in *Interp, fr *frame) control {
		in.step(pos)
		return ctlNone
	}
}

// condStmt compiles a statement in a conditionally-executed non-block
// position (if branch, loop body, switch arm). A declaration here would
// define its name in the enclosing runtime scope only on the paths that
// execute it — static slot resolution cannot express that, so the
// function falls back.
func (c *compiler) condStmt(s cast.Stmt) execOp {
	if _, ok := s.(*cast.DeclStmt); ok {
		bail("declaration in conditional non-block position")
	}
	return c.stmt(s)
}

func (c *compiler) ifStmt(x *cast.If) execOp {
	pos, bid := x.P, x.BranchID
	cond := c.eval(x.Cond)
	then := c.condStmt(x.Then)
	var els execOp
	if x.Else != nil {
		els = c.condStmt(x.Else)
	}
	return func(in *Interp, fr *frame) control {
		in.step(pos)
		in.addCost(costBranch)
		cv := cond(in, fr).Truthy()
		in.recordBranch(bid, cv)
		if cv {
			return then(in, fr)
		}
		if els != nil {
			return els(in, fr)
		}
		return ctlNone
	}
}

func (c *compiler) forStmt(f *cast.For) execOp {
	pos, fp, bid := f.Pos(), f.P, f.BranchID
	c.pushScope()
	var initOp execOp
	if f.Init != nil {
		initOp = c.stmt(f.Init)
	}
	var condOp evalOp
	if f.Cond != nil {
		condOp = c.eval(f.Cond)
	}
	var postOp evalOp
	if f.Post != nil {
		postOp = c.eval(f.Post)
	}
	body := c.condStmt(f.Body)
	c.popScope()
	ls := newLoopScale(f.Pragmas, f.Body)
	return func(in *Interp, fr *frame) control {
		in.step(pos)
		if initOp != nil {
			initOp(in, fr)
		}
		startCost := in.cost
		iterations := int64(0)
		for {
			in.step(fp)
			cond := true
			if condOp != nil {
				in.addCost(costBranch)
				cond = condOp(in, fr).Truthy()
			}
			in.recordBranch(bid, cond)
			if !cond {
				break
			}
			iterations++
			ctl := body(in, fr)
			if fr.returned || ctl == ctlBreak {
				in.vmScaleLoop(ls, startCost, iterations, 1)
				return ctlNone
			}
			if postOp != nil {
				postOp(in, fr)
			}
		}
		in.vmScaleLoop(ls, startCost, iterations, 1)
		return ctlNone
	}
}

func (c *compiler) whileStmt(w *cast.While) execOp {
	pos, wp, bid, doWhile := w.Pos(), w.P, w.BranchID, w.DoWhile
	cond := c.eval(w.Cond)
	// execWhile runs the body in the enclosing scope (no push).
	body := c.condStmt(w.Body)
	ls := newLoopScale(w.Pragmas, w.Body)
	return func(in *Interp, fr *frame) control {
		in.step(pos)
		startCost := in.cost
		first := true
		iterations := int64(0)
		for {
			in.step(wp)
			if !doWhile || !first {
				in.addCost(costBranch)
				cv := cond(in, fr).Truthy()
				in.recordBranch(bid, cv)
				if !cv {
					break
				}
			}
			iterations++
			ctl := body(in, fr)
			if fr.returned || ctl == ctlBreak {
				break
			}
			if doWhile && first {
				in.addCost(costBranch)
				cv := cond(in, fr).Truthy()
				in.recordBranch(bid, cv)
				if !cv {
					break
				}
			}
			first = false
		}
		in.vmScaleLoop(ls, startCost, iterations, whileMinII)
		return ctlNone
	}
}

func (c *compiler) switchStmt(sw *cast.Switch) execOp {
	pos, bid := sw.P, sw.BranchID
	xOp := c.eval(sw.X)
	caseVals := make([]evalOp, len(sw.Cases))
	defaultIdx := -1
	bodies := make([][]execOp, len(sw.Cases))
	for i, cs := range sw.Cases {
		if cs.IsDefault {
			if defaultIdx < 0 {
				defaultIdx = i
			}
		} else {
			caseVals[i] = c.eval(cs.Value)
		}
		// Case bodies run in the switch's enclosing scope with
		// fall-through: declarations are conditional, so they bail.
		for _, s := range cs.Body {
			bodies[i] = append(bodies[i], c.condStmt(s))
		}
	}
	return func(in *Interp, fr *frame) control {
		in.step(pos)
		v := xOp(in, fr).AsInt()
		in.addCost(costBranch)
		matched := -1
		for i, cop := range caseVals {
			if cop == nil {
				continue
			}
			if cop(in, fr).AsInt() == v {
				matched = i
				break
			}
		}
		if matched < 0 {
			matched = defaultIdx
		}
		if matched < 0 {
			return ctlNone
		}
		in.recordBranch(bid+matched, true)
		for i := matched; i < len(bodies); i++ {
			for _, op := range bodies[i] {
				ctl := op(in, fr)
				if fr.returned {
					return ctlNone
				}
				if ctl == ctlBreak {
					return ctlNone
				}
				if ctl == ctlContinue {
					return ctlContinue
				}
			}
		}
		return ctlNone
	}
}

// ---------------------------------------------------------------------------
// Declarations

func (c *compiler) declStmt(d *cast.DeclStmt) execOp {
	if d.Static {
		// Statics resolve their one-shot initializer through the scope
		// maps (makeStorage runs under the tree evaluator); keeping that
		// path exact in slot frames is not worth the rarity.
		bail("static local declaration")
	}
	if len(d.VLADims) > 0 {
		return c.vlaDecl(d)
	}
	pos := d.Pos()
	name, t := d.Name, d.Type
	rt := ctypes.Resolve(t)
	if arr, ok := rt.(ctypes.Array); ok {
		op := c.arrayDecl(pos, name, t, arr, d.Init)
		return op
	}
	// Scalar (or struct/stream) declaration. Compile the initializer
	// first: it evaluates in the scope state before the name is defined
	// (makeStorage runs before frame.define).
	initOp := c.initOp(d.Init, rt)
	slot := c.declare(name, t, false)
	return func(in *Interp, fr *frame) control {
		in.step(pos)
		obj := &Object{Name: name, Elem: rt, Elems: []Value{ZeroValue(rt)}}
		b := &binding{lv: lvalue{obj: obj, declared: rt}, typ: t, isLV: true}
		if initOp != nil {
			v := initOp(in, fr)
			b.lv.store(in.coerce(v, rt).DeepCopy())
		}
		fr.slots[slot] = b
		if in.opts.Profile {
			if v := b.lv.load(); v.Kind == VInt {
				in.noteProfile(fr.fn, name, v.Int)
			}
		}
		in.addCost(costStore)
		return ctlNone
	}
}

// arrayDecl compiles an array declaration: storage allocation plus the
// flattened initializer-list fill. Leaves beyond the array's capacity
// are never evaluated by fillArray, so they are truncated statically.
func (c *compiler) arrayDecl(pos ctoken.Pos, name string, t ctypes.Type, arr ctypes.Array, init cast.Expr) execOp {
	if arr.Len < 0 {
		// The walker fails at allocation time with a zero position.
		slotless := func(in *Interp, fr *frame) control {
			in.step(pos)
			in.fail(ctoken.Pos{}, "array %q has unknown size at allocation", name)
			return ctlNone
		}
		// The declaration never completes, but keep scope state coherent
		// for any (unreachable) later lookups.
		c.declare(name, t, true)
		return slotless
	}
	total, elem := flattenArray(arr)
	leafOps := c.initLeaves(init)
	slot := c.declare(name, t, true)
	return func(in *Interp, fr *frame) control {
		in.step(pos)
		fr.slots[slot] = &binding{typ: t, obj: in.newArray(name, elem, total, leafOps, fr)}
		in.addCost(costStore)
		return ctlNone
	}
}

// initLeaves compiles the flattened leaves of an array initializer
// list. A non-InitList initializer on an array declaration is ignored
// by makeStorage (never evaluated), so nothing is compiled for it.
func (c *compiler) initLeaves(init cast.Expr) []evalOp {
	il, ok := init.(*cast.InitList)
	if !ok {
		return nil
	}
	var leafOps []evalOp
	var collect func(e cast.Expr)
	collect = func(e cast.Expr) {
		if sub, ok := e.(*cast.InitList); ok {
			for _, el := range sub.Elems {
				collect(el)
			}
			return
		}
		leafOps = append(leafOps, c.eval(e))
	}
	for _, el := range il.Elems {
		collect(el)
	}
	return leafOps
}

// newArray is makeStorage's array allocation: zero-filled storage of
// total elements, then the initializer leaves in order (fillArray never
// evaluates leaves beyond the array's capacity).
func (in *Interp) newArray(name string, elem ctypes.Type, total int, leafOps []evalOp, fr *frame) *Object {
	obj := &Object{Name: name, Elem: elem, Elems: make([]Value, total)}
	zero := ZeroValue(elem)
	for i := range obj.Elems {
		obj.Elems[i] = zero.DeepCopy()
	}
	for i, leaf := range leafOps {
		if i >= total {
			break
		}
		obj.Elems[i] = in.coerce(leaf(in, fr), elem).DeepCopy()
	}
	return obj
}

// vlaDecl compiles a variable-length array declaration whose outermost
// dimension is its only runtime one, mirroring execDecl: CPU mode
// evaluates the dimension before the name is declared (concretizeVLA)
// and binds the storage with the concretized type; FPGA mode skips
// concretization, so makeStorage fails on the unknown size. A dynamic
// inner dimension would make strides run-time values: it falls back.
func (c *compiler) vlaDecl(d *cast.DeclStmt) execOp {
	arr, ok := d.Type.(ctypes.Array)
	if !ok || arr.Len >= 0 || len(d.VLADims) != 1 || unsized(arr.Elem) {
		bail("variable-length array with a runtime inner dimension")
	}
	pos, p, name, row := d.Pos(), d.P, d.Name, arr.Elem
	dimOp := c.eval(d.VLADims[0])
	rowLen, elem := flattenArray(ctypes.Array{Elem: row, Len: 1})
	leafOps := c.initLeaves(d.Init)
	slot := c.declareVLA(name, d.Type)
	return func(in *Interp, fr *frame) control {
		in.step(pos)
		if in.opts.Mode != CPU {
			in.fail(ctoken.Pos{}, "array %q has unknown size at allocation", name)
		}
		n := dimOp(in, fr).AsInt()
		if n < 0 || n > 1<<22 {
			in.fail(p, "invalid VLA dimension %d for %q", n, name)
		}
		obj := in.newArray(name, elem, int(n)*rowLen, leafOps, fr)
		fr.slots[slot] = &binding{typ: ctypes.Array{Elem: row, Len: int(n)}, obj: obj}
		in.addCost(costStore)
		return ctlNone
	}
}

// initOp compiles evalInit: a struct initializer list constructs the
// struct value field by field (constructor dispatch falls back — it
// routes through callMethod, which is a tree-walker path); anything
// else is a plain evaluation.
func (c *compiler) initOp(init cast.Expr, rt ctypes.Type) evalOp {
	if init == nil {
		return nil
	}
	if il, ok := init.(*cast.InitList); ok {
		if st, ok := ctypes.Resolve(rt).(*ctypes.Struct); ok {
			return c.structInit(st, il)
		}
	}
	return c.eval(init)
}

// structInit compiles structFromInitList for the no-constructor case.
func (c *compiler) structInit(st *ctypes.Struct, il *cast.InitList) evalOp {
	if ms, ok := c.methods[st.Tag]; ok {
		if ctor, ok := ms[st.Tag]; ok && len(ctor.Params) == len(il.Elems) {
			bail("struct constructor call")
		}
	}
	n := len(il.Elems)
	if n > len(st.Fields) {
		n = len(st.Fields)
	}
	fieldOps := make([]evalOp, n)
	for i := 0; i < n; i++ {
		fieldOps[i] = c.eval(il.Elems[i])
	}
	// Trailing elements beyond the field count are never evaluated
	// (structFromInitList breaks out of the loop first).
	return func(in *Interp, fr *frame) Value {
		v := ZeroValue(st)
		for i, fop := range fieldOps {
			v.Fields[i] = in.coerce(fop(in, fr), st.Fields[i].Type).DeepCopy()
		}
		return v
	}
}

// ---------------------------------------------------------------------------
// Static expression typing

// ctTypeOf is the compile-time mirror of Interp.typeOfExpr: identical
// case analysis, with frame lookups replaced by the compiler's scope
// chain and the globals/methods tables replaced by their compile-time
// equivalents. Compiled functions never run with a receiver (method
// invocations via callMethod stay on the tree walker, and plain calls
// reach a method body with a nil receiver on both paths), so the
// receiver cases of typeOfExpr are dead here.
func (c *compiler) ctTypeOf(e cast.Expr) ctypes.Type {
	switch x := e.(type) {
	case *cast.IntLit:
		return ctypes.IntT
	case *cast.FloatLit:
		return ctypes.DoubleT
	case *cast.CharLit:
		return ctypes.Char
	case *cast.BoolLit:
		return ctypes.Bool{}
	case *cast.Ident:
		if s, ok := c.lookup(x.Name); ok {
			return s.typ
		}
		if t, ok := c.globals[x.Name]; ok {
			return t
		}
		return nil
	case *cast.Index:
		bt := c.ctTypeOf(x.X)
		switch u := ctypes.Resolve(bt).(type) {
		case ctypes.Array:
			return u.Elem
		case ctypes.Pointer:
			return u.Elem
		}
		return nil
	case *cast.Member:
		bt := c.ctTypeOf(x.X)
		rt := ctypes.Resolve(bt)
		if p, ok := rt.(ctypes.Pointer); ok && x.Arrow {
			rt = ctypes.Resolve(p.Elem)
		}
		if st, ok := rt.(*ctypes.Struct); ok {
			if i := st.FieldIndex(x.Field); i >= 0 {
				return st.Fields[i].Type
			}
		}
		return nil
	case *cast.Unary:
		switch x.Op {
		case ctoken.MUL:
			if p, ok := ctypes.Resolve(c.ctTypeOf(x.X)).(ctypes.Pointer); ok {
				return p.Elem
			}
			return nil
		case ctoken.AND:
			bt := c.ctTypeOf(x.X)
			if bt == nil {
				return nil
			}
			return ctypes.Pointer{Elem: bt}
		case ctoken.NOT:
			return ctypes.IntT
		}
		return c.ctTypeOf(x.X)
	case *cast.Postfix:
		return c.ctTypeOf(x.X)
	case *cast.Binary:
		lt := c.ctTypeOf(x.L)
		rt := c.ctTypeOf(x.R)
		if lt == nil {
			return rt
		}
		if rt == nil {
			return lt
		}
		if ctypes.IsFloat(lt) {
			return lt
		}
		if ctypes.IsFloat(rt) {
			return rt
		}
		return lt
	case *cast.Assign:
		return c.ctTypeOf(x.L)
	case *cast.Cond:
		return c.ctTypeOf(x.T)
	case *cast.Cast:
		return x.To
	case *cast.Call:
		if id, ok := x.Fun.(*cast.Ident); ok {
			if fn := c.unit.Func(id.Name); fn != nil {
				return fn.Ret
			}
			switch id.Name {
			case "malloc":
				return ctypes.Pointer{Elem: ctypes.Char}
			case "sqrt", "fabs", "pow", "sin", "cos", "exp", "log",
				"floor", "ceil", "fmin", "fmax":
				return ctypes.DoubleT
			case "abs":
				return ctypes.IntT
			}
		}
		if m, ok := x.Fun.(*cast.Member); ok {
			bt := c.ctTypeOf(m.X)
			if st, ok := ctypes.Resolve(bt).(ctypes.Stream); ok {
				switch m.Field {
				case "read":
					return st.Elem
				case "empty", "full":
					return ctypes.Bool{}
				case "size":
					return ctypes.IntT
				}
				return ctypes.Void{}
			}
			if st, ok := ctypes.Resolve(bt).(*ctypes.Struct); ok {
				if ms, ok := c.methods[st.Tag]; ok {
					if fn, ok := ms[m.Field]; ok {
						return fn.Ret
					}
				}
			}
		}
		return nil
	case *cast.SizeofExpr, *cast.SizeofType:
		return ctypes.UIntT
	case *cast.InitList:
		return x.Type
	}
	return nil
}
