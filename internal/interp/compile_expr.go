package interp

import (
	"fmt"
	"math"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/ctoken"
	"github.com/hetero/heterogen/internal/ctypes"
)

// Expression compilation. Every evalOp performs the walker's eval step
// (in.step(e.Pos())) before its work; lvOps never step their own node
// (mustLvalue does not step), only the sub-expressions they evaluate.

func (c *compiler) eval(e cast.Expr) evalOp {
	pos := e.Pos()
	switch x := e.(type) {
	case *cast.IntLit:
		v := IntValue(x.Value)
		return func(in *Interp, fr *frame) Value { in.step(pos); return v }
	case *cast.FloatLit:
		v := FloatValue(x.Value)
		return func(in *Interp, fr *frame) Value { in.step(pos); return v }
	case *cast.CharLit:
		v := Value{Kind: VInt, Int: int64(x.Value), Width: 8}
		return func(in *Interp, fr *frame) Value { in.step(pos); return v }
	case *cast.BoolLit:
		v := BoolValue(x.Value)
		return func(in *Interp, fr *frame) Value { in.step(pos); return v }
	case *cast.StrLit:
		return func(in *Interp, fr *frame) Value { in.step(pos); return Value{Kind: VVoid} }
	case *cast.Ident:
		return c.identEval(x)
	case *cast.Unary:
		return c.unaryEval(x)
	case *cast.Postfix:
		lvO := c.lv(x.X)
		delta := int64(1)
		if x.Op == ctoken.DEC {
			delta = -1
		}
		p := x.P
		return func(in *Interp, fr *frame) Value {
			in.step(pos)
			lv := lvO(in, fr)
			old := lv.load()
			in.storeArith(lv, old, delta, p)
			in.addCost(costIAdd)
			return old
		}
	case *cast.Binary:
		return c.binaryEval(x)
	case *cast.Assign:
		return c.assignEval(x)
	case *cast.Cond:
		bid := x.BranchID
		cOp, tOp, fOp := c.eval(x.C), c.eval(x.T), c.eval(x.F)
		return func(in *Interp, fr *frame) Value {
			in.step(pos)
			in.addCost(costBranch)
			cv := cOp(in, fr).Truthy()
			in.recordBranch(bid, cv)
			if cv {
				return tOp(in, fr)
			}
			return fOp(in, fr)
		}
	case *cast.Call:
		return c.callEval(x)
	case *cast.Index:
		lvO := c.indexLv(x)
		decay := false
		if t := c.ctTypeOf(x); t != nil {
			_, decay = ctypes.Resolve(t).(ctypes.Array)
		}
		return func(in *Interp, fr *frame) Value {
			in.step(pos)
			lv := lvO(in, fr)
			if decay {
				return Value{Kind: VPtr, Obj: lv.obj, Off: lv.off}
			}
			in.addCost(costLoad)
			return lv.load()
		}
	case *cast.Member:
		return c.memberEval(x)
	case *cast.Cast:
		return c.castEval(x)
	case *cast.SizeofType:
		v := IntValue(int64(SizeofBytes(x.T)))
		return func(in *Interp, fr *frame) Value { in.step(pos); return v }
	case *cast.SizeofExpr:
		if id, ok := x.X.(*cast.Ident); ok {
			if s, ok := c.lookup(id.Name); ok && s.vla {
				// The walker sizes the binding's concretized type.
				slot := s.slot
				return func(in *Interp, fr *frame) Value {
					in.step(pos)
					return IntValue(int64(SizeofBytes(fr.slots[slot].typ)))
				}
			}
		}
		n := int64(8)
		if t := c.ctTypeOf(x.X); t != nil {
			if unsized(t) && c.touchesVLA(x.X) {
				bail("sizeof of an expression typed by a variable-length array")
			}
			n = int64(SizeofBytes(t))
		}
		v := IntValue(n)
		return func(in *Interp, fr *frame) Value { in.step(pos); return v }
	case *cast.InitList:
		// Expression-position initializer lists assert the node's own
		// (unresolved) type annotation, unlike evalInit.
		if st, ok := x.Type.(*ctypes.Struct); ok {
			fieldsOp := c.structInit(st, x)
			return func(in *Interp, fr *frame) Value {
				in.step(pos)
				return fieldsOp(in, fr)
			}
		}
		p := x.P
		return func(in *Interp, fr *frame) Value {
			in.step(pos)
			in.fail(p, "initializer list outside declaration")
			return Value{}
		}
	}
	ee := e
	return func(in *Interp, fr *frame) Value {
		in.step(pos)
		in.fail(pos, "unsupported expression %T", ee)
		return Value{}
	}
}

func (c *compiler) identEval(x *cast.Ident) evalOp {
	pos, name := x.P, x.Name
	if s, ok := c.lookup(name); ok {
		slot := s.slot
		if s.isArray {
			return func(in *Interp, fr *frame) Value {
				in.step(pos)
				return Value{Kind: VPtr, Obj: fr.slots[slot].obj}
			}
		}
		return func(in *Interp, fr *frame) Value {
			in.step(pos)
			in.addCost(costLoad)
			return fr.slots[slot].lv.load()
		}
	}
	if _, ok := c.globals[name]; ok {
		return func(in *Interp, fr *frame) Value {
			in.step(pos)
			b := in.globals[name]
			if !b.isLV {
				return Value{Kind: VPtr, Obj: b.obj}
			}
			in.addCost(costLoad)
			return b.lv.load()
		}
	}
	return func(in *Interp, fr *frame) Value {
		in.step(pos)
		in.fail(pos, "undefined identifier %q", name)
		return Value{}
	}
}

func (c *compiler) unaryEval(u *cast.Unary) evalOp {
	pos, p := u.Pos(), u.P
	switch u.Op {
	case ctoken.SUB:
		xOp := c.eval(u.X)
		return func(in *Interp, fr *frame) Value {
			in.step(pos)
			v := xOp(in, fr)
			in.addCost(costIAdd)
			if v.Kind == VFloat {
				v.Float = -v.Float
				return v
			}
			v.Int = in.wrap(-v.Int, v)
			return v
		}
	case ctoken.NOT:
		xOp := c.eval(u.X)
		return func(in *Interp, fr *frame) Value {
			in.step(pos)
			v := xOp(in, fr)
			in.addCost(costIAdd)
			return BoolValue(v.IsZero())
		}
	case ctoken.TILD:
		xOp := c.eval(u.X)
		return func(in *Interp, fr *frame) Value {
			in.step(pos)
			v := xOp(in, fr)
			in.addCost(costIAdd)
			v.Int = in.wrap(^v.Int, v)
			return v
		}
	case ctoken.MUL:
		xOp := c.eval(u.X)
		return func(in *Interp, fr *frame) Value {
			in.step(pos)
			pv := xOp(in, fr)
			if pv.Kind != VPtr {
				in.fail(p, "dereference of non-pointer")
			}
			in.checkBounds(pv, p)
			in.addCost(costLoad)
			return pv.Obj.Elems[pv.Off]
		}
	case ctoken.AND:
		lvO := c.lv(u.X)
		return func(in *Interp, fr *frame) Value {
			in.step(pos)
			lv := lvO(in, fr)
			if len(lv.path) != 0 {
				in.fail(p, "address of struct field is outside the subset")
			}
			return Value{Kind: VPtr, Obj: lv.obj, Off: lv.off}
		}
	case ctoken.INC, ctoken.DEC:
		lvO := c.lv(u.X)
		delta := int64(1)
		if u.Op == ctoken.DEC {
			delta = -1
		}
		return func(in *Interp, fr *frame) Value {
			in.step(pos)
			lv := lvO(in, fr)
			old := lv.load()
			in.storeArith(lv, old, delta, p)
			in.addCost(costIAdd)
			return lv.load()
		}
	}
	op := u.Op
	return func(in *Interp, fr *frame) Value {
		in.step(pos)
		in.fail(p, "unsupported unary operator %s", op)
		return Value{}
	}
}

func (c *compiler) binaryEval(b *cast.Binary) evalOp {
	pos, p := b.Pos(), b.P
	lOp := c.eval(b.L)
	rOp := c.eval(b.R)
	switch b.Op {
	case ctoken.LAND:
		return func(in *Interp, fr *frame) Value {
			in.step(pos)
			in.addCost(costBranch)
			if !lOp(in, fr).Truthy() {
				return BoolValue(false)
			}
			return BoolValue(rOp(in, fr).Truthy())
		}
	case ctoken.LOR:
		return func(in *Interp, fr *frame) Value {
			in.step(pos)
			in.addCost(costBranch)
			if lOp(in, fr).Truthy() {
				return BoolValue(true)
			}
			return BoolValue(rOp(in, fr).Truthy())
		}
	}
	op := b.Op
	return func(in *Interp, fr *frame) Value {
		in.step(pos)
		l := lOp(in, fr)
		r := rOp(in, fr)
		return in.applyBinary(op, l, r, p)
	}
}

func (c *compiler) assignEval(a *cast.Assign) evalOp {
	pos, p := a.Pos(), a.P
	lvO := c.lv(a.L)
	rOp := c.eval(a.R)
	if a.Op == ctoken.ASSIGN {
		return func(in *Interp, fr *frame) Value {
			in.step(pos)
			lv := lvO(in, fr)
			// evalArg against the destination's declared type: Ref
			// targets alias, everything else copies struct values.
			pt := in.declaredOf(lv)
			v := rOp(in, fr)
			if _, isRef := pt.(ctypes.Ref); !isRef && v.Kind == VStruct {
				v = v.DeepCopy()
			}
			v = in.coerce(v, in.declaredOf(lv))
			lv.store(v.DeepCopy())
			in.addCost(costStore)
			in.profileStore(lv, v)
			return v
		}
	}
	binOp := compoundToBinary(a.Op)
	return func(in *Interp, fr *frame) Value {
		in.step(pos)
		lv := lvO(in, fr)
		old := lv.load()
		r := rOp(in, fr)
		v := in.applyBinary(binOp, old, r, p)
		v = in.coerce(v, in.declaredOf(lv))
		lv.store(v.DeepCopy())
		in.addCost(costStore)
		in.profileStore(lv, v)
		return v
	}
}

func (c *compiler) castEval(x *cast.Cast) evalOp {
	pos := x.Pos()
	// (T*)malloc(...) — the canonical dynamic allocation form; the
	// inner call node is never stepped.
	if call, ok := x.X.(*cast.Call); ok {
		if id, ok := call.Fun.(*cast.Ident); ok && id.Name == "malloc" {
			return c.mallocOp(pos, x.To, call)
		}
	}
	xOp := c.eval(x.X)
	to := x.To
	return func(in *Interp, fr *frame) Value {
		in.step(pos)
		v := xOp(in, fr)
		return in.coerce(v, to)
	}
}

// ---------------------------------------------------------------------------
// Lvalues

func (c *compiler) lv(e cast.Expr) lvOp {
	switch x := e.(type) {
	case *cast.Ident:
		pos, name := x.P, x.Name
		if s, ok := c.lookup(name); ok {
			slot := s.slot
			if s.isArray {
				return func(in *Interp, fr *frame) lvalue {
					in.fail(pos, "array %q is not assignable", name)
					return lvalue{}
				}
			}
			return func(in *Interp, fr *frame) lvalue {
				return fr.slots[slot].lv
			}
		}
		if _, ok := c.globals[name]; ok {
			return func(in *Interp, fr *frame) lvalue {
				b := in.globals[name]
				if !b.isLV {
					in.fail(pos, "array %q is not assignable", name)
				}
				return b.lv
			}
		}
		return func(in *Interp, fr *frame) lvalue {
			in.fail(pos, "undefined identifier %q", name)
			return lvalue{}
		}
	case *cast.Index:
		return c.indexLv(x)
	case *cast.Member:
		return c.memberLv(x)
	case *cast.Unary:
		if x.Op == ctoken.MUL {
			xOp := c.eval(x.X)
			p := x.P
			return func(in *Interp, fr *frame) lvalue {
				pv := xOp(in, fr)
				if pv.Kind != VPtr || pv.Obj == nil {
					in.fail(p, "dereference of null or non-pointer")
				}
				in.checkBounds(pv, p)
				return lvalue{obj: pv.Obj, off: pv.Off, declared: pv.Obj.Elem}
			}
		}
	case *cast.Cast:
		// (T)x as lvalue: ignore the cast (write-through).
		return c.lv(x.X)
	}
	pos := e.Pos()
	ee := e
	return func(in *Interp, fr *frame) lvalue {
		in.fail(pos, "expression is not assignable (%T)", ee)
		return lvalue{}
	}
}

func (c *compiler) indexLv(ix *cast.Index) lvOp {
	stride := 1
	if t := c.ctTypeOf(ix.X); t != nil {
		switch u := ctypes.Resolve(t).(type) {
		case ctypes.Array:
			if inner, ok := ctypes.Resolve(u.Elem).(ctypes.Array); ok {
				n, _ := flattenArray(inner)
				stride = n
			}
		case ctypes.Pointer:
			if inner, ok := ctypes.Resolve(u.Elem).(ctypes.Array); ok {
				n, _ := flattenArray(inner)
				stride = n
			}
		}
	}
	baseOp := c.eval(ix.X)
	idxOp := c.eval(ix.Idx)
	basePos := ix.X.Pos()
	p := ix.P
	return func(in *Interp, fr *frame) lvalue {
		v := baseOp(in, fr)
		if v.Kind != VPtr {
			in.fail(basePos, "indexed expression is not an array or pointer")
		}
		idx := idxOp(in, fr).AsInt()
		in.addCost(costIAdd)
		pv := v
		pv.Off += int(idx) * stride
		in.checkBounds(pv, p)
		return lvalue{obj: pv.Obj, off: pv.Off, declared: pv.Obj.Elem}
	}
}

func (c *compiler) memberLv(m *cast.Member) lvOp {
	pos, field := m.P, m.Field
	if m.Arrow {
		xOp := c.eval(m.X)
		return func(in *Interp, fr *frame) lvalue {
			p := xOp(in, fr)
			if p.Kind != VPtr {
				in.fail(pos, "-> on non-pointer")
			}
			in.checkBounds(p, pos)
			st, ok := ctypes.Resolve(p.Obj.Elem).(*ctypes.Struct)
			if !ok {
				in.fail(pos, "-> on pointer to non-struct")
			}
			i := st.FieldIndex(field)
			if i < 0 {
				in.fail(pos, "no field %q in struct %s", field, st.Tag)
			}
			base := lvalue{obj: p.Obj, off: p.Off, declared: st}
			return base.field(i, st.Fields[i].Type)
		}
	}
	switch m.X.(type) {
	case *cast.Ident, *cast.Index, *cast.Member:
		xLv := c.lv(m.X)
		return func(in *Interp, fr *frame) lvalue {
			base := xLv(in, fr)
			st, ok := ctypes.Resolve(in.declaredOf(base)).(*ctypes.Struct)
			if !ok {
				in.fail(pos, "member %q of non-lvalue", field)
			}
			i := st.FieldIndex(field)
			if i < 0 {
				in.fail(pos, "no field %q in struct %s", field, st.Tag)
			}
			return base.field(i, st.Fields[i].Type)
		}
	}
	return func(in *Interp, fr *frame) lvalue {
		in.fail(pos, "member %q of non-lvalue", field)
		return lvalue{}
	}
}

func (c *compiler) memberEval(m *cast.Member) evalOp {
	pos, field := m.P, m.Field
	if m.Arrow {
		arrowLv := c.memberLv(m)
		return func(in *Interp, fr *frame) Value {
			in.step(pos)
			lv := arrowLv(in, fr)
			in.addCost(costLoad)
			return lv.load()
		}
	}
	switch m.X.(type) {
	case *cast.Ident, *cast.Index, *cast.Member:
		xLv := c.lv(m.X)
		xEv := c.eval(m.X)
		mm := m
		return func(in *Interp, fr *frame) Value {
			in.step(pos)
			base := xLv(in, fr)
			st, ok := ctypes.Resolve(in.declaredOf(base)).(*ctypes.Struct)
			if !ok {
				// tryMemberLvalue declined: re-evaluate the base as an
				// rvalue, exactly like the walker's member-of-temporary
				// path (the lvalue resolution's side effects stand).
				bv := xEv(in, fr)
				return in.memberOfValue(bv, mm)
			}
			i := st.FieldIndex(field)
			if i < 0 {
				in.fail(pos, "no field %q in struct %s", field, st.Tag)
			}
			lv := base.field(i, st.Fields[i].Type)
			in.addCost(costLoad)
			return lv.load()
		}
	}
	xEv := c.eval(m.X)
	mm := m
	return func(in *Interp, fr *frame) Value {
		in.step(pos)
		bv := xEv(in, fr)
		return in.memberOfValue(bv, mm)
	}
}

// ---------------------------------------------------------------------------
// Calls

func (c *compiler) callEval(call *cast.Call) evalOp {
	pos := call.P
	switch fun := call.Fun.(type) {
	case *cast.Ident:
		if op, ok := c.builtin(fun.Name, call); ok {
			return op
		}
		// Compiled code never runs with a receiver (method invocations
		// route through callMethod on the tree walker, and plain calls
		// reaching a method body carry a nil receiver on both paths),
		// so the walker's sibling-method probe is statically dead here.
		name := fun.Name
		argOps := make([]evalOp, len(call.Args))
		for i, a := range call.Args {
			argOps[i] = c.eval(a)
		}
		return func(in *Interp, fr *frame) Value {
			in.step(pos)
			fn := in.funcOf(name)
			if fn == nil {
				in.fail(pos, "call to undefined function %q", name)
			}
			args := make([]Value, len(argOps))
			for i, aop := range argOps {
				var pt ctypes.Type
				if i < len(fn.Params) {
					pt = fn.Params[i].Type
				}
				v := aop(in, fr)
				if pt != nil {
					if _, isRef := pt.(ctypes.Ref); isRef {
						args[i] = v
						continue
					}
				}
				if v.Kind == VStruct {
					v = v.DeepCopy()
				}
				args[i] = v
			}
			return in.callFunction(fn, args, pos)
		}
	case *cast.Member:
		if st, ok := ctypes.Resolve(c.ctTypeOf(fun.X)).(ctypes.Stream); ok {
			return c.streamOp(fun, call, st)
		}
		// Struct method dispatch routes through callMethod (receiver
		// frames, constructor temporaries) — tree-walker territory.
		bail("struct method call")
	}
	ff := call.Fun
	return func(in *Interp, fr *frame) Value {
		in.step(pos)
		in.fail(pos, "unsupported call target %T", ff)
		return Value{}
	}
}

func (c *compiler) streamOp(m *cast.Member, call *cast.Call, st ctypes.Stream) evalOp {
	pos, field := call.P, m.Field
	baseOp := c.eval(m.X)
	nargs := len(call.Args)
	var arg0 evalOp
	if field == "write" && nargs == 1 {
		arg0 = c.eval(call.Args[0])
	}
	elem := st.Elem
	return func(in *Interp, fr *frame) Value {
		in.step(pos)
		base := baseOp(in, fr)
		if base.Kind != VStream || base.Stream == nil {
			in.fail(pos, "stream operation on non-stream value")
		}
		s := base.Stream
		in.addCost(costStream)
		switch field {
		case "read":
			if len(s.Q) == 0 {
				in.fail(pos, "read from empty stream %q", s.Name)
			}
			v := s.Q[0]
			s.Q = s.Q[1:]
			return v
		case "write":
			if nargs != 1 {
				in.fail(pos, "stream write takes one argument")
			}
			v := in.coerce(arg0(in, fr), elem)
			s.Q = append(s.Q, v)
			s.Pushes++
			return Value{Kind: VVoid}
		case "empty":
			return BoolValue(len(s.Q) == 0)
		case "size":
			return IntValue(int64(len(s.Q)))
		case "full":
			return BoolValue(false)
		}
		in.fail(pos, "unknown stream operation %q", field)
		return Value{}
	}
}

// ---------------------------------------------------------------------------
// Builtins

// builtin compiles library calls, mirroring evalBuiltin's evaluation
// orders, arity checks, and costs exactly. Arity shapes the walker
// would crash on (abs/assert with no argument, fmin/fmax with fewer
// than two) bail to the tree rather than reproduce a Go panic.
func (c *compiler) builtin(name string, call *cast.Call) (evalOp, bool) {
	pos := call.P
	nargs := len(call.Args)
	switch name {
	case "malloc":
		return c.mallocOp(pos, nil, call), true
	case "free":
		var arg0 evalOp
		if nargs == 1 {
			arg0 = c.eval(call.Args[0])
		}
		return func(in *Interp, fr *frame) Value {
			in.step(pos)
			if arg0 != nil {
				p := arg0(in, fr)
				if p.Kind == VPtr && p.Obj != nil {
					p.Obj.Freed = true
				}
			}
			in.addCost(costCall)
			return Value{Kind: VVoid}
		}, true
	case "printf":
		if nargs == 0 {
			return func(in *Interp, fr *frame) Value {
				in.step(pos)
				return Value{Kind: VVoid}
			}, true
		}
		format := ""
		if s, ok := call.Args[0].(*cast.StrLit); ok {
			format = s.Value
		}
		argOps := make([]evalOp, 0, nargs-1)
		for _, a := range call.Args[1:] {
			argOps = append(argOps, c.eval(a))
		}
		return func(in *Interp, fr *frame) Value {
			in.step(pos)
			args := make([]Value, 0, len(argOps))
			for _, aop := range argOps {
				args = append(args, aop(in, fr))
			}
			in.out.WriteString(formatC(format, args))
			in.addCost(costCall)
			return Value{Kind: VVoid}
		}, true
	case "abs":
		if nargs < 1 {
			bail("abs with no argument")
		}
		arg0 := c.eval(call.Args[0])
		return func(in *Interp, fr *frame) Value {
			in.step(pos)
			v := arg0(in, fr).AsInt()
			if v < 0 {
				v = -v
			}
			in.addCost(costIAdd)
			return IntValue(v)
		}, true
	case "fabs", "fabsf":
		return c.mathOp(call, math.Abs), true
	case "sqrt", "sqrtf":
		return c.mathOp(call, math.Sqrt), true
	case "sin":
		return c.mathOp(call, math.Sin), true
	case "cos":
		return c.mathOp(call, math.Cos), true
	case "exp":
		return c.mathOp(call, math.Exp), true
	case "log":
		return c.mathOp(call, math.Log), true
	case "floor":
		return c.mathOp(call, math.Floor), true
	case "ceil":
		return c.mathOp(call, math.Ceil), true
	case "pow", "powf":
		if nargs != 2 {
			return func(in *Interp, fr *frame) Value {
				in.step(pos)
				in.fail(pos, "pow takes two arguments")
				return Value{}
			}, true
		}
		a0, a1 := c.eval(call.Args[0]), c.eval(call.Args[1])
		return func(in *Interp, fr *frame) Value {
			in.step(pos)
			a := a0(in, fr).AsFloat()
			b := a1(in, fr).AsFloat()
			in.addCost(costFDiv)
			return FloatValue(math.Pow(a, b))
		}, true
	case "fmin":
		return c.minmaxOp(call, math.Min), true
	case "fmax":
		return c.minmaxOp(call, math.Max), true
	case "assert":
		if nargs < 1 {
			bail("assert with no argument")
		}
		arg0 := c.eval(call.Args[0])
		return func(in *Interp, fr *frame) Value {
			in.step(pos)
			v := arg0(in, fr)
			if v.IsZero() {
				in.fail(pos, "assertion failed")
			}
			return Value{Kind: VVoid}
		}, true
	}
	return nil, false
}

func (c *compiler) mathOp(call *cast.Call, f func(float64) float64) evalOp {
	pos := call.P
	if len(call.Args) != 1 {
		return func(in *Interp, fr *frame) Value {
			in.step(pos)
			in.fail(pos, "math builtin takes one argument")
			return Value{}
		}
	}
	arg0 := c.eval(call.Args[0])
	return func(in *Interp, fr *frame) Value {
		in.step(pos)
		v := arg0(in, fr).AsFloat()
		in.addCost(costFDiv)
		return FloatValue(f(v))
	}
}

func (c *compiler) minmaxOp(call *cast.Call, f func(a, b float64) float64) evalOp {
	if len(call.Args) < 2 {
		bail("fmin/fmax with fewer than two arguments")
	}
	pos := call.P
	a0, a1 := c.eval(call.Args[0]), c.eval(call.Args[1])
	return func(in *Interp, fr *frame) Value {
		in.step(pos)
		a := a0(in, fr).AsFloat()
		b := a1(in, fr).AsFloat()
		in.addCost(costFAdd)
		return FloatValue(f(a, b))
	}
}

// mallocOp compiles dynamic allocation: stepPos is the node the walker
// steps ((T*)malloc steps only the cast node; bare malloc steps the
// call), while failures always report at the call position.
func (c *compiler) mallocOp(stepPos ctoken.Pos, castTo ctypes.Type, call *cast.Call) evalOp {
	callP := call.P
	nargs := len(call.Args)
	var arg0 evalOp
	if nargs == 1 {
		arg0 = c.eval(call.Args[0])
	}
	elem := ctypes.Type(ctypes.Char)
	if castTo != nil {
		if p, ok := ctypes.Resolve(castTo).(ctypes.Pointer); ok {
			elem = ctypes.Resolve(p.Elem)
		}
	}
	esz := int64(SizeofBytes(elem))
	return func(in *Interp, fr *frame) Value {
		in.step(stepPos)
		if in.opts.Mode == FPGA {
			in.fail(callP, "dynamic memory allocation is not supported on the fabric")
		}
		if nargs != 1 {
			in.fail(callP, "malloc takes one argument")
		}
		bytes := arg0(in, fr).AsInt()
		count := bytes / esz
		if count < 1 {
			count = 1
		}
		if count > 1<<22 {
			in.fail(callP, "allocation too large (%d elements)", count)
		}
		in.mallocSeq++
		obj := &Object{
			Name:  fmt.Sprintf("heap#%d", in.mallocSeq),
			Elem:  elem,
			Elems: make([]Value, count),
		}
		zero := ZeroValue(elem)
		for i := range obj.Elems {
			obj.Elems[i] = zero.DeepCopy()
		}
		in.addCost(costCall)
		return Value{Kind: VPtr, Obj: obj}
	}
}
