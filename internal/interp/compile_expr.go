package interp

import (
	"fmt"
	"math"
	"strings"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/ctoken"
	"github.com/hetero/heterogen/internal/ctypes"
)

// Expression compilation. Every evalOp and intOp costs one step
// (in.step(e.Pos())) before its work; lvOps never step their own node,
// only the sub-expressions they evaluate.
//
// An integer expression whose carrier (width and signedness) is known
// at compile time compiles typed, to an intOp returning the bare int64:
// integer, char and bool literals, sizeof, frame-slot scalars of
// integer storage type, array elements of integer storage type
// (intElem), unary -, ~, arithmetic and shifts over typed operands,
// casts to an integer type, and every !, comparison, && and ||, whose
// result is a C int whatever the operands. Assignments and ++/-- to
// integer slots and elements are typed too. The compiler computes each
// carrier once with promote. A Value is built only where a generic
// consumer asks for one (value); conditions, index expressions, switch
// scrutinees and integer stores read the int64. Everything else
// (pointers, floats, structs, boxed locals, globals, receiver fields,
// calls) stays generic. Modes stay a run-time read: compiled code is
// shared by CPU and FPGA interpreters.
//
// Element loads and stores compute the element's address with one
// routine, elemAddr. A typed load checks the element's carrier against
// the static one and converts an element of another carrier as a cast
// would (the pointer's pointee type decides, as in C); a typed store
// checks that the array's storage is the static one and otherwise
// stores generically, coercing to the array's element type.

// expr is one compiled expression: typed when iv is set, and then every
// Value it stands for is a VInt of carrier t; ev is its generic form,
// which value builds when it is nil. A typed leaf (a constant, or an
// integer slot's read) gets its own generic form, built only if asked
// for.
type expr struct {
	ev evalOp
	iv intOp
	t  intType

	leaf leafKind
	pos  ctoken.Pos
	k    int64 // the constant, or the slot
}

type leafKind uint8

const (
	notLeaf leafKind = iota
	constLeaf
	slotLeaf
)

func generic(ev evalOp) expr { return expr{ev: ev} }

func typed(iv intOp, t intType) expr { return expr{iv: iv, t: t} }

// value is x's generic form.
func (x expr) value() evalOp {
	pos := x.pos
	switch {
	case x.ev != nil:
		return x.ev
	case x.leaf == constLeaf:
		v := x.t.value(x.k)
		return func(in *Interp, fr *frame) Value { in.step(pos); return v }
	case x.leaf == slotLeaf:
		slot := int(x.k)
		return func(in *Interp, fr *frame) Value {
			in.step(pos)
			in.addCost(costLoad)
			return fr.vals[slot]
		}
	}
	iv, t := x.iv, x.t
	return func(in *Interp, fr *frame) Value { return t.value(iv(in, fr)) }
}

// integer is x read as C reads an integer out of a value (AsInt).
func (x expr) integer() intOp {
	if x.iv != nil {
		return x.iv
	}
	ev := x.ev
	return func(in *Interp, fr *frame) int64 { return ev(in, fr).AsInt() }
}

// truth is x's C truth value: zero or not.
func (x expr) truth() intOp {
	if x.iv != nil {
		return x.iv
	}
	ev := x.ev
	return func(in *Interp, fr *frame) int64 { return boolToInt(ev(in, fr).Truthy()) }
}

// stored is x as a store to s reads it, before narrowing.
func (x expr) stored(s intStore) intOp {
	if s.rule == narrowBool {
		return x.truth()
	}
	return x.integer()
}

// discard is x run for its side effects only.
func (x expr) discard() intOp {
	if x.iv != nil {
		return x.iv
	}
	ev := x.ev
	return func(in *Interp, fr *frame) int64 { ev(in, fr); return 0 }
}

// constant is an integer constant of carrier t.
func constant(pos ctoken.Pos, v int64, t intType) expr {
	iv := func(in *Interp, fr *frame) int64 { in.step(pos); return v }
	return expr{iv: iv, t: t, leaf: constLeaf, pos: pos, k: v}
}

func (c *compiler) eval(e cast.Expr) evalOp { return c.expr(e).value() }

// expr compiles e, typed when its carrier is known. Each subexpression
// compiles once, and its own result decides whether its parent can be
// typed.
func (c *compiler) expr(e cast.Expr) expr {
	pos := e.Pos()
	switch x := e.(type) {
	case *cast.IntLit:
		return constant(pos, x.Value, intT)
	case *cast.CharLit:
		return constant(pos, int64(x.Value), intType{width: 8})
	case *cast.BoolLit:
		return constant(pos, boolToInt(x.Value), intT)
	case *cast.FloatLit:
		v := FloatValue(x.Value)
		return generic(func(in *Interp, fr *frame) Value { in.step(pos); return v })
	case *cast.StrLit:
		return generic(func(in *Interp, fr *frame) Value { in.step(pos); return Value{Kind: VVoid} })
	case *cast.Ident:
		return c.identExpr(x)
	case *cast.Unary:
		return c.unaryExpr(x)
	case *cast.Postfix:
		return c.postfixExpr(x)
	case *cast.Binary:
		return c.binaryExpr(x)
	case *cast.Assign:
		return c.assignExpr(x)
	case *cast.Cond:
		return c.condExpr(x)
	case *cast.Call:
		return generic(c.callEval(x))
	case *cast.Index:
		return c.indexExpr(x)
	case *cast.Member:
		return generic(c.memberEval(x))
	case *cast.Cast:
		return c.castExpr(x)
	case *cast.SizeofType:
		return constant(pos, int64(SizeofBytes(x.T)), intT)
	case *cast.SizeofExpr:
		t := c.ctTypeOf(x.X)
		if unsized(t) || c.ambiguous(x.X) {
			// Size the bound type: a variable-length array's binding
			// carries its concretized lengths.
			typeOp := c.typer(x.X)
			return typed(func(in *Interp, fr *frame) int64 {
				in.step(pos)
				return sizeofOrPointer(typeOp(in, fr))
			}, intT)
		}
		return constant(pos, sizeofOrPointer(t), intT)
	case *cast.InitList:
		// Expression-position initializer lists use the node's own
		// (unresolved) type annotation, unlike declaration initializers.
		if st, ok := x.Type.(*ctypes.Struct); ok {
			fieldsOp := c.structInit(st, x)
			return generic(func(in *Interp, fr *frame) Value {
				in.step(pos)
				return fieldsOp(in, fr)
			})
		}
		p := x.P
		return generic(func(in *Interp, fr *frame) Value {
			in.step(pos)
			in.fail(p, "initializer list outside declaration")
			return Value{}
		})
	}
	ee := e
	return generic(func(in *Interp, fr *frame) Value {
		in.step(pos)
		in.fail(pos, "unsupported expression %T", ee)
		return Value{}
	})
}

// indexExpr compiles an element read: typed when its element is an
// integer (intElem), else an array decay or a generic load.
func (c *compiler) indexExpr(x *cast.Index) expr {
	s, ok := c.intElem(x)
	if !ok {
		return generic(c.indexEval(x))
	}
	c.sites.Load++
	c.sites.LoadTyped++
	pos, t, addr := x.Pos(), s.intType, c.elemAddr(x)
	return typed(func(in *Interp, fr *frame) int64 {
		in.step(pos)
		obj, off := addr(in, fr)
		in.addCost(costLoad)
		e := &obj.Elems[off]
		if t.holds(e) {
			return e.Int
		}
		return in.convert(s, e)
	}, t)
}

func (c *compiler) indexEval(x *cast.Index) evalOp {
	pos := x.Pos()
	lvO := c.indexLv(x)
	if c.ambiguous(x) {
		c.sites.Load++
		typeOp := c.typer(x)
		return func(in *Interp, fr *frame) Value {
			in.step(pos)
			lv := lvO(in, fr)
			if _, decay := ctypes.Resolve(typeOp(in, fr)).(ctypes.Array); decay {
				return Value{Kind: VPtr, Obj: lv.obj, Off: lv.off}
			}
			in.addCost(costLoad)
			return lv.load()
		}
	}
	decay := false
	if t := c.ctTypeOf(x); t != nil {
		_, decay = ctypes.Resolve(t).(ctypes.Array)
		if s, ok := intStorage(ctypes.Resolve(t)); ok {
			// A runtime-sized row: intElem leaves it generic.
			c.sites.Load++
			return func(in *Interp, fr *frame) Value {
				in.step(pos)
				lv := lvO(in, fr)
				in.addCost(costLoad)
				return in.pointee(s, lv.load())
			}
		}
	}
	if decay {
		return func(in *Interp, fr *frame) Value {
			in.step(pos)
			lv := lvO(in, fr)
			return Value{Kind: VPtr, Obj: lv.obj, Off: lv.off}
		}
	}
	c.sites.Load++
	return func(in *Interp, fr *frame) Value {
		in.step(pos)
		lv := lvO(in, fr)
		in.addCost(costLoad)
		return lv.load()
	}
}

func (c *compiler) identExpr(x *cast.Ident) expr {
	pos, name := x.P, x.Name
	r := c.resolve(name)
	switch {
	case r.kind == refVal:
		slot := r.slot
		leaf := expr{leaf: slotLeaf, pos: pos, k: int64(slot)}
		s, ok := intStorage(r.rt)
		if !ok {
			return generic(leaf.value())
		}
		// The slot holds a VInt of its storage's carrier (see frame).
		leaf.t = s.intType
		leaf.iv = func(in *Interp, fr *frame) int64 {
			in.step(pos)
			in.addCost(costLoad)
			return fr.vals[slot].Int
		}
		return leaf
	case r.kind == refSlot && r.outer == nil:
		slot := r.slot
		if r.isArray {
			return generic(func(in *Interp, fr *frame) Value {
				in.step(pos)
				return Value{Kind: VPtr, Obj: fr.slots[slot].obj}
			})
		}
		return generic(func(in *Interp, fr *frame) Value {
			in.step(pos)
			in.addCost(costLoad)
			return fr.slots[slot].lv.load()
		})
	case r.kind == refUndef:
		return generic(func(in *Interp, fr *frame) Value {
			in.step(pos)
			in.fail(pos, "undefined identifier %q", name)
			return Value{}
		})
	}
	return generic(func(in *Interp, fr *frame) Value {
		in.step(pos)
		lv, b, ok := r.bind(in, fr)
		if !ok {
			in.fail(pos, "undefined identifier %q", name)
		}
		if b != nil && !b.isLV {
			// Array name decays to a pointer.
			return Value{Kind: VPtr, Obj: b.obj}
		}
		in.addCost(costLoad)
		return lv.load()
	})
}

func (c *compiler) unaryExpr(u *cast.Unary) expr {
	pos, p := u.Pos(), u.P
	switch u.Op {
	case ctoken.SUB, ctoken.TILD:
		x := c.expr(u.X)
		neg := u.Op == ctoken.SUB
		if xi, t := x.iv, x.t; xi != nil {
			// The operand's carrier, unpromoted.
			return typed(func(in *Interp, fr *frame) int64 {
				in.step(pos)
				v := xi(in, fr)
				in.addCost(costIAdd)
				if neg {
					return in.wrap(-v, t)
				}
				return in.wrap(^v, t)
			}, t)
		}
		xOp := x.value()
		return generic(func(in *Interp, fr *frame) Value {
			in.step(pos)
			v := xOp(in, fr)
			in.addCost(costIAdd)
			switch {
			case !neg:
				v.Int = in.wrap(^v.Int, carrier(&v))
			case v.Kind == VFloat:
				v.Float = -v.Float
			default:
				v.Int = in.wrap(-v.Int, carrier(&v))
			}
			return v
		})
	case ctoken.NOT:
		xt := c.expr(u.X).truth()
		return typed(func(in *Interp, fr *frame) int64 {
			in.step(pos)
			zero := xt(in, fr) == 0
			in.addCost(costIAdd)
			return boolToInt(zero)
		}, intT)
	case ctoken.MUL:
		xOp := c.eval(u.X)
		s, toInt := intStorage(ctypes.Resolve(c.ctTypeOf(u)))
		toInt = toInt && !c.ambiguous(u)
		return generic(func(in *Interp, fr *frame) Value {
			in.step(pos)
			pv := xOp(in, fr)
			if pv.Kind != VPtr {
				in.fail(p, "dereference of non-pointer")
			}
			in.checkBounds(pv.Obj, pv.Off, p)
			in.addCost(costLoad)
			if toInt {
				return in.pointee(s, pv.Obj.Elems[pv.Off])
			}
			// A struct read: the element gets a copy of its own first,
			// as in lvalue.load.
			e := &pv.Obj.Elems[pv.Off]
			e.own()
			return *e
		})
	case ctoken.AND:
		lvO := c.lv(u.X)
		return generic(func(in *Interp, fr *frame) Value {
			in.step(pos)
			lv := lvO(in, fr)
			if len(lv.path) != 0 {
				in.fail(p, "address of struct field is outside the subset")
			}
			return Value{Kind: VPtr, Obj: lv.obj, Off: lv.off}
		})
	case ctoken.INC, ctoken.DEC:
		delta := int64(1)
		if u.Op == ctoken.DEC {
			delta = -1
		}
		if r := c.valRef(u.X); r != nil {
			slot, key := r.slot, c.profileKey(r.name)
			if s, ok := intStorage(r.rt); ok {
				return typed(func(in *Interp, fr *frame) int64 {
					in.step(pos)
					v := &fr.vals[slot]
					in.bumpVal(v, key, delta)
					in.addCost(costIAdd)
					return v.Int
				}, s.intType)
			}
			return generic(func(in *Interp, fr *frame) Value {
				in.step(pos)
				in.bumpVal(&fr.vals[slot], key, delta)
				in.addCost(costIAdd)
				return fr.vals[slot]
			})
		}
		if ix, s, ok := c.elemTarget(u.X); ok {
			return c.elemBump(pos, ix, s, delta, false)
		}
		lvO := c.lv(u.X)
		return generic(func(in *Interp, fr *frame) Value {
			in.step(pos)
			lv := lvO(in, fr)
			old := lv.load()
			in.storeArith(lv, old, delta)
			in.addCost(costIAdd)
			return lv.load()
		})
	}
	op := u.Op
	return generic(func(in *Interp, fr *frame) Value {
		in.step(pos)
		in.fail(p, "unsupported unary operator %s", op)
		return Value{}
	})
}

func (c *compiler) postfixExpr(x *cast.Postfix) expr {
	pos := x.Pos()
	delta := int64(1)
	if x.Op == ctoken.DEC {
		delta = -1
	}
	if r := c.valRef(x.X); r != nil {
		slot, key := r.slot, c.profileKey(r.name)
		if s, ok := intStorage(r.rt); ok {
			return typed(func(in *Interp, fr *frame) int64 {
				in.step(pos)
				v := &fr.vals[slot]
				old := v.Int
				in.bumpVal(v, key, delta)
				in.addCost(costIAdd)
				return old
			}, s.intType)
		}
		return generic(func(in *Interp, fr *frame) Value {
			in.step(pos)
			old := fr.vals[slot]
			in.bumpVal(&fr.vals[slot], key, delta)
			in.addCost(costIAdd)
			return old
		})
	}
	if ix, s, ok := c.elemTarget(x.X); ok {
		return c.elemBump(pos, ix, s, delta, true)
	}
	lvO := c.lv(x.X)
	return generic(func(in *Interp, fr *frame) Value {
		in.step(pos)
		lv := lvO(in, fr)
		old := lv.load()
		in.storeArith(lv, old, delta)
		in.addCost(costIAdd)
		return old
	})
}

func (c *compiler) binaryExpr(b *cast.Binary) expr {
	pos, p, op := b.Pos(), b.P, b.Op
	l, r := c.expr(b.L), c.expr(b.R)
	c.sites.Binary++
	if l.iv != nil && r.iv != nil {
		c.sites.BinaryTyped++
	}
	switch op {
	case ctoken.LAND, ctoken.LOR:
		lt, rt := l.truth(), r.truth()
		// && stops at a false left operand, || at a true one.
		short := boolToInt(op == ctoken.LOR)
		return typed(func(in *Interp, fr *frame) int64 {
			in.step(pos)
			in.addCost(costBranch)
			if boolToInt(lt(in, fr) != 0) == short {
				return short
			}
			return boolToInt(rt(in, fr) != 0)
		}, intT)
	}
	if li, ri := l.iv, r.iv; li != nil && ri != nil {
		if isCompare(op) {
			return typed(func(in *Interp, fr *frame) int64 {
				in.step(pos)
				lv := li(in, fr)
				rv := ri(in, fr)
				return boolToInt(in.intCompare(op, lv, rv))
			}, intT)
		}
		res, lu := promote(l.t, r.t), l.t.unsigned
		return typed(func(in *Interp, fr *frame) int64 {
			in.step(pos)
			lv := li(in, fr)
			rv := ri(in, fr)
			return in.intArith(op, lv, rv, lu, res, p)
		}, res)
	}
	lOp, rOp := l.value(), r.value()
	if isCompare(op) {
		return typed(func(in *Interp, fr *frame) int64 {
			in.step(pos)
			lv := lOp(in, fr)
			rv := rOp(in, fr)
			return in.applyBinary(op, &lv, &rv, p).Int
		}, intT)
	}
	return generic(func(in *Interp, fr *frame) Value {
		in.step(pos)
		lv := lOp(in, fr)
		rv := rOp(in, fr)
		return in.applyBinary(op, &lv, &rv, p)
	})
}

func (c *compiler) condExpr(x *cast.Cond) expr {
	pos, bid := x.Pos(), x.BranchID
	cOp := c.cond(x.C)
	t, f := c.expr(x.T), c.expr(x.F)
	if ti, fi := t.iv, f.iv; ti != nil && fi != nil && t.t == f.t {
		return typed(func(in *Interp, fr *frame) int64 {
			in.step(pos)
			in.addCost(costBranch)
			cv := cOp(in, fr) != 0
			in.recordBranch(bid, cv)
			if cv {
				return ti(in, fr)
			}
			return fi(in, fr)
		}, t.t)
	}
	tOp, fOp := t.value(), f.value()
	return generic(func(in *Interp, fr *frame) Value {
		in.step(pos)
		in.addCost(costBranch)
		cv := cOp(in, fr) != 0
		in.recordBranch(bid, cv)
		if cv {
			return tOp(in, fr)
		}
		return fOp(in, fr)
	})
}

// cond compiles the condition of an if, loop or ?: as its truth value.
func (c *compiler) cond(e cast.Expr) intOp { return c.condSite(c.expr(e)).truth() }

// condSite counts x, a condition or switch scrutinee, in the typed-path
// inventory.
func (c *compiler) condSite(x expr) expr {
	c.sites.Cond++
	if x.iv != nil {
		c.sites.CondTyped++
	}
	return x
}

func (c *compiler) assignExpr(a *cast.Assign) expr {
	if r := c.valRef(a.L); r != nil {
		return c.valAssign(a, r)
	}
	if ix, s, ok := c.elemTarget(a.L); ok {
		return c.elemAssign(a, ix, s)
	}
	pos, p := a.Pos(), a.P
	lvO := c.lv(a.L)
	rOp := c.eval(a.R)
	if a.Op == ctoken.ASSIGN {
		return generic(func(in *Interp, fr *frame) Value {
			in.step(pos)
			lv := lvO(in, fr)
			return in.assign(lv, rOp(in, fr))
		})
	}
	binOp := compoundToBinary(a.Op)
	return generic(func(in *Interp, fr *frame) Value {
		in.step(pos)
		lv := lvO(in, fr)
		old := lv.load()
		r := rOp(in, fr)
		return in.update(lv, binOp, &old, &r, p)
	})
}

// assign stores v through lv as = does. Against the destination's
// declared type, Ref targets alias and everything else copies struct
// values.
func (in *Interp) assign(lv lvalue, v Value) Value {
	pt := in.declaredOf(lv)
	if _, isRef := pt.(ctypes.Ref); !isRef && v.Kind == VStruct {
		v = v.DeepCopy()
	}
	v = in.coerce(v, pt)
	lv.store(v.DeepCopy())
	in.addCost(costStore)
	in.profileStore(lv, v)
	return v
}

// update stores old op r through lv as a compound assignment does.
func (in *Interp) update(lv lvalue, op ctoken.Kind, old, r *Value, p ctoken.Pos) Value {
	v := in.coerce(in.applyBinary(op, old, r, p), in.declaredOf(lv))
	lv.store(v.DeepCopy())
	in.addCost(costStore)
	in.profileStore(lv, v)
	return v
}

// elemAssign compiles =, or a compound assignment, to an element of
// integer storage s (intElem). The store is typed when the array holds
// s (intHolds); into any other array, such as an int array seen through
// an unsigned char pointer, it is the generic store, and its value
// reads back as s. Either way it costs, steps and profiles the same.
func (c *compiler) elemAssign(a *cast.Assign, ix *cast.Index, s intStore) expr {
	pos, p, t := a.Pos(), a.P, s.intType
	addr := c.elemAddr(ix)
	rhs := c.expr(a.R)
	ri := rhs.iv
	if a.Op == ctoken.ASSIGN {
		if ri != nil {
			rt := rhs.t
			return typed(func(in *Interp, fr *frame) int64 {
				in.step(pos)
				obj, off := addr(in, fr)
				rv := ri(in, fr)
				if intHolds(obj, s) {
					v := in.narrow(s, rv)
					in.storeElem(obj, off, t, v)
					return v
				}
				v := in.assign(elemLv(obj, off), rt.value(rv))
				return in.convert(s, &v)
			}, t)
		}
		rOp := rhs.value()
		return typed(func(in *Interp, fr *frame) int64 {
			in.step(pos)
			obj, off := addr(in, fr)
			rv := rOp(in, fr)
			if intHolds(obj, s) {
				v := in.convert(s, &rv)
				in.storeElem(obj, off, t, v)
				return v
			}
			v := in.assign(elemLv(obj, off), rv)
			return in.convert(s, &v)
		}, t)
	}
	binOp := compoundToBinary(a.Op)
	if ri != nil {
		rt := rhs.t
		res := promote(t, rt)
		return typed(func(in *Interp, fr *frame) int64 {
			in.step(pos)
			obj, off := addr(in, fr)
			e := &obj.Elems[off]
			if intHolds(obj, s) && t.holds(e) {
				old := e.Int
				v := in.narrow(s, in.intArith(binOp, old, ri(in, fr), t.unsigned, res, p))
				in.storeElem(obj, off, t, v)
				return v
			}
			old := *e
			r := rt.value(ri(in, fr))
			v := in.update(elemLv(obj, off), binOp, &old, &r, p)
			return in.convert(s, &v)
		}, t)
	}
	rOp := rhs.value()
	return typed(func(in *Interp, fr *frame) int64 {
		in.step(pos)
		obj, off := addr(in, fr)
		old := obj.Elems[off]
		r := rOp(in, fr)
		v := in.update(elemLv(obj, off), binOp, &old, &r, p)
		return in.convert(s, &v)
	}, t)
}

// elemBump compiles ++ or -- (by delta) of an element of integer storage
// s (intElem), returning the old value when post is set. It is typed
// when the array holds s and the element s's carrier; otherwise it is
// the generic bump, and its value reads back as s.
func (c *compiler) elemBump(pos ctoken.Pos, ix *cast.Index, s intStore, delta int64, post bool) expr {
	t, addr := s.intType, c.elemAddr(ix)
	return typed(func(in *Interp, fr *frame) int64 {
		in.step(pos)
		obj, off := addr(in, fr)
		e := &obj.Elems[off]
		if intHolds(obj, s) && t.holds(e) {
			old := e.Int
			e.Int = in.wrap(old+delta, t)
			in.profileElem(obj, e.Int)
			in.addCost(costStore)
			in.addCost(costIAdd)
			if post {
				return old
			}
			return e.Int
		}
		lv, old := elemLv(obj, off), *e
		in.storeArith(lv, old, delta)
		in.addCost(costIAdd)
		if !post {
			old = lv.load()
		}
		return in.convert(s, &old)
	}, t)
}

// elemLv is the lvalue of element off of obj.
func elemLv(obj *Object, off int) lvalue {
	return lvalue{obj: obj, off: off, declared: obj.Elem}
}

// intHolds reports whether obj's elements have integer storage s. The
// carrier alone does not tell: int and fpga_int<32> share one but
// narrow differently.
func intHolds(obj *Object, s intStore) bool {
	st, ok := intStorage(ctypes.Resolve(obj.Elem))
	return ok && st == s
}

// storeElem stores v, already narrowed, to element off of obj, whose
// storage has carrier t.
func (in *Interp) storeElem(obj *Object, off int, t intType, v int64) {
	obj.Elems[off] = t.value(v)
	in.addCost(costStore)
	in.profileElem(obj, v)
}

// valAssign compiles an assignment to a frame value slot: the steps,
// costs and profile notes of a store through an lvalue, on the slot.
// An integer slot's assignment is typed whatever its right-hand side:
// the store narrows it to the slot's carrier.
func (c *compiler) valAssign(a *cast.Assign, r *nameRef) expr {
	pos, p := a.Pos(), a.P
	slot, rt, key := r.slot, r.rt, c.profileKey(r.name)
	rhs := c.expr(a.R)
	if s, ok := intStorage(rt); ok {
		return c.intAssign(a, slot, key, rt, s, rhs)
	}
	rOp := rhs.value()
	if a.Op == ctoken.ASSIGN {
		return generic(func(in *Interp, fr *frame) Value {
			in.step(pos)
			v := rOp(in, fr)
			if v.Kind == VStruct {
				v = v.DeepCopy()
			}
			v = in.coerce(v, rt)
			fr.vals[slot] = v.DeepCopy()
			in.addCost(costStore)
			in.profileVal(key, &v)
			return v
		})
	}
	binOp := compoundToBinary(a.Op)
	return generic(func(in *Interp, fr *frame) Value {
		in.step(pos)
		old := fr.vals[slot]
		r := rOp(in, fr)
		v := in.coerce(in.applyBinary(binOp, &old, &r, p), rt)
		fr.vals[slot] = v.DeepCopy()
		in.addCost(costStore)
		in.profileVal(key, &v)
		return v
	})
}

// intAssign compiles =, or a compound assignment, to an integer slot of
// storage type rt, whose storage is s.
func (c *compiler) intAssign(a *cast.Assign, slot int, key string, rt ctypes.Type, s intStore, rhs expr) expr {
	pos, p, t := a.Pos(), a.P, s.intType
	if a.Op == ctoken.ASSIGN {
		rOp := rhs.stored(s)
		return typed(func(in *Interp, fr *frame) int64 {
			in.step(pos)
			v := in.narrow(s, rOp(in, fr))
			in.storeInt(&fr.vals[slot], t, key, v)
			return v
		}, t)
	}
	binOp := compoundToBinary(a.Op)
	if ri := rhs.iv; ri != nil {
		res := promote(t, rhs.t)
		return typed(func(in *Interp, fr *frame) int64 {
			in.step(pos)
			old := fr.vals[slot].Int
			rv := ri(in, fr)
			v := in.narrow(s, in.intArith(binOp, old, rv, t.unsigned, res, p))
			in.storeInt(&fr.vals[slot], t, key, v)
			return v
		}, t)
	}
	rOp := rhs.value()
	return typed(func(in *Interp, fr *frame) int64 {
		in.step(pos)
		old := fr.vals[slot]
		rv := rOp(in, fr)
		v := in.coerce(in.applyBinary(binOp, &old, &rv, p), rt).Int
		in.storeInt(&fr.vals[slot], t, key, v)
		return v
	}, t)
}

// storeInt stores v, already narrowed, to an integer slot of carrier t
// whose Profiles key is key.
func (in *Interp) storeInt(slot *Value, t intType, key string, v int64) {
	*slot = t.value(v)
	in.addCost(costStore)
	if in.opts.Profile {
		in.noteProfile(key, v)
	}
}

func (c *compiler) castExpr(x *cast.Cast) expr {
	pos := x.Pos()
	// (T*)malloc(...) — the canonical dynamic allocation form; the
	// inner call node is never stepped.
	if call, ok := x.X.(*cast.Call); ok {
		if id, ok := call.Fun.(*cast.Ident); ok && id.Name == "malloc" {
			return generic(c.mallocOp(pos, x.To, call))
		}
	}
	sub := c.expr(x.X)
	to := x.To
	if s, ok := intStorage(ctypes.Resolve(to)); ok {
		xOp := sub.stored(s)
		return typed(func(in *Interp, fr *frame) int64 {
			in.step(pos)
			return in.narrow(s, xOp(in, fr))
		}, s.intType)
	}
	xOp := sub.value()
	return generic(func(in *Interp, fr *frame) Value {
		in.step(pos)
		v := xOp(in, fr)
		return in.coerce(v, to)
	})
}

// ---------------------------------------------------------------------------
// Lvalues

func (c *compiler) lv(e cast.Expr) lvOp {
	switch x := e.(type) {
	case *cast.Ident:
		pos, name := x.P, x.Name
		r := c.resolve(name)
		if r.kind == refVal {
			// addressTaken boxes every name an lvalue is built for.
			panic(fmt.Sprintf("lvalue of frame-slot scalar %q", name))
		}
		if r.kind == refSlot && r.outer == nil {
			slot := r.slot
			if r.isArray {
				return func(in *Interp, fr *frame) lvalue {
					in.fail(pos, "array %q is not assignable", name)
					return lvalue{}
				}
			}
			return func(in *Interp, fr *frame) lvalue {
				return fr.slots[slot].lv
			}
		}
		return func(in *Interp, fr *frame) lvalue {
			lv, b, ok := r.bind(in, fr)
			if !ok {
				in.fail(pos, "undefined identifier %q", name)
			}
			if b != nil && !b.isLV {
				in.fail(pos, "array %q is not assignable", name)
			}
			return lv
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
				in.checkBounds(pv.Obj, pv.Off, p)
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
	addr := c.elemAddr(ix)
	return func(in *Interp, fr *frame) lvalue {
		return elemLv(addr(in, fr))
	}
}

// addrOp computes an array element's address: its object and offset.
type addrOp func(in *Interp, fr *frame) (*Object, int)

// elemAddr compiles the address of ix's element, which every element
// load and store goes through: the base's steps and costs, a check that
// it is a pointer, the index, then element's cost and bounds check. A
// local array and a pointer in a frame value slot are read in place
// (the steps and costs of reading them as an expression); any other
// base is evaluated.
func (c *compiler) elemAddr(ix *cast.Index) addrOp {
	basePos, p := ix.X.Pos(), ix.P
	stride, sized := strideOf(c.ctTypeOf(ix.X))
	if !sized || c.ambiguous(ix.X) {
		baseOp, idxOp := c.eval(ix.X), c.index(ix)
		// The row length of a runtime-sized inner dimension is read from
		// the bound type.
		typeOp := c.typer(ix.X)
		return func(in *Interp, fr *frame) (*Object, int) {
			stride, _ := strideOf(typeOp(in, fr))
			v := baseOp(in, fr)
			if v.Kind != VPtr {
				in.fail(basePos, "indexed expression is not an array or pointer")
			}
			return in.element(v.Obj, v.Off, idxOp(in, fr), stride, p)
		}
	}
	if id, ok := ix.X.(*cast.Ident); ok {
		r := c.resolve(id.Name)
		_, isPtr := r.rt.(ctypes.Pointer)
		switch {
		case r.kind == refSlot && r.outer == nil && r.isArray:
			slot, idxOp := r.slot, c.index(ix)
			return func(in *Interp, fr *frame) (*Object, int) {
				in.step(basePos)
				obj := fr.slots[slot].obj
				return in.element(obj, 0, idxOp(in, fr), stride, p)
			}
		case r.kind == refVal && isPtr:
			slot, idxOp := r.slot, c.index(ix)
			return func(in *Interp, fr *frame) (*Object, int) {
				in.step(basePos)
				in.addCost(costLoad)
				v := &fr.vals[slot]
				if v.Kind != VPtr {
					in.fail(basePos, "indexed expression is not an array or pointer")
				}
				// Read before the index runs, which may store to the slot.
				obj, off := v.Obj, v.Off
				return in.element(obj, off, idxOp(in, fr), stride, p)
			}
		}
	}
	baseOp, idxOp := c.eval(ix.X), c.index(ix)
	return func(in *Interp, fr *frame) (*Object, int) {
		v := baseOp(in, fr)
		if v.Kind != VPtr {
			in.fail(basePos, "indexed expression is not an array or pointer")
		}
		return in.element(v.Obj, v.Off, idxOp(in, fr), stride, p)
	}
}

// index compiles ix's index expression, counting it in the typed-path
// inventory.
func (c *compiler) index(ix *cast.Index) intOp {
	idx := c.expr(ix.Idx)
	c.sites.Index++
	if idx.iv != nil {
		c.sites.IndexTyped++
	}
	return idx.integer()
}

// element is the address of element idx, rows of stride elements
// apart, from element off of obj.
func (in *Interp) element(obj *Object, off int, idx int64, stride int, p ctoken.Pos) (*Object, int) {
	in.addCost(costIAdd)
	off += int(idx) * stride
	in.checkBounds(obj, off, p)
	return obj, off
}

// elemTarget counts a store to e in the typed-path inventory when e is
// an array element, and returns the element and its storage when the
// store compiles typed (intElem).
func (c *compiler) elemTarget(e cast.Expr) (*cast.Index, intStore, bool) {
	ix, ok := e.(*cast.Index)
	if !ok {
		return nil, intStore{}, false
	}
	c.sites.Store++
	s, ok := c.intElem(ix)
	if ok {
		c.sites.StoreTyped++
	}
	return ix, s, ok
}

// intElem is the integer storage of ix's element when ix compiles
// typed: its static element type has integer storage, its row stride
// is known, and no name in it changes type with a conditional
// declaration.
func (c *compiler) intElem(ix *cast.Index) (intStore, bool) {
	if c.ambiguous(ix) {
		return intStore{}, false
	}
	if _, sized := strideOf(c.ctTypeOf(ix.X)); !sized {
		return intStore{}, false
	}
	return intStorage(ctypes.Resolve(c.ctTypeOf(ix)))
}

// strideOf is the flattened element stride of indexing an expression of
// type t: indexing the outer dimension of int[2][3] moves 3 slots at a
// time. sized is false when the row has a dimension of unknown length.
func strideOf(t ctypes.Type) (stride int, sized bool) {
	var elem ctypes.Type
	switch u := ctypes.Resolve(t).(type) {
	case ctypes.Array:
		elem = u.Elem
	case ctypes.Pointer:
		elem = u.Elem
	default:
		return 1, true
	}
	if inner, ok := ctypes.Resolve(elem).(ctypes.Array); ok {
		n, _ := flattenArray(inner)
		return n, !unsized(inner)
	}
	return 1, true
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
			in.checkBounds(p.Obj, p.Off, pos)
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
		// The rvalue fallback below is compiled only for a base whose
		// static type is not a struct; a struct base that turns out not
		// to be struct storage faults as the fallback's member of a
		// non-struct would.
		var xEv evalOp
		if _, st := ctypes.Resolve(c.ctTypeOf(m.X)).(*ctypes.Struct); !st || c.ambiguous(m.X) {
			xEv = c.eval(m.X)
		}
		mm := m
		return func(in *Interp, fr *frame) Value {
			in.step(pos)
			base := xLv(in, fr)
			st, ok := ctypes.Resolve(in.declaredOf(base)).(*ctypes.Struct)
			if !ok {
				if xEv == nil {
					in.fail(pos, "no field %q on value", field)
				}
				// Not struct storage: re-evaluate the base as an rvalue,
				// a member of a temporary (the lvalue resolution's side
				// effects stand).
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
		name := fun.Name
		argOps := make([]evalOp, len(call.Args))
		for i, a := range call.Args {
			argOps[i] = c.eval(a)
		}
		// A bare call inside a method body first resolves against the
		// receiver's sibling methods (C++ implicit this).
		method := c.recv != nil
		return func(in *Interp, fr *frame) Value {
			in.step(pos)
			if method {
				if m, ok := in.methods[fr.recvType.Tag][name]; ok {
					args, base := in.evalArgs(argOps, m.Params, fr)
					ret := in.callMethod(m, fr.receiver, fr.recvType, args, pos)
					in.args = in.args[:base]
					return ret
				}
			}
			fn := in.funcOf(name)
			if fn == nil {
				in.fail(pos, "call to undefined function %q", name)
			}
			args, base := in.evalArgs(argOps, fn.Params, fr)
			ret := in.callFunction(fn, args, pos)
			in.args = in.args[:base]
			return ret
		}
	case *cast.Member:
		if c.ambiguous(fun.X) {
			field := fun.Field
			return func(in *Interp, fr *frame) Value {
				in.step(pos)
				in.fail(pos, "call %q on a name whose conditional declaration changes its type is outside the subset", field)
				return Value{}
			}
		}
		if st, ok := ctypes.Resolve(c.ctTypeOf(fun.X)).(ctypes.Stream); ok {
			return c.streamOp(fun, call, st)
		}
		return c.methodCall(fun, call)
	}
	ff := call.Fun
	return func(in *Interp, fr *frame) Value {
		in.step(pos)
		in.fail(pos, "unsupported call target %T", ff)
		return Value{}
	}
}

// evalArgs evaluates call arguments against the callee's parameters: a
// reference parameter receives the value itself, anything else a copy
// of a struct value. The arguments go on the interpreter's argument
// stack from base up; the caller pops them (in.args[:base]) once the
// call returns, so a call allocates no argument slice.
func (in *Interp) evalArgs(argOps []evalOp, params []cast.Param, fr *frame) (args []Value, base int) {
	base = len(in.args)
	for i, aop := range argOps {
		v := aop(in, fr)
		if v.Kind == VStruct && (i >= len(params) || !isRefType(params[i].Type)) {
			v = v.DeepCopy()
		}
		in.args = append(in.args, v)
	}
	return in.args[base:], base
}

func isRefType(t ctypes.Type) bool {
	_, ok := t.(ctypes.Ref)
	return ok
}

// methodCall compiles a member-function call. The receiver is a struct
// temporary built from an initializer list, or the storage the base
// expression designates; any fault while resolving that storage
// reports, like any other base, as a call on a non-struct. The method
// is looked up by the receiver's run-time struct tag.
func (c *compiler) methodCall(m *cast.Member, call *cast.Call) evalOp {
	pos, field := call.P, m.Field
	var recvOp func(in *Interp, fr *frame) (lvalue, *ctypes.Struct)
	switch x := m.X.(type) {
	case *cast.InitList:
		if st, ok := x.Type.(*ctypes.Struct); ok {
			initOp, tmp := c.structInit(st, x), "tmp."+st.Tag
			recvOp = func(in *Interp, fr *frame) (lvalue, *ctypes.Struct) {
				return newTemp(tmp, st, initOp(in, fr)), st
			}
		}
	case *cast.Ident, *cast.Index, *cast.Member:
		lvO := c.lv(m.X)
		recvOp = func(in *Interp, fr *frame) (lvalue, *ctypes.Struct) {
			lv, ok := in.tryLvalue(lvO, fr)
			if !ok {
				return lvalue{}, nil
			}
			st, _ := ctypes.Resolve(in.declaredOf(lv)).(*ctypes.Struct)
			return lv, st
		}
	}
	argOps := make([]evalOp, len(call.Args))
	for i, a := range call.Args {
		argOps[i] = c.eval(a)
	}
	return func(in *Interp, fr *frame) Value {
		in.step(pos)
		var recv lvalue
		var st *ctypes.Struct
		if recvOp != nil {
			recv, st = recvOp(in, fr)
		}
		if st == nil {
			in.fail(pos, "method call %q on non-struct", field)
		}
		ms, ok := in.methods[st.Tag]
		if !ok {
			in.fail(pos, "struct %s has no methods", st.Tag)
		}
		fn, ok := ms[field]
		if !ok {
			in.fail(pos, "struct %s has no method %q", st.Tag, field)
		}
		args, base := in.evalArgs(argOps, fn.Params, fr)
		ret := in.callMethod(fn, recv, st, args, pos)
		in.args = in.args[:base]
		return ret
	}
}

// tryLvalue resolves a method receiver's storage, reporting any fault
// while doing so (every panic, budget exhaustion included) as not ok.
func (in *Interp) tryLvalue(lvO lvOp, fr *frame) (lv lvalue, ok bool) {
	defer func() {
		if recover() != nil {
			lv, ok = lvalue{}, false
		}
	}()
	return lvO(in, fr), true
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
		if base.Kind != VStream || base.Aggregate == nil || base.Stream == nil {
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

// builtin compiles library calls with their evaluation orders, arity
// checks and costs. A call with too few arguments is a runtime error at
// the call.
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
			return arityFault(pos, "abs takes one argument"), true
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
			return arityFault(pos, "pow takes two arguments"), true
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
		return c.minmaxOp(name, call, math.Min), true
	case "fmax":
		return c.minmaxOp(name, call, math.Max), true
	case "assert":
		if nargs < 1 {
			return arityFault(pos, "assert takes one argument"), true
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

// arityFault is a builtin call with the wrong number of arguments.
func arityFault(pos ctoken.Pos, msg string) evalOp {
	return func(in *Interp, fr *frame) Value {
		in.step(pos)
		in.fail(pos, "%s", msg)
		return Value{}
	}
}

// formatC implements the printf subset: %d %u %f %g %c %s %%.
func formatC(format string, args []Value) string {
	var sb strings.Builder
	ai := 0
	next := func() Value {
		if ai < len(args) {
			v := args[ai]
			ai++
			return v
		}
		return Value{}
	}
	for i := 0; i < len(format); i++ {
		ch := format[i]
		if ch != '%' || i+1 >= len(format) {
			sb.WriteByte(ch)
			continue
		}
		i++
		// Skip width/precision.
		for i < len(format) && (format[i] == '.' || format[i] == '-' ||
			(format[i] >= '0' && format[i] <= '9')) {
			i++
		}
		if i >= len(format) {
			break
		}
		switch format[i] {
		case 'd', 'i', 'u', 'l':
			fmt.Fprintf(&sb, "%d", next().AsInt())
		case 'f':
			fmt.Fprintf(&sb, "%f", next().AsFloat())
		case 'g':
			fmt.Fprintf(&sb, "%g", next().AsFloat())
		case 'c':
			fmt.Fprintf(&sb, "%c", rune(next().AsInt()))
		case 's':
			sb.WriteString(next().String())
		case '%':
			sb.WriteByte('%')
		}
	}
	return sb.String()
}

func (c *compiler) mathOp(call *cast.Call, f func(float64) float64) evalOp {
	pos := call.P
	if len(call.Args) != 1 {
		return arityFault(pos, "math builtin takes one argument")
	}
	arg0 := c.eval(call.Args[0])
	return func(in *Interp, fr *frame) Value {
		in.step(pos)
		v := arg0(in, fr).AsFloat()
		in.addCost(costFDiv)
		return FloatValue(f(v))
	}
}

func (c *compiler) minmaxOp(name string, call *cast.Call, f func(a, b float64) float64) evalOp {
	pos := call.P
	if len(call.Args) < 2 {
		return arityFault(pos, name+" takes two arguments")
	}
	a0, a1 := c.eval(call.Args[0]), c.eval(call.Args[1])
	return func(in *Interp, fr *frame) Value {
		in.step(pos)
		a := a0(in, fr).AsFloat()
		b := a1(in, fr).AsFloat()
		in.addCost(costFAdd)
		return FloatValue(f(a, b))
	}
}

// mallocOp compiles dynamic allocation: stepPos is the node that costs
// the step ((T*)malloc steps only the cast node; bare malloc steps the
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
		fillZero(obj.Elems, elem)
		in.addCost(costCall)
		return Value{Kind: VPtr, Obj: obj}
	}
}

// sizeofOrPointer is sizeof of an expression of type t; an expression
// of unknown type sizes as a pointer.
func sizeofOrPointer(t ctypes.Type) int64 {
	if t == nil {
		return 8
	}
	return int64(SizeofBytes(t))
}
