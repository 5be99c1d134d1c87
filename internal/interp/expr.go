package interp

import (
	"math"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/ctoken"
	"github.com/hetero/heterogen/internal/ctypes"
)

// SizeofBytes returns the byte size of a type (minimum 1).
func SizeofBytes(t ctypes.Type) int {
	b := ctypes.Resolve(t).Bits()
	if b <= 0 {
		return 8 // pointers / unknown
	}
	n := (b + 7) / 8
	if n < 1 {
		n = 1
	}
	return n
}

// ---------------------------------------------------------------------------
// Lvalues

func (in *Interp) checkBounds(p Value, pos ctoken.Pos) {
	if p.Obj == nil {
		in.fail(pos, "null pointer access")
	}
	if p.Obj.Freed {
		in.fail(pos, "use after free of %q", p.Obj.Name)
	}
	if p.Off < 0 || p.Off >= len(p.Obj.Elems) {
		in.fail(pos, "index %d out of bounds for %q (size %d)", p.Off, p.Obj.Name, len(p.Obj.Elems))
	}
}

func (in *Interp) declaredOf(lv lvalue) ctypes.Type {
	if lv.declared != nil {
		return lv.declared
	}
	return lv.obj.Elem
}

// memberOfValue extracts a field from a struct temporary.
func (in *Interp) memberOfValue(base Value, m *cast.Member) Value {
	if base.Kind == VStruct && base.Aggregate != nil && base.Struct != nil {
		if i := base.Struct.FieldIndex(m.Field); i >= 0 {
			return base.Fields[i]
		}
	}
	in.fail(m.P, "no field %q on value", m.Field)
	return Value{}
}

// ---------------------------------------------------------------------------
// Operators

// storeArith stores old+delta into lv, handling pointers and profiling.
func (in *Interp) storeArith(lv lvalue, old Value, delta int64) {
	v := in.bumped(old, delta)
	lv.store(v)
	in.profileStore(lv, v)
	in.addCost(costStore)
}

// bumpVal is storeArith on a frame value slot.
func (in *Interp) bumpVal(fr *frame, slot int, key string, delta int64) {
	v := in.bumped(fr.vals[slot], delta)
	fr.vals[slot] = v
	in.profileVal(key, v)
	in.addCost(costStore)
}

// bumped is old+delta as ++ and -- store it, without coercion: a
// pointer moves, a float adds, an integer adds and wraps in FPGA mode.
func (in *Interp) bumped(old Value, delta int64) Value {
	switch old.Kind {
	case VPtr:
		old.Off += int(delta)
	case VFloat:
		old.Float += float64(delta)
	default:
		old.Int = in.wrap(old.Int+delta, &old)
	}
	return old
}

// wrap applies fixed-width wrapping in FPGA mode. In CPU mode values
// behave as int64 (the subjects stay within 64-bit ranges, matching C).
func (in *Interp) wrap(v int64, like *Value) int64 {
	if in.opts.Mode == FPGA && like.Width > 0 && like.Width < 64 {
		return WrapInt(v, int(like.Width), like.Unsigned)
	}
	return v
}

// profileVal notes a store of v to a variable whose Profiles key is
// known at compile time.
func (in *Interp) profileVal(key string, v Value) {
	if in.opts.Profile && v.Kind == VInt {
		in.noteProfile(key, v.Int)
	}
}

func (in *Interp) profileStore(lv lvalue, v Value) {
	if !in.opts.Profile || v.Kind != VInt || len(in.frames) == 0 {
		return
	}
	in.noteProfile(in.profileKey(in.top().fn, lv.obj.Name), v.Int)
}

// applyBinary applies a binary operator. The operands are passed by
// pointer and only read: a Value is six words, and this is the VM's
// hottest call.
func (in *Interp) applyBinary(op ctoken.Kind, l, r *Value, pos ctoken.Pos) Value {
	// Pointer arithmetic and comparison.
	if l.Kind == VPtr || r.Kind == VPtr {
		return in.pointerBinary(op, l, r, pos)
	}
	isFloat := l.Kind == VFloat || r.Kind == VFloat
	if isFloat {
		lf, rf := l.AsFloat(), r.AsFloat()
		in.addCost(costForFloatOp(op))
		switch op {
		case ctoken.ADD:
			return in.floatResult(lf+rf, l, r)
		case ctoken.SUB:
			return in.floatResult(lf-rf, l, r)
		case ctoken.MUL:
			return in.floatResult(lf*rf, l, r)
		case ctoken.QUO:
			if rf == 0 {
				return in.floatResult(math.Inf(1), l, r)
			}
			return in.floatResult(lf/rf, l, r)
		case ctoken.LSS:
			return BoolValue(lf < rf)
		case ctoken.GTR:
			return BoolValue(lf > rf)
		case ctoken.LEQ:
			return BoolValue(lf <= rf)
		case ctoken.GEQ:
			return BoolValue(lf >= rf)
		case ctoken.EQL:
			return BoolValue(lf == rf)
		case ctoken.NEQ:
			return BoolValue(lf != rf)
		}
		in.fail(pos, "invalid float operator %s", op)
	}
	li, ri := l.Int, r.Int
	res := promote(l, r)
	in.addCost(costForIntOp(op))
	switch op {
	case ctoken.ADD:
		res.Int = li + ri
	case ctoken.SUB:
		res.Int = li - ri
	case ctoken.MUL:
		res.Int = li * ri
	case ctoken.QUO:
		if ri == 0 {
			in.fail(pos, "integer division by zero")
		}
		res.Int = li / ri
	case ctoken.REM:
		if ri == 0 {
			in.fail(pos, "integer modulo by zero")
		}
		res.Int = li % ri
	case ctoken.AND:
		res.Int = li & ri
	case ctoken.OR:
		res.Int = li | ri
	case ctoken.XOR:
		res.Int = li ^ ri
	case ctoken.SHL:
		res.Int = li << uint(ri&63)
	case ctoken.SHR:
		if l.Unsigned {
			res.Int = int64(uint64(li) >> uint(ri&63))
		} else {
			res.Int = li >> uint(ri&63)
		}
	case ctoken.LSS:
		return BoolValue(li < ri)
	case ctoken.GTR:
		return BoolValue(li > ri)
	case ctoken.LEQ:
		return BoolValue(li <= ri)
	case ctoken.GEQ:
		return BoolValue(li >= ri)
	case ctoken.EQL:
		return BoolValue(li == ri)
	case ctoken.NEQ:
		return BoolValue(li != ri)
	default:
		in.fail(pos, "invalid integer operator %s", op)
	}
	res.Int = in.wrap(res.Int, &res)
	return res
}

// floatResult builds a float result, propagating the "synthesizable float"
// flag so FPGA precision reduction applies transitively.
func (in *Interp) floatResult(v float64, l, r *Value) Value {
	out := FloatValue(v)
	out.FloatSyn = l.FloatSyn || r.FloatSyn
	if in.opts.Mode == FPGA && out.FloatSyn {
		// fpga_float<8,71> carries more mantissa than float64; treat as
		// exact. Narrower custom floats would round here.
		_ = v
	}
	return out
}

// promote computes the result carrier for integer ops: widest width wins,
// unsigned wins ties (C usual arithmetic conversions, simplified).
func promote(l, r *Value) Value {
	out := *l
	if r.Width > out.Width {
		out = *r
	}
	if l.Width == r.Width && (l.Unsigned || r.Unsigned) {
		out.Unsigned = true
	}
	if out.Width < 32 {
		// C integer promotion to int.
		out.Width, out.Unsigned = 32, false
	}
	return out
}

func (in *Interp) pointerBinary(op ctoken.Kind, l, r *Value, pos ctoken.Pos) Value {
	in.addCost(costIAdd)
	switch op {
	case ctoken.ADD:
		if l.Kind == VPtr {
			out := *l
			out.Off += int(r.AsInt())
			return out
		}
		out := *r
		out.Off += int(l.AsInt())
		return out
	case ctoken.SUB:
		if l.Kind == VPtr && r.Kind == VPtr {
			return IntValue(int64(l.Off - r.Off))
		}
		out := *l
		out.Off -= int(r.AsInt())
		return out
	case ctoken.EQL:
		return BoolValue(samePtr(*l, *r))
	case ctoken.NEQ:
		return BoolValue(!samePtr(*l, *r))
	case ctoken.LSS, ctoken.GTR, ctoken.LEQ, ctoken.GEQ:
		lo, ro := l.Off, r.Off
		switch op {
		case ctoken.LSS:
			return BoolValue(lo < ro)
		case ctoken.GTR:
			return BoolValue(lo > ro)
		case ctoken.LEQ:
			return BoolValue(lo <= ro)
		default:
			return BoolValue(lo >= ro)
		}
	}
	in.fail(pos, "invalid pointer operator %s", op)
	return Value{}
}

// samePtr compares pointers, treating integer zero as null.
func samePtr(l, r Value) bool {
	lNull := l.Kind != VPtr && l.AsInt() == 0 || l.Kind == VPtr && l.Obj == nil
	rNull := r.Kind != VPtr && r.AsInt() == 0 || r.Kind == VPtr && r.Obj == nil
	if lNull || rNull {
		return lNull && rNull
	}
	return l.Obj == r.Obj && l.Off == r.Off
}

func compoundToBinary(op ctoken.Kind) ctoken.Kind {
	switch op {
	case ctoken.ADDASSIGN:
		return ctoken.ADD
	case ctoken.SUBASSIGN:
		return ctoken.SUB
	case ctoken.MULASSIGN:
		return ctoken.MUL
	case ctoken.QUOASSIGN:
		return ctoken.QUO
	case ctoken.REMASSIGN:
		return ctoken.REM
	case ctoken.ANDASSIGN:
		return ctoken.AND
	case ctoken.ORASSIGN:
		return ctoken.OR
	case ctoken.XORASSIGN:
		return ctoken.XOR
	case ctoken.SHLASSIGN:
		return ctoken.SHL
	case ctoken.SHRASSIGN:
		return ctoken.SHR
	}
	return op
}

// coerce converts a value to a declared type on store/pass/return.
func (in *Interp) coerce(v Value, t ctypes.Type) Value {
	if t == nil {
		return v
	}
	switch u := ctypes.Resolve(t).(type) {
	case ctypes.Int:
		out := Value{Kind: VInt, Int: v.AsInt(), Width: int32(u.Width), Unsigned: u.Unsigned}
		// C narrows on store even on CPU.
		if u.Width < 64 {
			out.Int = WrapInt(out.Int, u.Width, u.Unsigned)
		}
		return out
	case ctypes.FPGAInt:
		out := Value{Kind: VInt, Int: v.AsInt(), Width: int32(u.Width), Unsigned: u.Unsigned}
		if in.opts.Mode == FPGA {
			out.Int = WrapInt(out.Int, u.Width, u.Unsigned)
		}
		return out
	case ctypes.Bool:
		return Value{Kind: VInt, Int: boolToInt(v.Truthy()), Width: 1, Unsigned: true}
	case ctypes.Float:
		out := Value{Kind: VFloat, Float: v.AsFloat()}
		if u.FK == ctypes.F32 {
			out.Float = float64(float32(out.Float))
		}
		return out
	case ctypes.FPGAFloat:
		out := Value{Kind: VFloat, Float: v.AsFloat(), FloatSyn: true}
		if u.Mant < 52 {
			// Reduce mantissa precision to the custom width.
			out.Float = truncMantissa(out.Float, u.Mant)
		}
		return out
	case ctypes.Pointer:
		if v.Kind == VInt && v.Int == 0 {
			return Value{Kind: VPtr}
		}
		return v
	}
	return v
}

func truncMantissa(f float64, mant int) float64 {
	if mant >= 52 || f == 0 || math.IsInf(f, 0) || math.IsNaN(f) {
		return f
	}
	bits := math.Float64bits(f)
	drop := uint(52 - mant)
	bits &^= (1 << drop) - 1
	return math.Float64frombits(bits)
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
