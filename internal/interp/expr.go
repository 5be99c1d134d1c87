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

// checkBounds faults unless element off of obj is live storage. The
// fault is out of line, so the check inlines.
func (in *Interp) checkBounds(obj *Object, off int, pos ctoken.Pos) {
	if obj == nil || obj.Freed || uint(off) >= uint(len(obj.Elems)) {
		in.boundsFault(obj, off, pos)
	}
}

// boundsFault raises checkBounds' fault: a null pointer, then a freed
// object, then an index out of bounds.
//
//go:noinline
func (in *Interp) boundsFault(obj *Object, off int, pos ctoken.Pos) {
	if obj == nil {
		in.fail(pos, "null pointer access")
	}
	if obj.Freed {
		in.fail(pos, "use after free of %q", obj.Name)
	}
	in.fail(pos, "index %d out of bounds for %q (size %d)", off, obj.Name, len(obj.Elems))
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
	v := old
	in.bump(&v, delta)
	lv.store(v)
	in.profileStore(lv, v)
	in.addCost(costStore)
}

// bumpVal is storeArith on a frame value slot, in place.
func (in *Interp) bumpVal(slot *Value, key string, delta int64) {
	in.bump(slot, delta)
	in.profileVal(key, slot)
	in.addCost(costStore)
}

// bump adds delta to v as ++ and -- store it, without coercion: a
// pointer moves, a float adds, an integer adds and wraps in FPGA mode.
// An integer keeps its carrier.
func (in *Interp) bump(v *Value, delta int64) {
	switch v.Kind {
	case VPtr:
		v.Off += int(delta)
	case VFloat:
		v.Float += float64(delta)
	default:
		v.Int = in.wrap(v.Int+delta, carrier(v))
	}
}

// intType is an integer carrier: the Width and Unsigned of a VInt.
// The compiler knows it for every typed integer expression.
type intType struct {
	width    int32
	unsigned bool
}

// intT is C int's carrier, which literals, comparisons and logical
// operators produce.
var intT = intType{width: 32}

func carrier(v *Value) intType { return intType{v.Width, v.Unsigned} }

// value is v as a Value of carrier t.
func (t intType) value(v int64) Value {
	return Value{Kind: VInt, Int: v, Width: t.width, Unsigned: t.unsigned}
}

// promote computes the result carrier for integer ops: widest width
// wins, unsigned wins ties (C usual arithmetic conversions,
// simplified), and anything narrower than int promotes to int.
func promote(l, r intType) intType {
	out := l
	if r.width > l.width {
		out = r
	}
	if l.width == r.width && (l.unsigned || r.unsigned) {
		out.unsigned = true
	}
	if out.width < 32 {
		out = intT
	}
	return out
}

// wrap applies fixed-width wrapping in FPGA mode. In CPU mode values
// behave as int64 (the subjects stay within 64-bit ranges, matching C).
func (in *Interp) wrap(v int64, t intType) int64 {
	if in.opts.Mode == FPGA && t.width > 0 && t.width < 64 {
		return WrapInt(v, int(t.width), t.unsigned)
	}
	return v
}

// storeRule is how a store narrows a value to an integer storage type.
type storeRule uint8

const (
	narrowC    storeRule = iota // a C integer wraps to its width on every store
	narrowFPGA                  // fpga_int<N> wraps on the fabric only
	narrowBool                  // bool stores 0 or 1
)

// intStore is an integer storage type: the carrier of every value it
// holds and the rule a store narrows by.
type intStore struct {
	intType
	rule storeRule
}

// intStorage is the integer storage of the resolved type t; ok is false
// for anything but an integer, fpga_int or bool.
func intStorage(t ctypes.Type) (s intStore, ok bool) {
	switch u := t.(type) {
	case ctypes.Int:
		return intStore{intType{int32(u.Width), u.Unsigned}, narrowC}, true
	case ctypes.FPGAInt:
		return intStore{intType{int32(u.Width), u.Unsigned}, narrowFPGA}, true
	case ctypes.Bool:
		return intStore{intType{1, true}, narrowBool}, true
	}
	return intStore{}, false
}

// holds reports whether v is a VInt of carrier t.
func (t intType) holds(v *Value) bool {
	return v.Kind == VInt && v.Width == t.width && v.Unsigned == t.unsigned
}

// convert is v converted to integer storage s as a cast or a store
// converts it: C's integer value (a bool reads its truth), narrowed.
func (in *Interp) convert(s intStore, v *Value) int64 {
	x := v.AsInt()
	if s.rule == narrowBool {
		x = boolToInt(v.Truthy())
	}
	return in.narrow(s, x)
}

// pointee is element v read through a pointer whose pointee type has
// integer storage s: an element of another carrier reads as a cast to
// the pointee type would convert it (an int read through an unsigned
// int pointer reads unsigned).
func (in *Interp) pointee(s intStore, v Value) Value {
	if s.holds(&v) {
		return v
	}
	return s.value(in.convert(s, &v))
}

// narrow converts v, read as C reads an integer (a bool store reads its
// truth), to the value storage s holds.
func (in *Interp) narrow(s intStore, v int64) int64 {
	switch s.rule {
	case narrowC:
		// C narrows on store even on CPU.
		return WrapInt(v, int(s.width), s.unsigned)
	case narrowFPGA:
		if in.opts.Mode == FPGA {
			return WrapInt(v, int(s.width), s.unsigned)
		}
	case narrowBool:
		return boolToInt(v != 0)
	}
	return v
}

// profileVal notes a store of v to a variable whose Profiles key is
// known at compile time.
func (in *Interp) profileVal(key string, v *Value) {
	if in.opts.Profile && v.Kind == VInt {
		in.noteProfile(key, v.Int)
	}
}

// profileStore notes a store of v through lv.
func (in *Interp) profileStore(lv lvalue, v Value) {
	if v.Kind == VInt {
		in.profileElem(lv.obj, v.Int)
	}
}

// profileElem notes a store of the integer v into obj, keyed by the
// running function and obj's name.
func (in *Interp) profileElem(obj *Object, v int64) {
	if !in.opts.Profile || len(in.frames) == 0 {
		return
	}
	in.noteProfile(in.profileKey(in.top().fn, obj.Name), v)
}

// applyBinary applies a binary operator. The operands are passed by
// pointer and only read: a Value is six words. Integer operands share
// C's rules with compiled integer expressions: promote, intArith and
// intCompare.
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
	if isCompare(op) {
		return BoolValue(in.intCompare(op, l.Int, r.Int))
	}
	// The result copies the wider operand (the left one on a tie),
	// kind included; only its carrier and value change.
	res := promote(carrier(l), carrier(r))
	out := *l
	if r.Width > l.Width {
		out = *r
	}
	out.Width, out.Unsigned = res.width, res.unsigned
	out.Int = in.intArith(op, l.Int, r.Int, l.Unsigned, res, pos)
	return out
}

// isCompare reports whether op is a comparison, whose result is a C int
// 0 or 1 whatever its operands.
func isCompare(op ctoken.Kind) bool {
	switch op {
	case ctoken.LSS, ctoken.GTR, ctoken.LEQ, ctoken.GEQ, ctoken.EQL, ctoken.NEQ:
		return true
	}
	return false
}

// intCompare applies an integer comparison.
func (in *Interp) intCompare(op ctoken.Kind, l, r int64) bool {
	in.addCost(costIAdd)
	switch op {
	case ctoken.LSS:
		return l < r
	case ctoken.GTR:
		return l > r
	case ctoken.LEQ:
		return l <= r
	case ctoken.GEQ:
		return l >= r
	case ctoken.EQL:
		return l == r
	}
	return l != r
}

// intArith applies an integer arithmetic or shift operator: C's operator
// table. lu is the left operand's signedness (>> is logical on an
// unsigned left operand) and res the promoted carrier, which the result
// wraps to in FPGA mode. Division and modulo by zero fail after their
// cost is counted.
func (in *Interp) intArith(op ctoken.Kind, l, r int64, lu bool, res intType, pos ctoken.Pos) int64 {
	in.addCost(costForIntOp(op))
	var v int64
	switch op {
	case ctoken.ADD:
		v = l + r
	case ctoken.SUB:
		v = l - r
	case ctoken.MUL:
		v = l * r
	case ctoken.QUO:
		if r == 0 {
			in.fail(pos, "integer division by zero")
		}
		v = l / r
	case ctoken.REM:
		if r == 0 {
			in.fail(pos, "integer modulo by zero")
		}
		v = l % r
	case ctoken.AND:
		v = l & r
	case ctoken.OR:
		v = l | r
	case ctoken.XOR:
		v = l ^ r
	case ctoken.SHL:
		v = l << uint(r&63)
	case ctoken.SHR:
		if lu {
			v = int64(uint64(l) >> uint(r&63))
		} else {
			v = l >> uint(r&63)
		}
	default:
		in.fail(pos, "invalid integer operator %s", op)
	}
	return in.wrap(v, res)
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
	rt := ctypes.Resolve(t)
	if s, ok := intStorage(rt); ok {
		return s.value(in.convert(s, &v))
	}
	switch u := rt.(type) {
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
