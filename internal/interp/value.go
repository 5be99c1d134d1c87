// Package interp implements an interpreter for the C/HLS-C subset: it
// compiles each function body once into direct-threaded closures
// (compile.go) and runs them. It provides the three execution services
// HeteroGen depends on:
//
//   - CPU-semantics execution of the original C program (unbounded heap,
//     native recursion) with branch-coverage instrumentation — the fuzzing
//     and differential-testing reference.
//   - Value-range profiling of integer variables, feeding the bitwidth
//     finitization that produces the initial HLS version.
//   - FPGA-semantics execution (bit-width-wrapped arithmetic, bounded
//     stack, no dynamic allocation) used by the HLS simulator, which
//     layers a pragma-aware cycle model on top via hooks.
package interp

import (
	"fmt"
	"math"
	"strings"

	"github.com/hetero/heterogen/internal/ctypes"
)

// ValueKind discriminates runtime values.
type ValueKind uint8

// Runtime value kinds.
const (
	VInt ValueKind = iota
	VFloat
	VPtr
	VStruct
	VStream
	VVoid
)

// Value is a runtime value. Ints carry their declared width/signedness so
// FPGA mode can wrap them; pointers reference an Object plus an element
// offset; structs and streams keep their parts in an Aggregate.
//
// Every array element and every evaluation result is one Value, so it is
// kept to six words: the four payload words, the aggregate pointer, and
// one word packing the kind, the two flags and the width.
type Value struct {
	Int   int64
	Float float64

	Obj *Object // pointer target (nil pointer when Obj == nil)
	Off int     // pointer element offset

	// *Aggregate holds a struct's type and fields or a stream; it is nil
	// for every other kind. Copies of a Value share it, so a field store
	// through one copy shows in all of them; DeepCopy gives a struct its
	// own.
	*Aggregate

	Kind     ValueKind
	Unsigned bool  // integer signedness
	FloatSyn bool  // float value held in a synthesizable (custom) float type
	Width    int32 // integer bit width (32 default, N for fpga_int<N>)
}

// Aggregate is the rarely used part of a Value.
type Aggregate struct {
	Struct *ctypes.Struct // struct type for VStruct
	Fields []Value        // struct field values
	Stream *StreamObj     // the FIFO for VStream
}

// newAggregate allocates the aggregate of a struct with n fields. Up to
// eight fields live in the aggregate's own allocation, so a struct copy
// allocates once.
func newAggregate(st *ctypes.Struct, n int) *Aggregate {
	var a *Aggregate
	switch {
	case n <= 2:
		x := new(struct {
			Aggregate
			buf [2]Value
		})
		x.Fields, a = x.buf[:n:n], &x.Aggregate
	case n <= 4:
		x := new(struct {
			Aggregate
			buf [4]Value
		})
		x.Fields, a = x.buf[:n:n], &x.Aggregate
	case n <= 8:
		x := new(struct {
			Aggregate
			buf [8]Value
		})
		x.Fields, a = x.buf[:n:n], &x.Aggregate
	default:
		a = &Aggregate{Fields: make([]Value, n)}
	}
	a.Struct = st
	return a
}

// Object is a storage cell: every variable, array, and heap allocation is
// one Object holding one or more element slots.
type Object struct {
	Name  string // diagnostic name
	Elems []Value
	Elem  ctypes.Type // element type
	Freed bool
}

// StreamObj is the runtime representation of hls::stream<T>, a FIFO.
type StreamObj struct {
	Name string
	Q    []Value
	// Pushes counts total writes over the stream's lifetime (used by the
	// cycle model to account channel traffic).
	Pushes int
}

// IntValue constructs a C int value.
func IntValue(v int64) Value { return Value{Kind: VInt, Int: v, Width: 32} }

// FloatValue constructs a C double value.
func FloatValue(v float64) Value { return Value{Kind: VFloat, Float: v} }

// BoolValue renders a Go bool as a C int 0/1.
func BoolValue(b bool) Value {
	if b {
		return IntValue(1)
	}
	return IntValue(0)
}

// IsZero reports whether the value is zero/null in the C sense.
func (v Value) IsZero() bool {
	switch v.Kind {
	case VInt:
		return v.Int == 0
	case VFloat:
		return v.Float == 0
	case VPtr:
		return v.Obj == nil
	}
	return false
}

// Truthy is the C truth test.
func (v Value) Truthy() bool { return !v.IsZero() }

// AsFloat converts to float64 following C conversion rules.
func (v Value) AsFloat() float64 {
	if v.Kind == VFloat {
		return v.Float
	}
	if v.Kind == VInt {
		if v.Unsigned {
			return float64(uint64(v.Int))
		}
		return float64(v.Int)
	}
	return 0
}

// AsInt converts to int64 following C conversion rules (trunc for floats).
func (v Value) AsInt() int64 {
	switch v.Kind {
	case VInt:
		return v.Int
	case VFloat:
		return int64(v.Float)
	}
	return 0
}

// String renders the value for diagnostics and output comparison.
func (v Value) String() string {
	switch v.Kind {
	case VInt:
		if v.Unsigned {
			return fmt.Sprintf("%d", uint64(v.Int)&maskFor(int(v.Width)))
		}
		return fmt.Sprintf("%d", v.Int)
	case VFloat:
		return fmt.Sprintf("%g", v.Float)
	case VPtr:
		if v.Obj == nil {
			return "null"
		}
		return fmt.Sprintf("&%s+%d", v.Obj.Name, v.Off)
	case VStruct:
		parts := make([]string, len(v.fields()))
		for i, f := range v.fields() {
			parts[i] = f.String()
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case VStream:
		return fmt.Sprintf("stream(len=%d)", len(v.Stream.Q))
	}
	return "void"
}

// DeepCopy copies a value so that struct assignment has C value semantics.
// Pointers and streams copy shallowly (reference semantics), as in C/HLS.
func (v Value) DeepCopy() Value {
	if v.Kind == VStruct && v.Aggregate != nil {
		a := newAggregate(v.Struct, len(v.Fields))
		for i, f := range v.Fields {
			a.Fields[i] = f.DeepCopy()
		}
		v.Aggregate = a
	}
	return v
}

// fields is v's struct fields, nil when it has no aggregate.
func (v Value) fields() []Value {
	if v.Aggregate == nil {
		return nil
	}
	return v.Fields
}

// Equal compares two values for differential testing. Floats compare with
// a relative tolerance: HLS float conversions legitimately reduce
// precision, and the paper's oracle is "identical input-output behaviour"
// at the precision of the narrower machine.
func Equal(a, b Value, tol float64) bool {
	if a.Kind == VFloat || b.Kind == VFloat {
		af, bf := a.AsFloat(), b.AsFloat()
		// Non-finite values compare by identity: both sides producing
		// NaN (or the same-signed infinity) is behavioural agreement;
		// non-finite against anything else is divergence. The
		// relative-tolerance formula cannot express this — with an
		// infinite operand both diff and bound are +Inf (calling +Inf
		// equal to every finite number), and with NaN every comparison
		// is false (calling NaN unequal even to itself).
		if math.IsNaN(af) || math.IsNaN(bf) {
			return math.IsNaN(af) && math.IsNaN(bf)
		}
		if math.IsInf(af, 0) || math.IsInf(bf, 0) {
			return af == bf
		}
		diff := math.Abs(af - bf)
		mag := math.Max(math.Abs(af), math.Abs(bf))
		return diff <= tol*(1+mag)
	}
	switch a.Kind {
	case VInt:
		return b.Kind == VInt && a.AsInt() == b.AsInt()
	case VPtr:
		return b.Kind == VPtr && a.Obj == b.Obj && a.Off == b.Off
	case VStruct:
		af, bf := a.fields(), b.fields()
		if b.Kind != VStruct || len(af) != len(bf) {
			return false
		}
		for i := range af {
			if !Equal(af[i], bf[i], tol) {
				return false
			}
		}
		return true
	case VVoid:
		return b.Kind == VVoid
	}
	return false
}

func maskFor(width int) uint64 {
	if width <= 0 || width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(width)) - 1
}

// WrapInt applies two's-complement wrapping to width bits, the semantics
// of fpga_int<N>/fpga_uint<N> on the fabric.
func WrapInt(v int64, width int, unsigned bool) int64 {
	if width <= 0 || width >= 64 {
		return v
	}
	m := maskFor(width)
	u := uint64(v) & m
	if unsigned {
		return int64(u)
	}
	// Sign extend.
	sign := uint64(1) << uint(width-1)
	if u&sign != 0 {
		u |= ^m
	}
	return int64(u)
}

// ZeroValue builds the zero value of a type; arrays are represented as
// whole Objects, so asking for an array zero yields a null pointer (array
// storage is created by the declaration site, not here).
func ZeroValue(t ctypes.Type) Value {
	rt := ctypes.Resolve(t)
	if s, ok := intStorage(rt); ok {
		return s.value(0)
	}
	switch u := rt.(type) {
	case ctypes.Float:
		return Value{Kind: VFloat}
	case ctypes.FPGAFloat:
		return Value{Kind: VFloat, FloatSyn: true}
	case ctypes.Pointer:
		return Value{Kind: VPtr}
	case *ctypes.Struct:
		a := newAggregate(u, len(u.Fields))
		for i, f := range u.Fields {
			a.Fields[i] = ZeroValue(f.Type)
		}
		return Value{Kind: VStruct, Aggregate: a}
	case ctypes.Stream:
		x := new(struct {
			Aggregate
			s StreamObj
		})
		x.Stream = &x.s
		return Value{Kind: VStream, Aggregate: &x.Aggregate}
	case ctypes.Array:
		// Handled by declaration; a bare array value decays to null.
		return Value{Kind: VPtr}
	}
	return Value{Kind: VVoid}
}
