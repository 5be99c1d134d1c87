package interp

import (
	"github.com/hetero/heterogen/internal/ctypes"
)

// lvalue designates a storage location: an element of an Object, possibly
// narrowed to a nested struct field by a field-index path.
type lvalue struct {
	obj  *Object
	off  int
	path []int
	// declared is the declared type at the location (after path), used to
	// wrap stores in FPGA mode.
	declared ctypes.Type
}

// load reads the current value at the location. A struct read first
// gives the element, and each struct on the path, a copy of its own
// where it holds a shared zero (Aggregate.shared), so a shared zero
// never leaves storage and the struct read aliases the storage, as
// reference parameters do.
func (lv lvalue) load() Value {
	v := &lv.obj.Elems[lv.off]
	for _, p := range lv.path {
		v = &v.Fields[p]
	}
	if v.Kind == VStruct && v.Aggregate != nil && v.shared {
		v = &lv.obj.Elems[lv.off]
		v.own()
		for _, p := range lv.path {
			v = &v.Fields[p]
			v.own()
		}
	}
	return *v
}

// store writes v into the location, first giving the element, and each
// struct on the path, a copy of its own where it holds a shared zero.
func (lv lvalue) store(v Value) {
	target := &lv.obj.Elems[lv.off]
	for _, p := range lv.path {
		target.own()
		target = &target.Fields[p]
	}
	*target = v
}

// fieldPaths are the one-step field paths, shared (paths are never
// written in place) so that a field of a variable or an array element
// costs no allocation.
var fieldPaths = func() [][]int {
	p := make([][]int, 32)
	for i := range p {
		p[i] = []int{i}
	}
	return p
}()

// field returns the lvalue of field index i within this struct location.
func (lv lvalue) field(i int, ft ctypes.Type) lvalue {
	out := lv
	if len(lv.path) == 0 && i < len(fieldPaths) {
		out.path = fieldPaths[i]
	} else {
		out.path = append(append(make([]int, 0, len(lv.path)+1), lv.path...), i)
	}
	out.declared = ft
	return out
}

// binding associates a name with its storage and declared type. Reference
// parameters bind directly to the caller's storage.
type binding struct {
	lv   lvalue
	typ  ctypes.Type
	isLV bool // false for array bindings, which live as whole objects
	obj  *Object
}

// newScalar makes the storage of one non-array variable holding v:
// binding, Object and element in a single allocation.
func newScalar(name string, rt, t ctypes.Type, v Value) *binding {
	x := new(struct {
		b    binding
		obj  Object
		elem [1]Value
	})
	x.elem[0] = v
	x.obj = Object{Name: name, Elem: rt, Elems: x.elem[:]}
	x.b = binding{lv: lvalue{obj: &x.obj, declared: rt}, typ: t, isLV: true}
	return &x.b
}

// newTemp makes the storage of a struct temporary (an initializer-list
// method receiver, or the object a constructor runs on), Object and
// element in one allocation.
func newTemp(name string, st *ctypes.Struct, v Value) lvalue {
	x := new(struct {
		obj  Object
		elem [1]Value
	})
	x.elem[0] = v
	x.obj = Object{Name: name, Elem: st, Elems: x.elem[:]}
	return lvalue{obj: &x.obj, declared: st}
}

// frame is one function activation. The compiler resolves every local
// name to an index in vals (a scalar whose storage nothing but its own
// reads and writes needs) or in slots (everything else); a
// receiver-bound method frame also carries the receiver's storage and
// struct type.
//
// A vals slot of integer storage type (int, fpga_int, bool) always holds
// a VInt of its declared width and signedness, once its declaration or
// parameter binding has run: every writer narrows to the storage type
// (bindParams, declarations, =, compound assignment) or keeps the
// carrier (++, --). Typed integer expressions read such a slot's Int by
// the carrier the compiler knows.
type frame struct {
	fn       string
	receiver lvalue
	recvType *ctypes.Struct
	retVal   Value
	returned bool
	slots    []*binding
	vals     []Value
}

// cleared returns s resized to n zero elements, reusing its array when
// it is large enough.
func cleared[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
