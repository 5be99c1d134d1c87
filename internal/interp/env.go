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

// load reads the current value at the location.
func (lv lvalue) load() Value {
	v := lv.obj.Elems[lv.off]
	for _, p := range lv.path {
		v = v.Fields[p]
	}
	return v
}

// store writes v into the location.
func (lv lvalue) store(v Value) {
	target := &lv.obj.Elems[lv.off]
	for _, p := range lv.path {
		target = &target.Fields[p]
	}
	*target = v
}

// field returns the lvalue of field index i within this struct location.
func (lv lvalue) field(i int, ft ctypes.Type) lvalue {
	out := lv
	out.path = append(append([]int{}, lv.path...), i)
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

// frame is one function activation. The compiler resolves every local
// name to an index in slots; a receiver-bound method frame also carries
// the receiver's storage and struct type.
type frame struct {
	fn       string
	receiver *lvalue
	recvType *ctypes.Struct
	retVal   Value
	returned bool
	slots    []*binding
}
