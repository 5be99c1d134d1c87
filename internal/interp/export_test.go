package interp

import (
	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/ctypes"
)

// SiteCounts is a compiled body's typed-path inventory.
type SiteCounts = siteCounts

// Add sums two inventories.
func (s SiteCounts) Add(o SiteCounts) SiteCounts {
	return SiteCounts{
		Binary: s.Binary + o.Binary, BinaryTyped: s.BinaryTyped + o.BinaryTyped,
		Cond: s.Cond + o.Cond, CondTyped: s.CondTyped + o.CondTyped,
		Index: s.Index + o.Index, IndexTyped: s.IndexTyped + o.IndexTyped,
		Load: s.Load + o.Load, LoadTyped: s.LoadTyped + o.LoadTyped,
		Store: s.Store + o.Store, StoreTyped: s.StoreTyped + o.StoreTyped,
	}
}

// CompileInto compiles fn into cb exactly as a call would (as a method
// of recv when recv is non-nil) and returns its typed-path inventory and
// its compile error, if any.
func CompileInto(cb *Codebase, u *cast.Unit, fn *cast.FuncDecl, recv *ctypes.Struct) (SiteCounts, error) {
	cf := cb.get(u, fn, recv, "")
	if cf.err != nil {
		return cf.sites, cf.err
	}
	return cf.sites, nil
}

// SlotValues runs kernel name on args and returns the kernel frame's
// value slots as the call left them, in slot order: parameters, then
// declarations in source order.
func SlotValues(u *cast.Unit, opts Options, name string, args []Value) ([]Value, error) {
	in, err := New(u, opts)
	if err != nil {
		return nil, err
	}
	if _, err := in.CallKernel(name, args); err != nil {
		return nil, err
	}
	// The finished call's frame stays above the stack for reuse.
	return in.frames[:1][0].vals, nil
}
