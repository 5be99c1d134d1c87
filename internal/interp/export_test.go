package interp

import (
	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/ctypes"
)

// CompileInto compiles fn into cb exactly as a call would (as a method
// of recv when recv is non-nil) and returns its compile error, if any.
func CompileInto(cb *Codebase, u *cast.Unit, fn *cast.FuncDecl, recv *ctypes.Struct) error {
	if err := cb.get(u, fn, recv, "").err; err != nil {
		return err
	}
	return nil
}
