package interp

import "github.com/hetero/heterogen/internal/cast"

// CompileInto compiles fn into cb exactly as a fast-path call would and
// reports whether it fell back to the tree walker.
func CompileInto(cb *Codebase, u *cast.Unit, fn *cast.FuncDecl) bool {
	return cb.get(u, fn, "").fallback
}
