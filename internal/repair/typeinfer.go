package repair

import (
	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/ctypes"
)

// typeEnv performs best-effort static typing of expressions inside one
// function, from declarations alone (no execution), typing each name by
// its innermost declaration. The pointer-removal and stack transforms use
// it to decide which expressions denote values of the struct type being
// rewritten.
type typeEnv struct {
	unit    *cast.Unit
	globals map[string]ctypes.Type
	scopes  []map[string]ctypes.Type
}

func newTypeEnv(u *cast.Unit) *typeEnv {
	env := &typeEnv{unit: u, globals: map[string]ctypes.Type{}}
	for _, d := range u.Decls {
		if v, ok := d.(*cast.VarDecl); ok {
			env.globals[v.Name] = v.Type
		}
	}
	return env
}

func (e *typeEnv) push() { e.scopes = append(e.scopes, map[string]ctypes.Type{}) }
func (e *typeEnv) pop()  { e.scopes = e.scopes[:len(e.scopes)-1] }

func (e *typeEnv) define(name string, t ctypes.Type) {
	if len(e.scopes) > 0 {
		e.scopes[len(e.scopes)-1][name] = t
	}
}

func (e *typeEnv) lookup(name string) ctypes.Type {
	for i := len(e.scopes) - 1; i >= 0; i-- {
		if t, ok := e.scopes[i][name]; ok {
			return t
		}
	}
	if t, ok := e.globals[name]; ok {
		return t
	}
	return nil
}

// typeOf is the static type of x at the current scope, nil when unknown.
func (e *typeEnv) typeOf(x cast.Expr) ctypes.Type {
	return e.unit.TypeOf(x, func(id *cast.Ident) ctypes.Type { return e.lookup(id.Name) })
}
