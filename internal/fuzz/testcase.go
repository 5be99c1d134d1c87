package fuzz

import (
	"fmt"
	"math"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/ctypes"
	"github.com/hetero/heterogen/internal/interp"
)

// Arg is one serialized kernel argument: a scalar or an array payload.
// Serialization (rather than holding interp.Values) lets each execution
// materialize fresh storage, so kernels that mutate their inputs cannot
// contaminate the corpus.
type Arg struct {
	IsFloat  bool
	Scalar   bool
	Ints     []int64
	Floats   []float64
	Width    int  // integer width for type-valid mutation
	Unsigned bool // integer signedness
	Elem     ctypes.Type
}

// Clone deep-copies the argument.
func (a Arg) Clone() Arg {
	out := a
	out.Ints = append([]int64(nil), a.Ints...)
	out.Floats = append([]float64(nil), a.Floats...)
	return out
}

// Value materializes the argument as a fresh interpreter value.
func (a Arg) Value() interp.Value { return a.ValueIn(nil) }

// ValueIn is Value with an array argument's elements written into buf
// when buf has the capacity for them; the array storage then owns buf.
// A scalar argument ignores buf.
func (a Arg) ValueIn(buf []interp.Value) interp.Value {
	if a.Scalar {
		if a.IsFloat {
			return interp.FloatValue(a.Floats[0])
		}
		return interp.Value{Kind: interp.VInt, Int: a.Ints[0], Width: int32(a.Width), Unsigned: a.Unsigned}
	}
	vals := buf[:0]
	if n := a.Len(); cap(vals) < n {
		vals = make([]interp.Value, 0, n)
	}
	if a.IsFloat {
		for _, f := range a.Floats {
			vals = append(vals, interp.FloatValue(f))
		}
	} else {
		for _, v := range a.Ints {
			vals = append(vals, interp.Value{Kind: interp.VInt, Int: v, Width: int32(a.Width), Unsigned: a.Unsigned})
		}
	}
	return interp.NewArrayObject("arg", a.Elem, vals)
}

// Len returns the payload length (1 for scalars).
func (a Arg) Len() int {
	if a.IsFloat {
		return len(a.Floats)
	}
	return len(a.Ints)
}

// TestCase is one generated kernel input vector.
type TestCase struct {
	Args []Arg
}

// Clone deep-copies the test case.
func (tc TestCase) Clone() TestCase {
	out := TestCase{Args: make([]Arg, len(tc.Args))}
	for i, a := range tc.Args {
		out.Args[i] = a.Clone()
	}
	return out
}

// Values materializes all arguments.
func (tc TestCase) Values() []interp.Value {
	out := make([]interp.Value, len(tc.Args))
	for i, a := range tc.Args {
		out[i] = a.Value()
	}
	return out
}

// String summarizes the case for diagnostics.
func (tc TestCase) String() string {
	s := "["
	for i, a := range tc.Args {
		if i > 0 {
			s += ", "
		}
		if a.Scalar {
			if a.IsFloat {
				s += fmt.Sprintf("%g", a.Floats[0])
			} else {
				s += fmt.Sprintf("%d", a.Ints[0])
			}
		} else {
			s += fmt.Sprintf("%s[%d]", a.Elem.C(""), a.Len())
		}
	}
	return s + "]"
}

// ---------------------------------------------------------------------------
// Kernel signatures

// Spec describes the kernel's input shape, derived from its declaration.
type Spec struct {
	Kernel string
	Params []Arg // prototypes with zeroed payloads
	// OutParams marks parameters that are outputs (written before read);
	// they are excluded from mutation but materialized for each run.
	OutParams []bool
	// Dict is a dictionary of integer constants harvested from the
	// program's comparisons; equality-guarded branches are unreachable by
	// blind mutation, so probes draw from here (AFL's dictionary idea).
	Dict []int64
}

// DefaultArrayLen sizes pointer parameters with no declared extent.
const DefaultArrayLen = 64

// SpecOf derives a Spec from the kernel's signature. Array extents come
// from the declaration; bare pointer parameters get DefaultArrayLen.
// Output parameters are detected by first-access analysis: a parameter
// whose first access in the body is a write is treated as an output.
func SpecOf(u *cast.Unit, kernel string) (Spec, error) {
	fn := u.Func(kernel)
	if fn == nil {
		return Spec{}, fmt.Errorf("fuzz: kernel %q not found", kernel)
	}
	sp := Spec{Kernel: kernel}
	for _, p := range fn.Params {
		proto, err := protoFor(p.Type)
		if err != nil {
			return Spec{}, fmt.Errorf("fuzz: parameter %q: %w", p.Name, err)
		}
		sp.Params = append(sp.Params, proto)
		sp.OutParams = append(sp.OutParams, isOutputParam(fn, p.Name))
	}
	sp.Dict = constDictionary(u)
	return sp, nil
}

// constDictionary collects integer literals that appear in the program,
// plus their off-by-one neighbours.
func constDictionary(u *cast.Unit) []int64 {
	seen := map[int64]bool{}
	var dict []int64
	add := func(v int64) {
		for _, x := range []int64{v, v - 1, v + 1} {
			if !seen[x] {
				seen[x] = true
				dict = append(dict, x)
			}
		}
	}
	cast.Inspect(u, func(n cast.Node) bool {
		if lit, ok := n.(*cast.IntLit); ok {
			add(lit.Value)
		}
		if len(dict) > 96 {
			return false
		}
		return true
	})
	return dict
}

func protoFor(t ctypes.Type) (Arg, error) {
	switch u := ctypes.Resolve(t).(type) {
	case ctypes.Int:
		return Arg{Scalar: true, Ints: []int64{0}, Width: u.Width, Unsigned: u.Unsigned}, nil
	case ctypes.FPGAInt:
		return Arg{Scalar: true, Ints: []int64{0}, Width: u.Width, Unsigned: u.Unsigned}, nil
	case ctypes.Bool:
		return Arg{Scalar: true, Ints: []int64{0}, Width: 1, Unsigned: true}, nil
	case ctypes.Float, ctypes.FPGAFloat:
		return Arg{Scalar: true, IsFloat: true, Floats: []float64{0}}, nil
	case ctypes.Array:
		n, elem := u.Len, ctypes.Resolve(u.Elem)
		if n < 0 {
			n = DefaultArrayLen
		}
		if inner, ok := elem.(ctypes.Array); ok {
			// Flatten multi-dimensional payloads.
			total := n
			for {
				if inner.Len > 0 {
					total *= inner.Len
				}
				e, ok := ctypes.Resolve(inner.Elem).(ctypes.Array)
				if !ok {
					elem = ctypes.Resolve(inner.Elem)
					break
				}
				inner = e
			}
			n = total
		}
		return arrayProto(n, elem)
	case ctypes.Pointer:
		return arrayProto(DefaultArrayLen, ctypes.Resolve(u.Elem))
	}
	return Arg{}, fmt.Errorf("unsupported kernel parameter type %s", t.C(""))
}

func arrayProto(n int, elem ctypes.Type) (Arg, error) {
	switch e := elem.(type) {
	case ctypes.Int:
		return Arg{Ints: make([]int64, n), Width: e.Width, Unsigned: e.Unsigned, Elem: elem}, nil
	case ctypes.FPGAInt:
		return Arg{Ints: make([]int64, n), Width: e.Width, Unsigned: e.Unsigned, Elem: elem}, nil
	case ctypes.Float, ctypes.FPGAFloat:
		return Arg{IsFloat: true, Floats: make([]float64, n), Elem: elem}, nil
	}
	return Arg{}, fmt.Errorf("unsupported array element type %s", elem.C(""))
}

// isOutputParam reports whether every leading access to name in fn's body
// is a write through an index expression (heuristic first-use analysis).
func isOutputParam(fn *cast.FuncDecl, name string) bool {
	writes, reads := 0, 0
	cast.Inspect(fn, func(n cast.Node) bool {
		if as, ok := n.(*cast.Assign); ok {
			if ix, ok := as.L.(*cast.Index); ok {
				if id, ok := ix.X.(*cast.Ident); ok && id.Name == name {
					writes++
					// Do not descend into the LHS (it would count as a read).
					cast.Inspect(as.R, func(m cast.Node) bool {
						if rid, ok := m.(*cast.Ident); ok && rid.Name == name {
							reads++
						}
						return true
					})
					return false
				}
			}
		}
		if id, ok := n.(*cast.Ident); ok && id.Name == name {
			reads++
		}
		return true
	})
	return writes > 0 && reads <= writes/4
}

// TypeValid reports whether the test case is type-valid for the spec —
// every integer payload fits its declared width. This is the entry-point
// check HeteroGen inserts into the fuzzing loop (§4).
func TypeValid(sp Spec, tc TestCase) bool {
	if len(tc.Args) != len(sp.Params) {
		return false
	}
	for i, a := range tc.Args {
		p := sp.Params[i]
		if a.Scalar != p.Scalar || a.IsFloat != p.IsFloat {
			return false
		}
		if !a.IsFloat {
			for _, v := range a.Ints {
				if interp.WrapInt(v, p.Width, p.Unsigned) != v {
					return false
				}
			}
		} else {
			for _, f := range a.Floats {
				if math.IsNaN(f) {
					return false
				}
			}
		}
	}
	return true
}
