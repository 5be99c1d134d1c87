package interp_test

import (
	"errors"
	"testing"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/ctypes"
	"github.com/hetero/heterogen/internal/interp"
	"github.com/hetero/heterogen/internal/progen"
	"github.com/hetero/heterogen/internal/subjects"
)

// badArity are builtin calls with too few arguments; each must fault at
// the call, not crash the interpreter.
var badArity = []struct{ src, msg string }{
	{"int kernel(int x) { return abs(); }", "runtime error at 1:28: abs takes one argument"},
	{"int kernel(int x) { assert(); return x; }", "runtime error at 1:21: assert takes one argument"},
	{"double kernel(double x) { return fmin(x); }", "runtime error at 1:34: fmin takes two arguments"},
	{"double kernel(double x) { return fmax(x); }", "runtime error at 1:34: fmax takes two arguments"},
}

func TestBuiltinArityFaults(t *testing.T) {
	for _, c := range badArity {
		u := cparser.MustParse(c.src)
		for _, mode := range []interp.Mode{interp.CPU, interp.FPGA} {
			in, err := interp.New(u, interp.Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			_, err = in.CallKernel("kernel", []interp.Value{interp.IntValue(-3)})
			var re *interp.RuntimeError
			if !errors.As(err, &re) || err.Error() != c.msg {
				t.Errorf("%s (%s): got %v, want %q", c.src, modeName(mode), err, c.msg)
			}
		}
	}
}

// FuzzExec runs arbitrary programs: the kernel of every input that
// parses (the function named kernel, else the last one defined) runs
// under a 2000-step budget in CPU and FPGA mode and must return a
// result or a *RuntimeError, never panic. The seeds — belt programs,
// the evaluation subjects, Figure 2 and the bad-arity builtin calls —
// run in every `go test`; `go test -fuzz=FuzzExec` runs a campaign.
func FuzzExec(f *testing.F) {
	for seed := 0; seed < 20; seed++ {
		prog := progen.MustGenerate(progen.Options{Seed: int64(seed), Clean: seed%2 == 0})
		f.Add(cast.Print(prog.Unit))
	}
	for _, s := range subjects.All() {
		f.Add(s.Source)
	}
	f.Add(figure2Kernel)
	for _, c := range badArity {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		u, err := cparser.Parse(src)
		if err != nil || oversized(u) {
			return
		}
		fn := fuzzKernel(u)
		if fn == nil {
			return
		}
		for _, mode := range []interp.Mode{interp.CPU, interp.FPGA} {
			in, err := interp.New(u, interp.Options{Mode: mode, MaxSteps: 2000})
			if err == nil {
				_, err = in.CallKernel(fn.Name, fuzzArgs(fn))
			}
			var re *interp.RuntimeError
			if err != nil && !errors.As(err, &re) {
				t.Fatalf("%s: %v is not a *RuntimeError", modeName(mode), err)
			}
		}
	})
}

func fuzzKernel(u *cast.Unit) *cast.FuncDecl {
	if fn := u.Func("kernel"); fn != nil {
		return fn
	}
	var last *cast.FuncDecl
	for _, fn := range u.Funcs() {
		if fn.Body != nil {
			last = fn
		}
	}
	return last
}

// oversized reports a literal large enough to size storage beyond what
// one fuzz execution should allocate.
func oversized(u *cast.Unit) bool {
	big := false
	cast.Inspect(u, func(n cast.Node) bool {
		if lit, ok := n.(*cast.IntLit); ok && (lit.Value > 1<<16 || lit.Value < -(1<<16)) {
			big = true
		}
		return !big
	})
	return big
}

// fuzzArgs builds small deterministic arguments for fn's parameters:
// 3 for integers, 1.5 for floats, and 16-element arrays behind
// pointers and array parameters.
func fuzzArgs(fn *cast.FuncDecl) []interp.Value {
	args := make([]interp.Value, len(fn.Params))
	for i, p := range fn.Params {
		switch t := ctypes.Resolve(p.Type).(type) {
		case ctypes.Array:
			args[i] = fuzzArray(p.Name, t.Elem)
		case ctypes.Pointer:
			args[i] = fuzzArray(p.Name, t.Elem)
		default:
			args[i] = fuzzScalar(t, 3)
		}
	}
	return args
}

func fuzzArray(name string, elem ctypes.Type) interp.Value {
	n := 16
	for {
		a, ok := ctypes.Resolve(elem).(ctypes.Array)
		if !ok || n > 64 {
			break
		}
		if a.Len > 0 {
			n *= a.Len
		}
		elem = a.Elem
	}
	if n > 64 {
		n = 64
	}
	vals := make([]interp.Value, n)
	for i := range vals {
		vals[i] = fuzzScalar(elem, int64(i))
	}
	return interp.NewArrayObject(name, elem, vals)
}

func fuzzScalar(t ctypes.Type, n int64) interp.Value {
	v := interp.ZeroValue(t)
	switch v.Kind {
	case interp.VInt:
		v.Int = n
	case interp.VFloat:
		v.Float = float64(n) + 0.5
	}
	return v
}
