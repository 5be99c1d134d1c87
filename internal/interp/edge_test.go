package interp

import (
	"math"
	"strings"
	"testing"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/ctypes"
)

func TestCustomFloatTruncation(t *testing.T) {
	// fpga_float<8,23> carries a 23-bit mantissa (IEEE single): storing
	// 1/3 into it on the fabric loses the double-precision tail.
	src := `
fpga_float<8,23> g;
double f(double x) {
    g = x;
    return g;
}`
	u := cparser.MustParse(src)
	fp, _ := New(u, Options{Mode: FPGA})
	res, err := fp.CallKernel("f", []Value{FloatValue(1.0 / 3.0)})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Ret.AsFloat()
	if got == 1.0/3.0 {
		t.Error("23-bit mantissa should lose precision vs float64")
	}
	if math.Abs(got-1.0/3.0) > 1e-6 {
		t.Errorf("truncation too aggressive: %g", got)
	}
	// The wide default float<8,71> keeps full precision.
	wide := cparser.MustParse(`
fpga_float<8,71> g;
double f(double x) {
    g = x;
    return g;
}`)
	fpw, _ := New(wide, Options{Mode: FPGA})
	res, _ = fpw.CallKernel("f", []Value{FloatValue(1.0 / 3.0)})
	if res.Ret.AsFloat() != 1.0/3.0 {
		t.Error("71-bit mantissa must not truncate float64 values")
	}
}

func TestPointerArithmeticWalk(t *testing.T) {
	src := `
int sum(int a[8]) {
    int *p = &a[0];
    int s = 0;
    for (int i = 0; i < 8; i++) {
        s += *p;
        p++;
    }
    return s;
}`
	u := cparser.MustParse(src)
	in, _ := New(u, Options{})
	vals := make([]Value, 8)
	for i := range vals {
		vals[i] = IntValue(int64(i + 1))
	}
	arr := NewArrayObject("a", ctypes.IntT, vals)
	res, err := in.CallKernel("sum", []Value{arr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret.AsInt() != 36 {
		t.Errorf("pointer walk sum = %d", res.Ret.AsInt())
	}
}

func TestPointerDifferenceAndComparison(t *testing.T) {
	src := `
int f(int a[8]) {
    int *lo = &a[1];
    int *hi = &a[6];
    int d = hi - lo;
    if (lo < hi) { d += 100; }
    if (lo == hi) { d += 1000; }
    return d;
}`
	u := cparser.MustParse(src)
	in, _ := New(u, Options{})
	arr := NewArrayObject("a", ctypes.IntT, make([]Value, 8))
	res, err := in.CallKernel("f", []Value{arr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret.AsInt() != 105 {
		t.Errorf("pointer difference/compare = %d, want 105", res.Ret.AsInt())
	}
}

func TestMultiDimVLA(t *testing.T) {
	src := `
int f(int r, int c) {
    if (r < 1) { r = 1; }
    if (c < 1) { c = 1; }
    if (r > 8) { r = 8; }
    if (c > 8) { c = 8; }
    int m[r][c];
    int k = 0;
    for (int i = 0; i < r; i++) {
        for (int j = 0; j < c; j++) { m[i][j] = k; k++; }
    }
    return m[r - 1][c - 1];
}`
	u := cparser.MustParse(src)
	in, _ := New(u, Options{})
	res, err := in.CallKernel("f", []Value{IntValue(3), IntValue(4)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret.AsInt() != 11 {
		t.Errorf("m[2][3] = %d, want 11", res.Ret.AsInt())
	}
}

func TestVLAForbiddenOnFPGA(t *testing.T) {
	src := `
int f(int n) {
    if (n < 1) { n = 1; }
    if (n > 8) { n = 8; }
    int buf[n];
    buf[0] = 7;
    return buf[0];
}`
	u := cparser.MustParse(src)
	fp, _ := New(u, Options{Mode: FPGA})
	if _, err := fp.CallKernel("f", []Value{IntValue(4)}); err == nil {
		t.Error("VLA must fault under fabric semantics")
	}
	cpu, _ := New(u, Options{Mode: CPU})
	if _, err := cpu.CallKernel("f", []Value{IntValue(4)}); err != nil {
		t.Errorf("VLA must work under CPU semantics: %v", err)
	}
}

func TestCoverageTernaryAndSwitch(t *testing.T) {
	src := `
int f(int x) {
    int sign = x < 0 ? -1 : 1;
    switch (x % 3) {
    case 0:
        return sign;
    case 1:
        return sign * 2;
    default:
        return sign * 3;
    }
}`
	u := cparser.MustParse(src)
	in, _ := New(u, Options{Coverage: true})
	for _, v := range []int64{-3, 1, 5, 0} {
		if _, err := in.CallKernel("f", []Value{IntValue(v)}); err != nil {
			t.Fatal(err)
		}
	}
	// Ternary both outcomes + three switch arms = 5 outcomes at least.
	if got := in.CoverageCount(); got < 5 {
		t.Errorf("coverage outcomes %d, want >= 5", got)
	}
}

func TestFormatCEdgeCases(t *testing.T) {
	cases := []struct {
		format string
		args   []Value
		want   string
	}{
		{"plain", nil, "plain"},
		{"%d%%", []Value{IntValue(5)}, "5%"},
		{"%05d", []Value{IntValue(42)}, "42"}, // width ignored, value kept
		{"%g!", []Value{FloatValue(0.5)}, "0.5!"},
		{"%c", []Value{IntValue(88)}, "X"},
		{"missing %d %d", []Value{IntValue(1)}, "missing 1 0"},
		{"trailing %", []Value{}, "trailing %"},
	}
	for _, c := range cases {
		if got := formatC(c.format, c.args); got != c.want {
			t.Errorf("formatC(%q) = %q, want %q", c.format, got, c.want)
		}
	}
}

func TestStructReturnByValue(t *testing.T) {
	src := `
struct P { int x; int y; };
struct P mk(int a, int b) {
    struct P p;
    p.x = a;
    p.y = b;
    return p;
}
int f() {
    struct P q = mk(3, 4);
    struct P r = mk(5, 6);
    return q.x * 1000 + r.y;
}`
	u := cparser.MustParse(src)
	in, _ := New(u, Options{})
	res, err := in.CallKernel("f", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret.AsInt() != 3006 {
		t.Errorf("struct return = %d, want 3006", res.Ret.AsInt())
	}
}

func TestGlobalArrayInitializerList(t *testing.T) {
	src := `
int table[4] = {10, 20, 30, 40};
int f(int i) {
    if (i < 0) { i = 0; }
    if (i > 3) { i = 3; }
    return table[i];
}`
	u := cparser.MustParse(src)
	in, _ := New(u, Options{})
	res, err := in.CallKernel("f", []Value{IntValue(2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret.AsInt() != 30 {
		t.Errorf("table[2] = %d", res.Ret.AsInt())
	}
}

func TestMathBuiltins(t *testing.T) {
	src := `
double f(double x) {
    double a = sqrt(x);
    double b = fabs(0.0 - a);
    double c = pow(b, 2.0);
    double d = fmin(c, 100.0) + fmax(0.5, 0.25);
    return floor(d) + ceil(0.25);
}`
	u := cparser.MustParse(src)
	in, _ := New(u, Options{})
	res, err := in.CallKernel("f", []Value{FloatValue(9.0)})
	if err != nil {
		t.Fatal(err)
	}
	// sqrt(9)=3, pow=9, +0.5 => 9.5, floor=9, +ceil(0.25)=1 => 10
	if res.Ret.AsFloat() != 10 {
		t.Errorf("math chain = %g, want 10", res.Ret.AsFloat())
	}
}

func TestStepLimitMessage(t *testing.T) {
	u := cparser.MustParse(`int f() { while (1) { } return 0; }`)
	in, _ := New(u, Options{MaxSteps: 1000})
	_, err := in.CallKernel("f", nil)
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("want step-limit error, got %v", err)
	}
}

func TestPrototypeThenDefinition(t *testing.T) {
	src := `
int helper(int x);
int caller(int y) { return helper(y) + 1; }
int helper(int x) { return x * 2; }`
	u := cparser.MustParse(src)
	in, _ := New(u, Options{})
	res, err := in.CallKernel("caller", []Value{IntValue(10)})
	if err != nil {
		t.Fatalf("prototype resolution: %v", err)
	}
	if res.Ret.AsInt() != 21 {
		t.Errorf("caller(10) = %d, want 21", res.Ret.AsInt())
	}
}

func TestCompilerDefectIsRuntimeError(t *testing.T) {
	u := cparser.MustParse(`int f(int x) { x = x + 1; return x; }`)
	// An expression statement without an expression cannot come from the
	// parser; compiling it panics inside the compiler.
	u.Func("f").Body.Stmts[0].(*cast.ExprStmt).X = nil
	in, err := New(u, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = in.CallKernel("f", []Value{IntValue(1)})
	re, ok := err.(*RuntimeError)
	if !ok || !strings.Contains(re.Msg, `internal compiler error in "f"`) {
		t.Fatalf("got %v, want an internal compiler error", err)
	}
}
