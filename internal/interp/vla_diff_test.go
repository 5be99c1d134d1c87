package interp_test

import (
	"testing"

	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/interp"
)

// TestDiffVLAAgainstTree holds variable-length arrays to the tree
// walker's outcomes recorded in testdata/golden/vla.txt, on the edge
// cases the generated belt rarely reaches: every case runs in CPU and
// FPGA mode, and the outcome — return bits, steps, cost, output,
// coverage, profiles, error text and position — must match the record.
func TestDiffVLAAgainstTree(t *testing.T) {
	golden := loadOutcomes(t, "vla.txt")
	cases := []struct {
		name string
		src  string
		args []int64
	}{
		{name: "param dimension", args: []int64{5}, src: `
int f(int n) {
    int a[n];
    for (int i = 0; i < n; i++) { a[i] = i * i; }
    int s = 0;
    for (int i = 0; i < n; i++) { s += a[i]; }
    return s;
}`},
		{name: "zero dimension", args: []int64{0}, src: `
int f(int n) {
    int a[n];
    return n;
}`},
		{name: "side-effecting dimension", args: []int64{3}, src: `
int f(int n) {
    int a[n++];
    a[2] = n;
    return a[2] * 10 + n;
}`},
		{name: "negative dimension", args: []int64{-1}, src: `
int f(int n) {
    int a[n];
    return 1;
}`},
		{name: "oversized dimension", args: []int64{1<<22 + 1}, src: `
int f(int n) {
    int a[n];
    return 1;
}`},
		{name: "out of bounds", args: []int64{4}, src: `
int f(int n) {
    int a[n];
    a[n] = 1;
    return 0;
}`},
		{name: "initializer list", args: []int64{2}, src: `
int f(int n) {
    int k = 0;
    int a[n] = {k++, k++, k++};
    return a[0] * 100 + a[n - 1] * 10 + k;
}`},
		{name: "redeclared in loop", args: []int64{2}, src: `
int f(int n) {
    int s = 0;
    for (int i = 0; i < 3; i++) {
        int a[n + i];
        a[n + i - 1] = i + s;
        s = s + a[n + i - 1] + sizeof(a);
    }
    return s;
}`},
		{name: "sizeof", args: []int64{5}, src: `
int f(int n) {
    int a[n];
    int m[n][4];
    return sizeof(a) * 1000 + sizeof(m) * 10 + sizeof(a[0]) + sizeof(m[1]);
}`},
		{name: "struct elements", args: []int64{4}, src: `
struct P { int x; int y; };
int f(int n) {
    struct P a[n];
    for (int i = 0; i < n; i++) { a[i].x = i; a[i].y = 2 * i; }
    int s = 0;
    for (int i = 0; i < n; i++) { s += a[i].x * a[i].y; }
    return s;
}`},
		{name: "static inner dimension", args: []int64{3}, src: `
int f(int n) {
    int a[n][4];
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < 4; j++) { a[i][j] = i * 4 + j; }
    }
    return a[n - 1][3] + a[1][2];
}`},
		{name: "passed to callee", args: []int64{6}, src: `
int sum(int *p, int n) {
    int s = 0;
    for (int i = 0; i < n; i++) { s += p[i]; }
    return s;
}
int f(int n) {
    int a[n];
    for (int i = 0; i < n; i++) { a[i] = i + 1; }
    return sum(a, n);
}`},
		{name: "dynamic inner dimension", args: []int64{3}, src: `
int f(int n) {
    int a[4][n];
    a[1][2] = 5;
    return a[1][2];
}`},
		// The only pointer-to-VLA type is &a, which both paths reject
		// before its stride is used.
		{name: "indexed through its address", args: []int64{5}, src: `
int f(int n) {
    int a[n];
    a[3] = 7;
    return (&a)[0][3];
}`},
		{name: "sizeof of an array-typed expression", args: []int64{5}, src: `
int f(int n) {
    int a[n];
    return sizeof(a + 0);
}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			u := cparser.MustParse(c.src)
			args := func() []interp.Value {
				vals := make([]interp.Value, len(c.args))
				for i, a := range c.args {
					vals[i] = interp.IntValue(a)
				}
				return vals
			}
			code := interp.NewCodebase()
			for _, mode := range []interp.Mode{interp.CPU, interp.FPGA} {
				opts := interp.Options{Mode: mode, Coverage: true, Profile: true, Code: code}
				golden.check(t, c.name+"/"+modeName(mode), diffOutcome(u, "f", args(), opts))
			}
		})
	}
}

// TestVLASizeofReadsRuntimeLength pins the sizeof case by value: it
// must report the concretized length (5 ints), not the declaration's
// unknown one.
func TestVLASizeofReadsRuntimeLength(t *testing.T) {
	u := cparser.MustParse(`
int f(int n) {
    int a[n];
    return sizeof(a);
}`)
	in, err := interp.New(u, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.CallKernel("f", []interp.Value{interp.IntValue(5)})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Ret.AsInt(); got != 20 {
		t.Errorf("sizeof(a) = %d, want 20", got)
	}
}
