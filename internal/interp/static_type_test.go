package interp_test

import (
	"testing"

	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/interp"
)

// TestStaticTypeSemantics pins the run-time results that depend on an
// expression's static type: sizeof of an expression, the stride of
// indexing through pointer arithmetic, and a dereference of it. The
// interpreter reads these types from cast's typer, so a comparison must
// size as int and 1 + p must keep p's pointer type.
func TestStaticTypeSemantics(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int64
	}{
		{name: "sizeof comparison of doubles", want: 4, src: `
int f() {
    double a = 1.5;
    double b = 2.5;
    return sizeof(a < b);
}`},
		{name: "sizeof pointer plus int", want: 8, src: `
int f() {
    short v[4];
    short *p = v;
    return sizeof(1 + p);
}`},
		{name: "index through int plus short pointer", want: 30, src: `
int f() {
    short v[4] = {10, 20, 30, 40};
    short *p = v;
    return (1 + p)[1];
}`},
		{name: "deref int plus short pointer", want: 20, src: `
int f() {
    short v[4] = {10, 20, 30, 40};
    short *p = v;
    return *(1 + p);
}`},
		{name: "index through int plus row pointer", want: 5, src: `
typedef int row[3];
int g(row *q) { return (0 + q)[1][2]; }
int f() {
    int m[2][3] = {{0, 1, 2}, {3, 4, 5}};
    return g(m);
}`},
		{name: "sizeof deref int plus row pointer", want: 12, src: `
typedef int row[3];
int g(row *q) { return sizeof(*(0 + q)); }
int f() {
    int m[2][3] = {{0, 1, 2}, {3, 4, 5}};
    return g(m);
}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in, err := interp.New(cparser.MustParse(c.src), interp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := in.CallKernel("f", nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Ret.AsInt(); got != c.want {
				t.Errorf("f() = %d, want %d", got, c.want)
			}
		})
	}
}
