package cast_test

import (
	"testing"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/ctypes"
)

// TestTypeOf types one expression statement per row of a kernel body,
// naming each identifier by its parameter or local declaration.
func TestTypeOf(t *testing.T) {
	u, err := cparser.Parse(`
#include <hls_stream.h>
#include <math.h>
struct Acc {
    long total;
    long add(int v) { total += v; return total; }
};
void k(double a, double b, int *p, int c, hls::stream<short> &s, struct Acc acc) {
    a < b;
    1 + p;
    c ? x : p;
    sqrt(a);
    s.read();
    acc.add(c);
    malloc(8);
}`)
	if err != nil {
		t.Fatal(err)
	}
	fn := u.Func("k")
	names := map[string]ctypes.Type{}
	for _, prm := range fn.Params {
		names[prm.Name] = prm.Type
	}
	ident := func(id *cast.Ident) ctypes.Type { return names[id.Name] }
	want := []struct {
		expr string
		typ  ctypes.Type
	}{
		{"a < b", ctypes.IntT},
		{"1 + p", ctypes.Pointer{Elem: ctypes.IntT}},
		{"c ? x : p", ctypes.Pointer{Elem: ctypes.IntT}},
		{"sqrt(a)", ctypes.DoubleT},
		{"s.read()", ctypes.Short},
		{"acc.add(c)", ctypes.Long},
		{"malloc(8)", ctypes.Pointer{Elem: ctypes.Char}},
	}
	if len(fn.Body.Stmts) != len(want) {
		t.Fatalf("body has %d statements, want %d", len(fn.Body.Stmts), len(want))
	}
	for i, w := range want {
		x := fn.Body.Stmts[i].(*cast.ExprStmt).X
		if got := cast.PrintExpr(x); got != w.expr {
			t.Fatalf("statement %d is %q, want %q", i, got, w.expr)
		}
		if got := u.TypeOf(x, ident); got == nil || !got.Equal(w.typ) {
			t.Errorf("TypeOf(%s) = %v, want %v", w.expr, got, w.typ)
		}
	}
}
