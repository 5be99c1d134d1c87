package cparser

import (
	"strings"
	"testing"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/ctypes"
)

func TestParseSimpleFunction(t *testing.T) {
	u := MustParse(`
int add(int a, int b) {
    return a + b;
}`)
	f := u.Func("add")
	if f == nil {
		t.Fatal("function add not found")
	}
	if len(f.Params) != 2 {
		t.Fatalf("params = %d", len(f.Params))
	}
	if !f.Ret.Equal(ctypes.IntT) {
		t.Errorf("return type %v", f.Ret)
	}
	if len(f.Body.Stmts) != 1 {
		t.Errorf("body statements = %d", len(f.Body.Stmts))
	}
	if _, ok := f.Body.Stmts[0].(*cast.Return); !ok {
		t.Errorf("expected return, got %T", f.Body.Stmts[0])
	}
}

func TestParseGlobalsAndTypedefs(t *testing.T) {
	u := MustParse(`
typedef int Node_ptr;
static const int N = 64;
Node_ptr root;
int table[64];
`)
	if _, ok := u.Typedefs["Node_ptr"]; !ok {
		t.Error("typedef Node_ptr missing")
	}
	n := u.Var("N")
	if n == nil || !n.Static || !n.Const {
		t.Errorf("N qualifiers wrong: %+v", n)
	}
	root := u.Var("root")
	if root == nil {
		t.Fatal("root missing")
	}
	if root.Type.C("") != "Node_ptr" {
		t.Errorf("root type %q", root.Type.C(""))
	}
	tab := u.Var("table")
	arr, ok := tab.Type.(ctypes.Array)
	if !ok || arr.Len != 64 {
		t.Errorf("table type %v", tab.Type)
	}
}

func TestParseStructWithPointers(t *testing.T) {
	u := MustParse(`
struct Node {
    float val;
    struct Node *left;
    struct Node *right;
};
struct Node *root;
`)
	st, ok := u.Structs["Node"]
	if !ok {
		t.Fatal("struct Node missing")
	}
	if len(st.Fields) != 3 {
		t.Fatalf("fields = %d", len(st.Fields))
	}
	ptr, ok := st.Fields[1].Type.(ctypes.Pointer)
	if !ok {
		t.Fatalf("left is %T", st.Fields[1].Type)
	}
	inner, ok := ptr.Elem.(*ctypes.Struct)
	if !ok || inner.Tag != "Node" {
		t.Errorf("self-referential pointer resolves to %v", ptr.Elem)
	}
}

func TestParseRecursionAndMalloc(t *testing.T) {
	u := MustParse(`
struct Node { int val; struct Node *left; struct Node *right; };
void init(struct Node **root) {
    *root = (struct Node *)malloc(sizeof(struct Node));
}
void traverse(struct Node *curr) {
    if (curr == 0) { return; }
    traverse(curr->left);
    traverse(curr->right);
}
`)
	tr := u.Func("traverse")
	if tr == nil {
		t.Fatal("traverse missing")
	}
	calls := cast.CallsTo(tr, "traverse")
	if len(calls) != 2 {
		t.Errorf("recursive calls found = %d, want 2", len(calls))
	}
	init := u.Func("init")
	mallocs := cast.CallsTo(init, "malloc")
	if len(mallocs) != 1 {
		t.Errorf("malloc calls = %d", len(mallocs))
	}
}

func TestParseControlFlow(t *testing.T) {
	u := MustParse(`
int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        if (i % 2 == 0) { s += i; } else { s -= i; }
    }
    while (s > 100) { s /= 2; }
    do { s++; } while (s < 0);
    switch (s) {
    case 0:
        return 1;
    case 1:
    default:
        break;
    }
    return s > 0 ? s : -s;
}
`)
	f := u.Func("f")
	if f == nil {
		t.Fatal("f missing")
	}
	var fors, whiles, ifs, switches, conds int
	cast.Inspect(f, func(n cast.Node) bool {
		switch n.(type) {
		case *cast.For:
			fors++
		case *cast.While:
			whiles++
		case *cast.If:
			ifs++
		case *cast.Switch:
			switches++
		case *cast.Cond:
			conds++
		}
		return true
	})
	if fors != 1 || whiles != 2 || ifs != 1 || switches != 1 || conds != 1 {
		t.Errorf("counts: for=%d while=%d if=%d switch=%d cond=%d",
			fors, whiles, ifs, switches, conds)
	}
	if u.NumBranches == 0 {
		t.Error("branches not numbered")
	}
}

func TestParseHLSTypes(t *testing.T) {
	u := MustParse(`
fpga_uint<7> ret;
fpga_int<12> x;
fpga_float<8,71> f;
`)
	if !u.Var("ret").Type.Equal(ctypes.FPGAInt{Width: 7, Unsigned: true}) {
		t.Errorf("ret type %v", u.Var("ret").Type)
	}
	if !u.Var("x").Type.Equal(ctypes.FPGAInt{Width: 12}) {
		t.Errorf("x type %v", u.Var("x").Type)
	}
	if !u.Var("f").Type.Equal(ctypes.FPGAFloat{Exp: 8, Mant: 71}) {
		t.Errorf("f type %v", u.Var("f").Type)
	}
}

func TestParseStreamsAndStructMethods(t *testing.T) {
	u := MustParse(`
#include <hls_stream.h>
struct If2 {
    hls::stream<unsigned> &in;
    hls::stream<unsigned> &out;
    If2(hls::stream<unsigned> &i, hls::stream<unsigned> &o) : in(i), out(o) {}
    unsigned doRead() {
        return in.read();
    }
    void do1() {
        out.write(doRead() + 1);
    }
};
void top(hls::stream<unsigned> &in, hls::stream<unsigned> &out) {
#pragma HLS DATAFLOW
    hls::stream<unsigned> tmp;
    If2{ in, tmp }.do1();
    If2{ tmp, out }.do1();
}
`)
	sd := u.StructOf("If2")
	if sd == nil {
		t.Fatal("struct If2 missing")
	}
	if !sd.HasCtor {
		t.Error("constructor not detected")
	}
	if len(sd.Methods) != 3 {
		t.Errorf("methods = %d, want 3 (ctor, doRead, do1)", len(sd.Methods))
	}
	top := u.Func("top")
	if top == nil {
		t.Fatal("top missing")
	}
	if len(top.Pragmas) != 1 || !strings.Contains(top.Pragmas[0].Text, "DATAFLOW") {
		t.Errorf("top pragmas %v", top.Pragmas)
	}
	// Constructor initializer list desugars to assignments.
	ctor := sd.Methods[0]
	if len(ctor.Body.Stmts) != 2 {
		t.Errorf("ctor body stmts = %d", len(ctor.Body.Stmts))
	}
}

// TestPrintedConstructorParsesBack: cast.Print renders a constructor as
// `void Tag(...)`; parsing that text must still find the constructor,
// or a printed design would check as if it had none.
func TestPrintedConstructorParsesBack(t *testing.T) {
	src := cast.Print(MustParse(`
struct P {
    int a;
    P(int x) : a(x) {}
    int get() { return a; }
};
int k(int x) { return P{x}.get(); }
`))
	if !strings.Contains(src, "void P(int x)") {
		t.Fatalf("printer no longer renders constructors as void methods; revisit this test:\n%s", src)
	}
	again := MustParse(src)
	if sd := again.StructOf("P"); sd == nil || !sd.HasCtor {
		t.Errorf("printed constructor parsed back as a plain method:\n%s", src)
	}
	if got := cast.Print(again); got != src {
		t.Errorf("print/parse round trip changed the text:\n--- first\n%s\n--- second\n%s", src, got)
	}
}

func TestParseLoopPragmaAttachment(t *testing.T) {
	u := MustParse(`
void k(int a[16]) {
    for (int i = 0; i < 16; i++) {
#pragma HLS unroll factor=4
        a[i] = a[i] * 2;
    }
}
`)
	var loop *cast.For
	cast.Inspect(u, func(n cast.Node) bool {
		if f, ok := n.(*cast.For); ok {
			loop = f
		}
		return true
	})
	if loop == nil {
		t.Fatal("loop missing")
	}
	if len(loop.Pragmas) != 1 || !strings.Contains(loop.Pragmas[0].Text, "unroll") {
		t.Fatalf("loop pragmas %v", loop.Pragmas)
	}
}

func TestParseUnknownSizeArray(t *testing.T) {
	u := MustParse(`
void f(int cols) {
    int line_buf[cols];
    line_buf[0] = 1;
}
`)
	var decl *cast.DeclStmt
	cast.Inspect(u, func(n cast.Node) bool {
		if d, ok := n.(*cast.DeclStmt); ok && d.Name == "line_buf" {
			decl = d
		}
		return true
	})
	if decl == nil {
		t.Fatal("line_buf missing")
	}
	arr, ok := decl.Type.(ctypes.Array)
	if !ok || arr.Len != -1 {
		t.Errorf("line_buf type %v; want unknown-size array", decl.Type)
	}
}

func TestParseLongDouble(t *testing.T) {
	u := MustParse(`
int top(int in) {
    long double in_ld = in;
    in_ld = in_ld + 1;
    return (int)in_ld;
}
`)
	var decl *cast.DeclStmt
	cast.Inspect(u, func(n cast.Node) bool {
		if d, ok := n.(*cast.DeclStmt); ok && d.Name == "in_ld" {
			decl = d
		}
		return true
	})
	if decl == nil || !decl.Type.Equal(ctypes.LongDoubleT) {
		t.Fatalf("in_ld type: %+v", decl)
	}
}

func TestParseErrorsReported(t *testing.T) {
	_, err := Parse("int f( {")
	if err == nil {
		t.Error("expected parse error")
	}
	_, err = Parse("@@@")
	if err == nil {
		t.Error("expected lex error surfaced")
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	u := MustParse(`int f() { return 1 + 2 * 3 - 4 / 2; }`)
	ret := u.Func("f").Body.Stmts[0].(*cast.Return)
	// ((1 + (2*3)) - (4/2))
	top, ok := ret.X.(*cast.Binary)
	if !ok {
		t.Fatalf("top %T", ret.X)
	}
	if top.Op.String() != "-" {
		t.Errorf("top op %s", top.Op)
	}
	l := top.L.(*cast.Binary)
	if l.Op.String() != "+" {
		t.Errorf("left op %s", l.Op)
	}
	if lr := l.R.(*cast.Binary); lr.Op.String() != "*" {
		t.Errorf("mul term %s", lr.Op)
	}
}

func TestParseCastAndSizeof(t *testing.T) {
	u := MustParse(`
struct Node { int v; };
void f() {
    struct Node *p = (struct Node *)malloc(sizeof(struct Node));
    int n = sizeof(p);
    float g = (float)n;
    p->v = n;
}
`)
	f := u.Func("f")
	var casts, sizeofTypes, sizeofExprs int
	cast.Inspect(f, func(n cast.Node) bool {
		switch n.(type) {
		case *cast.Cast:
			casts++
		case *cast.SizeofType:
			sizeofTypes++
		case *cast.SizeofExpr:
			sizeofExprs++
		}
		return true
	})
	if casts != 2 || sizeofTypes != 1 || sizeofExprs != 1 {
		t.Errorf("casts=%d sizeofT=%d sizeofE=%d", casts, sizeofTypes, sizeofExprs)
	}
}

// Round trip: print(parse(print(parse(src)))) == print(parse(src)).
func TestPrintParseFixedPoint(t *testing.T) {
	srcs := []string{
		`int add(int a, int b) { return a + b; }`,
		`
struct Node { int val; struct Node *next; };
struct Node *head;
void push(int v) {
    struct Node *n = (struct Node *)malloc(sizeof(struct Node));
    n->val = v;
    n->next = head;
    head = n;
}`,
		`
void kernel(float in[64], float out[64]) {
    for (int i = 0; i < 64; i++) {
#pragma HLS pipeline II=1
        out[i] = in[i] * 2.5 + 1.0;
    }
}`,
		`
int f(int x) {
    switch (x) {
    case 0:
        return 1;
    default:
        return x > 0 ? x : -x;
    }
}`,
		`
typedef unsigned int Node_ptr;
fpga_uint<7> g;
static fpga_float<8,71> h;
`,
	}
	for i, src := range srcs {
		u1, err := Parse(src)
		if err != nil {
			t.Fatalf("case %d: parse 1: %v", i, err)
		}
		p1 := cast.Print(u1)
		u2, err := Parse(p1)
		if err != nil {
			t.Fatalf("case %d: parse 2: %v\nprinted:\n%s", i, err, p1)
		}
		p2 := cast.Print(u2)
		if p1 != p2 {
			t.Errorf("case %d: print not a fixed point\nfirst:\n%s\nsecond:\n%s", i, p1, p2)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	u := MustParse(`
int g;
int f(int x) {
    if (x > 0) { g = x; }
    return g;
}`)
	clone := cast.CloneUnit(u)
	// Mutate the clone: rename the function.
	clone.Func("f").Name = "renamed"
	if u.Func("f") == nil {
		t.Error("original mutated through clone")
	}
	if clone.Func("renamed") == nil {
		t.Error("clone edit lost")
	}
	if cast.Print(u) == cast.Print(clone) {
		t.Error("prints should differ after clone edit")
	}
}

func TestCountLines(t *testing.T) {
	u := MustParse(`int f() { return 1; }`)
	if n := cast.CountLines(u); n != 3 { // signature, return, closing brace
		t.Errorf("CountLines = %d", n)
	}
}
