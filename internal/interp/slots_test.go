package interp_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/ctypes"
	"github.com/hetero/heterogen/internal/interp"
)

// slotStores stores into integer frame slots of every integer storage
// type in every way a program can: parameter binding, declarations with
// and without initializers, =, every compound assignment, prefix and
// postfix ++ and --, from typed, float, bool, char, pointer and
// comparison right-hand sides.
const slotStores = `
int f(int a, unsigned char b, fpga_int<5> c, fpga_uint<12> d, bool e, long g, short h, unsigned k, int *q) {
    int x0 = 2.5;
    unsigned char x1 = a * 1000;
    fpga_int<5> x2;
    fpga_uint<12> x3 = x2 - 1;
    bool x4 = 0.25;
    long x5 = b;
    short x6 = 'z';
    unsigned x7 = -1;
    double fl = 7.75;
    a = 1.5;
    b = a * 300;
    c = d;
    d += 4000;
    e = g;
    g <<= 40;
    h -= 70000;
    k *= -3;
    x0 += fl;
    x1 = x1 - 7;
    x2++;
    x3--;
    ++x4;
    --x5;
    x6 = e ? b : k;
    x7 >>= 1;
    a /= 2;
    b %= 7;
    c ^= 21;
    d |= 4095;
    e &= 2;
    g -= q == 0;
    h = (bool)h;
    k = (char)k + fl;
    x0 = (long)q;
    x1 += x7;
    x2 = x2 * x3;
    x3 = x0 < x1;
    x4 = x4 + 3;
    x5 = b++ + c-- + ++d + --e;
    x6 *= x6;
    x7 = 'a';
    return a;
}`

// TestIntSlotsKeepCarrier guards the invariant the typed integer path
// reads slots by: a frame-slot scalar of integer storage type always
// holds a VInt of its declared width and signedness, whatever store
// wrote it last.
func TestIntSlotsKeepCarrier(t *testing.T) {
	u := cparser.MustParse(slotStores)
	fn := u.Func("f")
	var want []interp.Value
	for _, p := range fn.Params {
		rt := ctypes.Resolve(p.Type)
		if a, ok := rt.(ctypes.Array); ok {
			rt = ctypes.Pointer{Elem: a.Elem}
		}
		want = append(want, interp.ZeroValue(rt))
	}
	cast.Inspect(fn.Body, func(n cast.Node) bool {
		if d, ok := n.(*cast.DeclStmt); ok {
			want = append(want, interp.ZeroValue(d.Type))
		}
		return true
	})
	for _, mode := range []interp.Mode{interp.CPU, interp.FPGA} {
		args := []interp.Value{
			interp.IntValue(-9), interp.IntValue(300), interp.IntValue(40), interp.IntValue(-1),
			interp.IntValue(2), interp.IntValue(-3), interp.IntValue(40000), interp.IntValue(-5),
			interp.NewArrayObject("q", ctypes.IntT, make([]interp.Value, 2)),
		}
		vals, err := interp.SlotValues(u, interp.Options{Mode: mode, Profile: true}, "f", args)
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != len(want) {
			t.Fatalf("%s: %d value slots, want %d (a local was boxed)", modeName(mode), len(vals), len(want))
		}
		for i, v := range vals {
			w := want[i]
			if v.Kind != w.Kind || v.Width != w.Width || v.Unsigned != w.Unsigned {
				t.Errorf("%s: slot %d holds %s of kind %d, width %d, unsigned %v; declared kind %d, width %d, unsigned %v",
					modeName(mode), i, v, v.Kind, v.Width, v.Unsigned, w.Kind, w.Width, w.Unsigned)
			}
		}
	}
}

// elemTypes are the integer storage types TestIntElemsKeepCarrier
// stores into, one array of each per scope.
var elemTypes = []string{"int", "unsigned char", "fpga_int<5>", "fpga_uint<12>", "bool", "long", "short", "unsigned"}

// elemStores builds a kernel f that stores into integer arrays of
// every elemTypes type in every way a program can: =, every compound
// assignment, prefix and postfix ++ and --, from typed, float, bool,
// char, comparison and other-element right-hand sides. It does so into
// local arrays, global arrays and the arrays its pointer parameters
// point to, and through an unsigned char view of its int array. It
// then passes the local and global arrays to seen.
func elemStores() string {
	var sb strings.Builder
	stores := func(x string) {
		for _, s := range []string{
			"@[0] = n * 1000;", "@[1] = fl;", "@[2] = 'z';", "@[3] = q == 0;",
			"@[0] += n;", "@[1] -= fl;", "@[2] *= b0[1];", "@[3] /= 2;", "@[0] %= 5;",
			"@[1] &= 29;", "@[2] |= e0[1];", "@[3] ^= 'a';", "@[0] <<= 3;", "@[1] >>= 1;",
			"@[2] += (bool)n;", "@[3] -= fl * 3;",
			"@[0]++;", "@[1]--;", "++@[2];", "--@[3];",
			"@[(n + 1) & 3] = @[n & 3] + 1;",
		} {
			sb.WriteString("    " + strings.ReplaceAll(s, "@", x) + "\n")
		}
	}
	var params, locals, globals []string
	for i, t := range elemTypes {
		fmt.Fprintf(&sb, "%s g%d[4];\n", t, i)
		params = append(params, fmt.Sprintf("%s *p%d", t, i))
		locals = append(locals, fmt.Sprintf("l%d", i))
		globals = append(globals, fmt.Sprintf("g%d", i))
	}
	var seen []string
	for i, t := range elemTypes {
		seen = append(seen, fmt.Sprintf("%s *l%d", t, i), fmt.Sprintf("%s *g%d", t, i))
	}
	fmt.Fprintf(&sb, "void seen(%s) { }\n", strings.Join(seen, ", "))
	fmt.Fprintf(&sb, "int f(int n, %s) {\n", strings.Join(params, ", "))
	for i, t := range elemTypes {
		fmt.Fprintf(&sb, "    %s l%d[4];\n", t, i)
	}
	sb.WriteString("    unsigned char b0[4];\n    bool e0[4];\n    double fl = 7.75;\n    int *q = p0;\n")
	sb.WriteString("    b0[1] = 300;\n    e0[1] = 5;\n")
	for i := range elemTypes {
		stores(fmt.Sprintf("l%d", i))
		stores(fmt.Sprintf("g%d", i))
		stores(fmt.Sprintf("p%d", i))
	}
	sb.WriteString("    unsigned char *v = (unsigned char *)l0;\n    v[1] = 700;\n    v[2] += 1;\n    v[3]++;\n")
	var args []string
	for i := range elemTypes {
		args = append(args, locals[i], globals[i])
	}
	fmt.Fprintf(&sb, "    seen(%s);\n    return l0[0];\n}\n", strings.Join(args, ", "))
	return sb.String()
}

// TestIntElemsKeepCarrier guards what typed element loads rest on: an
// array of integer storage type holds VInts of its element type's width
// and signedness, whatever store wrote them last, including a store
// through a pointer to another integer type.
func TestIntElemsKeepCarrier(t *testing.T) {
	u := cparser.MustParse(elemStores())
	for _, mode := range []interp.Mode{interp.CPU, interp.FPGA} {
		var arrays []interp.Value
		opts := interp.Options{Mode: mode, Profile: true, CaptureName: "seen", CaptureCall: func(args []interp.Value) { arrays = args }}
		in, err := interp.New(u, opts)
		if err != nil {
			t.Fatal(err)
		}
		args := []interp.Value{interp.IntValue(-3)}
		for _, p := range u.Func("f").Params[1:] {
			elem := ctypes.Resolve(p.Type).(ctypes.Pointer).Elem
			vals := make([]interp.Value, 4)
			for i := range vals {
				vals[i] = interp.ZeroValue(elem)
			}
			args = append(args, interp.NewArrayObject(p.Name, elem, vals))
		}
		if _, err := in.CallKernel("f", args); err != nil {
			t.Fatal(err)
		}
		if len(arrays) != 2*len(elemTypes) {
			t.Fatalf("%s: seen received %d arrays, want %d", modeName(mode), len(arrays), 2*len(elemTypes))
		}
		for _, a := range append(arrays, args[1:]...) {
			want := interp.ZeroValue(a.Obj.Elem)
			for i, v := range a.Obj.Elems {
				if v.Kind != want.Kind || v.Width != want.Width || v.Unsigned != want.Unsigned {
					t.Errorf("%s: %s[%d] holds %s of kind %d, width %d, unsigned %v; declared kind %d, width %d, unsigned %v",
						modeName(mode), a.Obj.Name, i, v, v.Kind, v.Width, v.Unsigned, want.Kind, want.Width, want.Unsigned)
				}
			}
		}
	}
}
