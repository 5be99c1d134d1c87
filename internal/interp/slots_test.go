package interp_test

import (
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
