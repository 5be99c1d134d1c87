package interp

import (
	"testing"

	"github.com/hetero/heterogen/internal/cparser"
)

// TestSharedZeroIsolation checks the shared zero of zero-filled struct
// arrays (fillZero). A kernel writes some elements of a global array, a
// local array and, in CPU mode, a malloc'd block: through a field, a
// nested field, a reference parameter, a pointer, and a whole-struct
// store of a written copy. Afterwards every element it did not write
// reads all-zero, every element it neither wrote nor read whole still
// holds the array's shared zero, that zero reads all-zero, and no
// written element holds any part of it.
func TestSharedZeroIsolation(t *testing.T) {
	u := cparser.MustParse(`
struct In { int a; int b; };
struct S { int x; struct In in; };
struct S g[8];
struct S *loc;
struct S *heap;
void bump(struct S &s, int v) { s.in.a = v; }
int f(int n, int useHeap) {
    struct S l[8];
    loc = l;
    g[1].x = n;
    g[3].in.b = n + 1;
    bump(g[5], n + 2);
    struct S t = g[6];
    t.x = n + 3;
    l[2] = t;
    l[4].in.a = n + 4;
    struct S *p = &l[7];
    p->x = n + 5;
    if (useHeap) {
        heap = (struct S *)malloc(8 * sizeof(struct S));
        heap[0].in.b = n + 6;
        struct S h = heap[3];
        h.in.a = n + 7;
        heap[6] = h;
    }
    return g[1].x + g[3].in.b + g[5].in.a + l[2].x + l[4].in.a + l[7].x;
}`)
	const zero = "{0, {0, 0}}"
	type array struct {
		name      string
		written   []int
		readWhole []int
	}
	arrays := []array{
		{"g", []int{1, 3, 5}, []int{6}},
		{"loc", []int{2, 4, 7}, nil},
		{"heap", []int{0, 6}, []int{3}},
	}
	for _, mode := range []Mode{CPU, FPGA} {
		in, err := New(u, Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		useHeap := int64(0)
		if mode == CPU {
			useHeap = 1
		}
		res, err := in.CallKernel("f", []Value{IntValue(10), IntValue(useHeap)})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if got := res.Ret.Int; got != 10+11+12+13+14+15 {
			t.Errorf("mode %d: f returned %d, want %d", mode, got, 10+11+12+13+14+15)
		}
		for _, a := range arrays {
			obj := in.globals[a.name].obj
			if obj == nil {
				// A pointer global: the kernel left it at the array.
				if obj = in.globals[a.name].lv.load().Obj; obj == nil && a.name == "heap" && mode == FPGA {
					continue
				}
			}
			elems := obj.Elems
			among := func(i int, set []int) bool {
				for _, j := range set {
					if i == j {
						return true
					}
				}
				return false
			}
			var shared *Aggregate
			for i, e := range elems {
				switch {
				case among(i, a.written):
					continue
				case e.String() != zero:
					t.Errorf("mode %d: unwritten %s[%d] reads %s, want %s", mode, a.name, i, e, zero)
				case among(i, a.readWhole):
					if e.shared {
						t.Errorf("mode %d: %s[%d], read whole, still holds the shared zero", mode, a.name, i)
					}
				case shared == nil:
					shared = e.Aggregate
				case e.Aggregate != shared:
					t.Errorf("mode %d: untouched %s[%d] does not hold the array's one zero", mode, a.name, i)
				}
			}
			if shared == nil || !shared.shared || !shared.Fields[1].shared {
				t.Fatalf("mode %d: %s: untouched elements hold no shared zero", mode, a.name)
			}
			if got := (Value{Kind: VStruct, Aggregate: shared}).String(); got != zero {
				t.Errorf("mode %d: %s: the shared zero reads %s, want %s", mode, a.name, got, zero)
			}
			for _, i := range a.written {
				e := elems[i]
				if e.String() == zero {
					t.Errorf("mode %d: written %s[%d] reads zero", mode, a.name, i)
				}
				if e.shared || e.Aggregate == shared || e.Fields[1].shared || e.Fields[1].Aggregate == shared.Fields[1].Aggregate {
					t.Errorf("mode %d: written %s[%d] holds part of the shared zero", mode, a.name, i)
				}
			}
		}
	}
}
