package interp_test

import (
	"testing"
	"unsafe"

	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/interp"
)

// TestValueSize guards the narrow Value: every array element and every
// evaluation result is one Value, and copying it is the VM's inner loop.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(interp.Value{}); n > 48 {
		t.Errorf("interp.Value is %d bytes, want at most 48", n)
	}
}

// TestScalarLocalsDoNotAllocate guards frame-slot scalars: declaring,
// reading, assigning and incrementing int locals in a loop body, with
// profiling on, allocates nothing per iteration.
func TestScalarLocalsDoNotAllocate(t *testing.T) {
	u := cparser.MustParse(`
int f(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        int x = i * 3;
        int y = x ^ acc;
        acc += y & 7;
        y++;
        --x;
        acc = acc - (x + y) % 5;
    }
    return acc;
}`)
	in, err := interp.New(u, interp.Options{Profile: true, Coverage: true})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int64) float64 {
		args := []interp.Value{interp.IntValue(n)}
		return testing.AllocsPerRun(20, func() {
			if err := in.Reset(); err != nil {
				t.Fatal(err)
			}
			if _, err := in.CallKernel("f", args); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(10), allocs(1000)
	if long != short {
		t.Errorf("allocations per run: %v at 10 iterations, %v at 1000; loop-body scalars allocate", short, long)
	}
}
