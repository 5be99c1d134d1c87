package interp_test

import (
	"runtime"
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

// TestResetRefillsGlobalArrays guards Reset's in-place refill: once a
// kernel has run, Reset plus CallKernel on a kernel with a 4096-element
// global array must allocate less per run than the array's backing
// (4096 48-byte Values), so the backing is refilled, not reallocated.
// testing.AllocsPerRun counts objects, not bytes, so it cannot see
// this; the test reads TotalAlloc.
func TestResetRefillsGlobalArrays(t *testing.T) {
	u := cparser.MustParse(`
int g[4096];
int f(int n) {
    g[n] += n;
    return g[n] + g[0];
}`)
	in, err := interp.New(u, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	args := []interp.Value{interp.IntValue(7)}
	run := func() {
		if err := in.Reset(); err != nil {
			t.Fatal(err)
		}
		res, err := in.CallKernel("f", args)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ret.AsInt() != 7 {
			t.Fatalf("f(7) = %d after Reset, want 7", res.Ret.AsInt())
		}
	}
	run()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	if perRun, backing := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(4096*48); perRun >= backing {
		t.Errorf("Reset plus CallKernel allocates %d bytes per run, at least the global array's %d-byte backing", perRun, backing)
	}
}

// TestResetKeepsReturnedStructs checks that Reset's refill writes
// element slots only: a struct an earlier run returned from a global
// struct array keeps its fields after the array is refilled and
// written again.
func TestResetKeepsReturnedStructs(t *testing.T) {
	u := cparser.MustParse(`
struct P { int x; int y; };
struct P gs[4];
struct P f(int n) {
    gs[1].x = n;
    gs[1].y = n + 1;
    return gs[1];
}`)
	for _, mode := range []interp.Mode{interp.CPU, interp.FPGA} {
		in, err := interp.New(u, interp.Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		first, err := in.CallKernel("f", []interp.Value{interp.IntValue(5)})
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Reset(); err != nil {
			t.Fatal(err)
		}
		if _, err := in.CallKernel("f", []interp.Value{interp.IntValue(9)}); err != nil {
			t.Fatal(err)
		}
		if got := first.Ret.String(); got != "{5, 6}" {
			t.Errorf("mode %d: first run's returned struct reads %s after a Reset and a second run, want {5, 6}", mode, got)
		}
	}
}
