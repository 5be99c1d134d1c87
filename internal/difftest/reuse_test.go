package difftest

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/hls/sim"
	"github.com/hetero/heterogen/internal/interp"
)

// reuseKernel changes, on every test, a global counter, a global int
// array, a global struct array (zero-filled with the shared zero), a
// static local, its array argument and its printf output; with heap
// set it also reads a malloc'd block at index heap, which faults out
// of bounds for heap >= 4. In FPGA mode malloc itself faults.
const reuseKernel = `
struct P { int x; int y; };
int counter;
int garr[8];
struct P gs[4];
int kernel(int a[4], int n, int heap) {
    static int calls;
    calls++;
    counter += n;
    garr[n & 7] += n + 1;
    gs[n & 3].x += n;
    gs[(n + 1) & 3].y = calls;
    a[n & 3] += counter;
    printf("n=%d counter=%d calls=%d\n", n, counter, calls);
    int r = counter * 1000 + calls * 100 + garr[n & 7] + gs[n & 3].x + gs[(n + 1) & 3].y;
    if (heap) {
        int *h = (int *)malloc(4 * sizeof(int));
        h[0] = n;
        r += h[heap];
    }
    return r;
}`

func reuseCase(n, heap int64) fuzz.TestCase {
	a := fuzz.Arg{Ints: []int64{n, 2 * n, 3 * n, 4 * n}, Width: 32}
	return fuzz.TestCase{Args: []fuzz.Arg{a,
		{Scalar: true, Ints: []int64{n}, Width: 32},
		{Scalar: true, Ints: []int64{heap}, Width: 32}}}
}

func reuseSuite() []fuzz.TestCase {
	return []fuzz.TestCase{
		reuseCase(1, 0), reuseCase(2, 1), reuseCase(3, 5), reuseCase(2, 0),
		reuseCase(5, 2), reuseCase(6, 7), reuseCase(7, 0), reuseCase(1, 3),
	}
}

// render spells out everything an outcome observed.
func render(o Outcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ret=%s cost=%d output=%q err=%v", o.Ret, o.Cost, o.Output, o.Err)
	for _, a := range o.Arrays {
		b.WriteString(" [")
		for i, e := range a {
			if i > 0 {
				b.WriteString(" ")
			}
			b.WriteString(e.String())
		}
		b.WriteString("]")
	}
	return b.String()
}

// TestSuiteRunsLikeFreshInterpreters runs a suite on the Runner's
// reference interpreter and on one candidate simulator, as Run does,
// and checks every test's outcome against the one a freshly built
// interpreter or simulator gives that test alone: the globals, the
// static local, the heap numbering, the argument arrays and the output
// of one test never reach the next.
func TestSuiteRunsLikeFreshInterpreters(t *testing.T) {
	u := cparser.MustParse(reuseKernel)
	cfg := hls.DefaultConfig("kernel")
	tests := reuseSuite()
	r := NewRunner(u, "kernel", cfg, tests, nil, nil)

	faults := 0
	for i, tc := range tests {
		in, err := interp.New(u, interp.Options{MaxSteps: cfg.InterpSteps})
		if err != nil {
			t.Fatal(err)
		}
		want := outcome(tc.Values(), func(args []interp.Value) (interp.Value, int64, string, error) {
			res, err := in.CallKernel("kernel", args)
			return res.Ret, res.Cost, res.Output, err
		})
		if got := r.references()[i]; render(got) != render(want) {
			t.Errorf("CPU test %d: suite run gave\n  %s\nfresh interpreter gave\n  %s", i, render(got), render(want))
		}
		if err := r.references()[i].Err; err != nil {
			faults++
			if !strings.Contains(err.Error(), `"heap#1"`) {
				t.Errorf("CPU test %d: fault %q does not name heap#1", i, err)
			}
		}
	}
	if faults != 2 {
		t.Errorf("%d CPU tests faulted, want 2 (heap index 5 and 7)", faults)
	}

	fpga := fpgaSession(u, cfg, interp.NewCodebase(), "")
	var bufs argBuffers
	var prev []interp.Value
	for i, tc := range tests {
		got := fpga.run(bufs.values(tc))
		s, err := sim.New(u, cfg, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		want := outcome(tc.Values(), func(args []interp.Value) (interp.Value, int64, string, error) {
			res, err := s.Run(args)
			return res.Ret, res.Cycles, res.Output, err
		})
		if render(got) != render(want) {
			t.Errorf("FPGA test %d: suite run gave\n  %s\nfresh simulator gave\n  %s", i, render(got), render(want))
		}
		if i > 0 && &got.Arrays[0][0] != &prev[0] {
			t.Errorf("FPGA test %d: argument array not built into the previous test's backing", i)
		}
		prev = got.Arrays[0]
	}
}

// TestRunnerConcurrentCandidates runs two candidates' suites at once
// through one Runner, sharing its compiled-code cache and fingerprint
// memo, and checks each report against the one a sequential Run gives.
// Under the race detector (make race) it is the Runner's data-race
// proof.
func TestRunnerConcurrentCandidates(t *testing.T) {
	orig := cparser.MustParse(reuseKernel)
	other := cparser.MustParse(strings.Replace(reuseKernel, "counter * 1000", "counter * 999", 1))
	cands := []*cast.Unit{cparser.MustParse(reuseKernel), other}
	var tests []fuzz.TestCase
	for _, tc := range reuseSuite() {
		if tc.Args[2].Ints[0] == 0 {
			tests = append(tests, tc) // malloc faults on the fabric
		}
	}
	cfg := hls.DefaultConfig("kernel")
	want := make([]Report, len(cands))
	for i, c := range cands {
		want[i] = Run(orig, c, "kernel", cfg, tests)
	}
	if !want[0].AllPass() || want[1].Passed != 0 {
		t.Fatalf("sequential reports: identical %+v, divergent %+v", want[0], want[1])
	}

	r := NewRunner(orig, "kernel", cfg, tests, interp.NewCodebase(), cast.NewFingerprints())
	const rounds = 8
	got := make([][]Report, len(cands))
	var wg sync.WaitGroup
	for i, c := range cands {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				got[i] = append(got[i], r.Run(c))
			}
		}()
	}
	wg.Wait()
	for i := range cands {
		for k, rep := range got[i] {
			if fmt.Sprintf("%+v", rep) != fmt.Sprintf("%+v", want[i]) {
				t.Errorf("candidate %d, round %d: concurrent report %+v, sequential %+v", i, k, rep, want[i])
			}
		}
	}
}
