package fuzz

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/ctypes"
	"github.com/hetero/heterogen/internal/obs"
)

const branchy = `
int kernel(int x, int y) {
    int r = 0;
    if (x > 100) { r += 1; } else { r -= 1; }
    if (y < -50) { r *= 2; }
    if (x == 7) { r += 1000; }
    for (int i = 0; i < y % 8; i++) { r += i; }
    return r;
}`

func TestSpecOfScalars(t *testing.T) {
	u := cparser.MustParse(branchy)
	sp, err := SpecOf(u, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Params) != 2 {
		t.Fatalf("params %d", len(sp.Params))
	}
	for _, p := range sp.Params {
		if !p.Scalar || p.IsFloat || p.Width != 32 {
			t.Errorf("unexpected param proto %+v", p)
		}
	}
}

func TestSpecOfArraysAndOutputs(t *testing.T) {
	u := cparser.MustParse(`
void kernel(float in[16], float out[16]) {
    for (int i = 0; i < 16; i++) { out[i] = in[i] * 2; }
}`)
	sp, err := SpecOf(u, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Params[0].Len() != 16 || !sp.Params[0].IsFloat {
		t.Errorf("in proto %+v", sp.Params[0])
	}
	if sp.OutParams[0] {
		t.Error("in should not be an output")
	}
	if !sp.OutParams[1] {
		t.Error("out should be detected as an output")
	}
}

func TestSpecOfMultiDim(t *testing.T) {
	u := cparser.MustParse(`
void kernel(int m[4][8]) {
    m[0][0] = 1;
}`)
	sp, err := SpecOf(u, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Params[0].Len() != 32 {
		t.Errorf("flattened length %d, want 32", sp.Params[0].Len())
	}
}

func TestCampaignCoversBranches(t *testing.T) {
	u := cparser.MustParse(branchy)
	camp, err := RunContext(context.Background(), u, "kernel", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if camp.Coverage < 0.9 {
		t.Errorf("coverage %.2f, want >= 0.9 (%d/%d outcomes)",
			camp.Coverage, camp.CoveredOutcomes, camp.TotalOutcomes)
	}
	if len(camp.Tests) < 3 {
		t.Errorf("only %d retained tests", len(camp.Tests))
	}
	if camp.Execs == 0 || camp.VirtualSeconds == 0 {
		t.Error("campaign accounting missing")
	}
}

func TestCampaignDeterministic(t *testing.T) {
	u := cparser.MustParse(branchy)
	a, err := RunContext(context.Background(), u, "kernel", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), u, "kernel", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tests) != len(b.Tests) || a.Coverage != b.Coverage || a.Execs != b.Execs {
		t.Errorf("campaigns differ: %v vs %v", a.Summary(), b.Summary())
	}
}

func TestHostSeedCapture(t *testing.T) {
	u := cparser.MustParse(`
int kernel(int x) {
    if (x == 4242) { return 1; }
    return 0;
}
int host() {
    int staged = 4242;
    return kernel(staged);
}`)
	opts := DefaultOptions()
	opts.HostMain = "host"
	camp, err := RunContext(context.Background(), u, "kernel", opts)
	if err != nil {
		t.Fatal(err)
	}
	if !camp.SeededFromHost {
		t.Fatal("host seed not captured")
	}
	if camp.Tests[0].Args[0].Ints[0] != 4242 {
		t.Errorf("seed value %d, want 4242", camp.Tests[0].Args[0].Ints[0])
	}
	// The magic constant branch is reachable only via the captured seed;
	// coverage must include it.
	if camp.Coverage < 1.0 {
		t.Errorf("coverage %.2f with host seed, want 1.0", camp.Coverage)
	}
}

func TestTypedMutationRespectsWidth(t *testing.T) {
	u := cparser.MustParse(`
int kernel(fpga_uint<7> x) {
    if (x > 100) { return 1; }
    return 0;
}`)
	camp, err := RunContext(context.Background(), u, "kernel", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range camp.Tests {
		v := tc.Args[0].Ints[0]
		if v < 0 || v > 127 {
			t.Errorf("type-invalid retained input %d for fpga_uint<7>", v)
		}
	}
}

func TestTypeValid(t *testing.T) {
	sp := Spec{Params: []Arg{{Scalar: true, Ints: []int64{0}, Width: 7, Unsigned: true}}}
	good := TestCase{Args: []Arg{{Scalar: true, Ints: []int64{90}, Width: 7, Unsigned: true}}}
	bad := TestCase{Args: []Arg{{Scalar: true, Ints: []int64{300}, Width: 7, Unsigned: true}}}
	if !TypeValid(sp, good) {
		t.Error("90 fits in 7 unsigned bits")
	}
	if TypeValid(sp, bad) {
		t.Error("300 does not fit in 7 unsigned bits")
	}
}

func TestReplayScoresFixedSuite(t *testing.T) {
	u := cparser.MustParse(branchy)
	sp, _ := SpecOf(u, "kernel")
	mk := func(x, y int64) TestCase {
		tc := TestCase{Args: []Arg{sp.Params[0].Clone(), sp.Params[1].Clone()}}
		tc.Args[0].Ints[0] = x
		tc.Args[1].Ints[0] = y
		return tc
	}
	// One bland test covers few outcomes.
	cov1, err := Replay(u, "kernel", []TestCase{mk(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	cov2, err := Replay(u, "kernel", []TestCase{mk(0, 0), mk(200, -100), mk(7, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if cov2 <= cov1 {
		t.Errorf("richer suite should cover more: %.2f vs %.2f", cov1, cov2)
	}
}

func TestCrashingInputsNotRetained(t *testing.T) {
	u := cparser.MustParse(`
int kernel(int x) {
    int a[8];
    if (x > 0 && x < 100) { return a[x % 8]; }
    return 10 / x;
}`)
	camp, err := RunContext(context.Background(), u, "kernel", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// x == 0 crashes; retained tests must all replay cleanly.
	for _, tc := range camp.Tests {
		if tc.Args[0].Ints[0] == 0 {
			t.Error("crashing input retained in corpus")
		}
	}
}

// Property: clampInt always lands within the declared range.
func TestClampIntProperty(t *testing.T) {
	f := func(v int64, w uint8, unsigned bool) bool {
		width := int(w%30) + 2
		a := Arg{Width: width, Unsigned: unsigned}
		got := clampInt(v, a)
		if unsigned {
			return got >= 0 && got <= (1<<uint(width))-1
		}
		max := int64(1)<<uint(width-1) - 1
		return got >= -max-1 && got <= max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: materialized values round-trip the payload.
func TestArgValueRoundTrip(t *testing.T) {
	f := func(vals []uint8) bool {
		if len(vals) == 0 {
			vals = []uint8{1}
		}
		a := Arg{Ints: make([]int64, len(vals)), Width: 8, Unsigned: true, Elem: ctypes.UChar}
		for i, v := range vals {
			a.Ints[i] = int64(v)
		}
		val := a.Value()
		if val.Kind != 2 { // VPtr
			return false
		}
		for i := range vals {
			if val.Obj.Elems[i].AsInt() != int64(vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMutationPreservesShape(t *testing.T) {
	u := cparser.MustParse(`
void kernel(float in[8], float out[8]) {
    for (int i = 0; i < 8; i++) { out[i] = in[i]; }
}`)
	camp, err := RunContext(context.Background(), u, "kernel", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range camp.Tests {
		if len(tc.Args) != 2 || tc.Args[0].Len() != 8 || tc.Args[1].Len() != 8 {
			t.Fatalf("shape broken: %s", tc)
		}
	}
}

// traceCampaign runs a campaign with a JSONL trace writer attached and
// returns the campaign plus the raw trace bytes.
func traceCampaign(u *cast.Unit, kernel string, opts Options) (Campaign, []byte, error) {
	var buf bytes.Buffer
	tw := obs.NewTraceWriter(&buf)
	opts.Obs = tw
	camp, err := RunContext(context.Background(), u, kernel, opts)
	if err != nil {
		return Campaign{}, nil, err
	}
	if err := tw.Flush(); err != nil {
		return Campaign{}, nil, err
	}
	return camp, buf.Bytes(), nil
}

// tracedRun is traceCampaign failing the test on error.
func tracedRun(t *testing.T, u *cast.Unit, kernel string, opts Options) (Campaign, []byte) {
	t.Helper()
	camp, trace, err := traceCampaign(u, kernel, opts)
	if err != nil {
		t.Fatal(err)
	}
	return camp, trace
}

// assertCampaignsIdentical fails unless the two campaigns are
// bit-identical: same retained tests in the same order, same coverage,
// same execution and accounting numbers.
func assertCampaignsIdentical(t *testing.T, want, got Campaign) {
	t.Helper()
	if len(want.Tests) != len(got.Tests) {
		t.Fatalf("retained tests differ: %d vs %d", len(want.Tests), len(got.Tests))
	}
	for i := range want.Tests {
		if !reflect.DeepEqual(want.Tests[i], got.Tests[i]) {
			t.Errorf("test %d differs:\nwant: %s\ngot:  %s", i, want.Tests[i], got.Tests[i])
		}
	}
	if want.Coverage != got.Coverage ||
		want.CoveredOutcomes != got.CoveredOutcomes ||
		want.TotalOutcomes != got.TotalOutcomes {
		t.Errorf("coverage differs: %.4f (%d/%d) vs %.4f (%d/%d)",
			want.Coverage, want.CoveredOutcomes, want.TotalOutcomes,
			got.Coverage, got.CoveredOutcomes, got.TotalOutcomes)
	}
	if want.Execs != got.Execs || want.VirtualSeconds != got.VirtualSeconds {
		t.Errorf("accounting differs: execs=%d vt=%.2f vs execs=%d vt=%.2f",
			want.Execs, want.VirtualSeconds, got.Execs, got.VirtualSeconds)
	}
	if want.SeededFromHost != got.SeededFromHost {
		t.Errorf("host seeding differs: %v vs %v", want.SeededFromHost, got.SeededFromHost)
	}
}

// TestParallelCampaignDeterminism: campaigns run at the same time on
// one shared unit, as concurrent service jobs run them, must each be
// bit-identical to a campaign run alone with the same seed, trace
// included, on both a branchy kernel and one with crashing inputs
// (crashed children contribute coverage but are never retained).
func TestParallelCampaignDeterminism(t *testing.T) {
	kernels := map[string]string{
		"branchy": branchy,
		"crashy": `
int kernel(int x) {
    int a[8];
    if (x > 0 && x < 100) { return a[x % 8]; }
    return 10 / x;
}`,
	}
	for name, src := range kernels {
		t.Run(name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.MaxExecs = 600
			opts.Plateau = 200
			alone, aloneTrace := tracedRun(t, cparser.MustParse(src), "kernel", opts)
			// One fuzz_exec event per execution.
			if n := bytes.Count(aloneTrace, []byte(`"type":"fuzz_exec"`)); n != alone.Execs {
				t.Errorf("trace has %d fuzz_exec events, want %d", n, alone.Execs)
			}

			const runs = 3
			shared := cparser.MustParse(src)
			camps := make([]Campaign, runs)
			traces := make([][]byte, runs)
			errs := make([]error, runs)
			var wg sync.WaitGroup
			for i := range camps {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					camps[i], traces[i], errs[i] = traceCampaign(shared, "kernel", opts)
				}(i)
			}
			wg.Wait()
			for i := range camps {
				if errs[i] != nil {
					t.Fatalf("concurrent campaign %d: %v", i, errs[i])
				}
				assertCampaignsIdentical(t, alone, camps[i])
				if !bytes.Equal(aloneTrace, traces[i]) {
					t.Errorf("concurrent campaign %d: trace differs from the lone run (%d vs %d bytes)",
						i, len(aloneTrace), len(traces[i]))
				}
			}
		})
	}
}

// TestCampaignPlateauFlag: a kernel whose coverage saturates instantly
// must set Campaign.Plateaued and emit exactly one warning event; a
// campaign that runs its full budget must not.
func TestCampaignPlateauFlag(t *testing.T) {
	src := `
int kernel(int x) {
    return x + 1;
}`
	opts := DefaultOptions()
	opts.MaxExecs = 200
	opts.Plateau = 40
	camp, trace := tracedRun(t, cparser.MustParse(src), "kernel", opts)
	if !camp.Plateaued {
		t.Fatalf("straight-line kernel should plateau: %d/%d execs", camp.Execs, opts.MaxExecs)
	}
	if camp.Execs >= opts.MaxExecs {
		t.Fatalf("plateaued campaign ran its whole budget: %d execs", camp.Execs)
	}
	if n := bytes.Count(trace, []byte(`"type":"warning"`)); n != 1 {
		t.Errorf("plateaued campaign emitted %d warning events, want 1", n)
	}

	// Exhausting the budget exactly is not a plateau.
	opts.MaxExecs = 30
	opts.Plateau = 500
	camp, trace = tracedRun(t, cparser.MustParse(src), "kernel", opts)
	if camp.Plateaued {
		t.Errorf("budget-bound campaign reported a plateau at %d execs", camp.Execs)
	}
	if n := bytes.Count(trace, []byte(`"type":"warning"`)); n != 0 {
		t.Errorf("budget-bound campaign emitted %d warning events, want 0", n)
	}
}
