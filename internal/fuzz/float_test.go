package fuzz

import (
	"context"
	"testing"

	"github.com/hetero/heterogen/internal/cparser"
)

func TestFloatKernelCampaign(t *testing.T) {
	u := cparser.MustParse(`
float kernel(float in[16], float out[16], float gain) {
    float acc = 0;
    for (int i = 0; i < 16; i++) {
        float v = in[i] * gain;
        if (v > 100.0) { v = 100.0; }
        if (v < 0.0 - 100.0) { v = 0.0 - 100.0; }
        out[i] = v;
        acc += v;
    }
    if (gain < 0.0) { return 0.0 - acc; }
    return acc;
}`)
	camp, err := RunContext(context.Background(), u, "kernel", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if camp.Coverage < 0.9 {
		t.Errorf("float kernel coverage %.2f (%d/%d)",
			camp.Coverage, camp.CoveredOutcomes, camp.TotalOutcomes)
	}
	// Float payload shapes preserved.
	for _, tc := range camp.Tests {
		if !tc.Args[0].IsFloat || tc.Args[0].Len() != 16 {
			t.Fatalf("input arg shape broken: %s", tc)
		}
		if !tc.Args[2].Scalar || !tc.Args[2].IsFloat {
			t.Fatalf("gain arg shape broken: %s", tc)
		}
	}
}

func TestOutParamFloatDetection(t *testing.T) {
	u := cparser.MustParse(`
void kernel(float in[8], float out[8]) {
    for (int i = 0; i < 8; i++) { out[i] = in[i] * 2; }
}`)
	sp, err := SpecOf(u, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	if sp.OutParams[0] || !sp.OutParams[1] {
		t.Errorf("out-param detection: %v", sp.OutParams)
	}
}

func TestInOutParamNotTreatedAsOutput(t *testing.T) {
	// A sort mutates its input in place: reads dominate, so it must stay
	// mutable for the fuzzer.
	u := cparser.MustParse(`
void kernel(int a[16]) {
    for (int i = 0; i < 16; i++) {
        for (int j = 0; j + 1 < 16; j++) {
            if (a[j] > a[j + 1]) {
                int t = a[j];
                a[j] = a[j + 1];
                a[j + 1] = t;
            }
        }
    }
}`)
	sp, err := SpecOf(u, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	if sp.OutParams[0] {
		t.Error("in-place array wrongly classified as pure output")
	}
}

func TestCampaignStopsOnPlateau(t *testing.T) {
	// A branchless kernel saturates immediately; the plateau rule must
	// stop the campaign well before MaxExecs.
	u := cparser.MustParse(`int kernel(int x) { return x * 3; }`)
	opts := DefaultOptions()
	opts.MaxExecs = 100000
	opts.Plateau = 50
	camp, err := RunContext(context.Background(), u, "kernel", opts)
	if err != nil {
		t.Fatal(err)
	}
	if camp.Execs >= opts.MaxExecs {
		t.Errorf("plateau did not stop the campaign: %d execs", camp.Execs)
	}
}

func TestMinimizeKeepsCoverage(t *testing.T) {
	u := cparser.MustParse(branchy)
	camp, err := RunContext(context.Background(), u, "kernel", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	min, err := Minimize(u, "kernel", camp.Tests)
	if err != nil {
		t.Fatal(err)
	}
	if len(min) > len(camp.Tests) {
		t.Fatalf("minimized suite grew: %d > %d", len(min), len(camp.Tests))
	}
	covFull, err := Replay(u, "kernel", camp.Tests)
	if err != nil {
		t.Fatal(err)
	}
	covMin, err := Replay(u, "kernel", min)
	if err != nil {
		t.Fatal(err)
	}
	if covMin < covFull {
		t.Errorf("minimization lost coverage: %.2f -> %.2f", covFull, covMin)
	}
}

func TestMinimizeDropsRedundantTests(t *testing.T) {
	u := cparser.MustParse(`
int kernel(int x) {
    if (x > 0) { return 1; }
    return 0;
}`)
	sp, _ := SpecOf(u, "kernel")
	mk := func(v int64) TestCase {
		tc := TestCase{Args: []Arg{sp.Params[0].Clone()}}
		tc.Args[0].Ints[0] = v
		return tc
	}
	// 20 duplicates of two behaviour classes.
	var suite []TestCase
	for i := int64(0); i < 10; i++ {
		suite = append(suite, mk(i+1), mk(-i-1))
	}
	min, err := Minimize(u, "kernel", suite)
	if err != nil {
		t.Fatal(err)
	}
	if len(min) > 3 {
		t.Errorf("two behaviour classes should need <=3 witnesses, kept %d", len(min))
	}
}

func TestMinimizeSkipsCrashingTests(t *testing.T) {
	u := cparser.MustParse(`int kernel(int x) { return 10 / x; }`)
	sp, _ := SpecOf(u, "kernel")
	mk := func(v int64) TestCase {
		tc := TestCase{Args: []Arg{sp.Params[0].Clone()}}
		tc.Args[0].Ints[0] = v
		return tc
	}
	min, err := Minimize(u, "kernel", []TestCase{mk(0), mk(5)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range min {
		if tc.Args[0].Ints[0] == 0 {
			t.Error("crashing test retained")
		}
	}
}
