package fuzz_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/hetero/heterogen/internal/chaos"
	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/guard"
	"github.com/hetero/heterogen/internal/interp"
	"github.com/hetero/heterogen/internal/obs"
	"github.com/hetero/heterogen/internal/profile"
	"github.com/hetero/heterogen/internal/subjects"
)

// The golden fixtures under testdata/golden are the recorded reference
// outputs of test generation and bitwidth profiling: one JSON per
// evaluation subject holding its fuzz campaign (every retained test,
// the coverage counts, the execution count and the plateau flag), its
// JSONL event trace, and profile.Generate's rewrites and value ranges
// over the campaign's tests. The budget is the repository benchmark's
// transpile_suite budget. Three more fixtures pin campaign shapes no
// subject reaches: crashy (crashing children gain coverage but are
// never retained), untyped (the TypedMutation ablation, which executes
// type-invalid children) and chaos (injected interpreter faults). A
// change that moves any byte of any fixture changes what the pipeline
// feeds the repair search. Regenerate with `make golden` (go test
// -update) only for an intended behaviour change, and review the
// fixture diff like code.

var update = flag.Bool("update", false, "rewrite testdata/golden from the current campaigns instead of comparing")

// goldenOptions is the transpile_suite fuzz budget.
func goldenOptions(s subjects.Subject) fuzz.Options {
	opts := fuzz.DefaultOptions()
	opts.Seed, opts.MaxExecs, opts.Plateau = 1, 24, 90
	opts.HostMain = s.HostMain
	return opts
}

// goldenCase is one recorded campaign: its fixture name, program and
// options.
type goldenCase struct {
	id, kernel, src string
	opts            fuzz.Options
}

func subjectCase(s subjects.Subject) goldenCase {
	return goldenCase{id: s.ID, kernel: s.Kernel, src: s.Source, opts: goldenOptions(s)}
}

// crashyCase's kernel crashes on some inputs: crashed children still
// add coverage, but the repair oracle needs clean reference outputs, so
// they are never retained.
func crashyCase() goldenCase {
	opts := fuzz.DefaultOptions()
	opts.MaxExecs, opts.Plateau = 600, 200
	return goldenCase{id: "crashy", kernel: "kernel", opts: opts, src: `
int kernel(int x) {
    int a[8];
    if (x > 0 && x < 100) { return a[x % 8]; }
    return 10 / x;
}`}
}

// untypedCase is the TypedMutation ablation: type-invalid children
// are executed (and die at the kernel entry) instead of being filtered
// for free, a different schedule shape.
func untypedCase() goldenCase {
	opts := fuzz.DefaultOptions()
	opts.MaxExecs, opts.Plateau = 400, 150
	opts.TypedMutation = false
	return goldenCase{id: "untyped", kernel: "kernel", opts: opts, src: `
int kernel(fpga_uint<7> x) {
    if (x > 100) { return 1; }
    if (x == 7) { return 2; }
    return 0;
}`}
}

// chaosCase runs a campaign under probabilistic injected interpreter
// faults (rate 0.3, chaos seed 11).
func chaosCase() goldenCase {
	return goldenCase{id: "chaos", kernel: "kernel", src: `
int kernel(int x, int y) {
    int r = 0;
    if (x > 100) { r += 1; } else { r -= 1; }
    if (y < -50) { r *= 2; }
    if (x == 7) { r += 1000; }
    for (int i = 0; i < y % 8; i++) { r += i; }
    return r;
}`, opts: fuzz.Options{
		Seed: 1, MaxExecs: 120, Plateau: 50, TypedMutation: true,
		Guard: guard.New(guard.Options{
			Injector: chaos.New(chaos.Options{Seed: 11, Rate: 0.3, Stages: []guard.Stage{guard.StageInterp}}),
		}),
	}}
}

// goldenTest records one test case: its diagnostic summary and a digest
// of its exact payload (array payloads run to thousands of elements).
type goldenTest struct {
	Summary string `json:"summary"`
	SHA256  string `json:"sha256"`
}

func recordTest(tc fuzz.TestCase) goldenTest {
	h := sha256.New()
	for _, a := range tc.Args {
		elem := "" // scalars carry no element type
		if a.Elem != nil {
			elem = a.Elem.C("")
		}
		fmt.Fprintf(h, "%s|%v|%v|%d|%v|%d|%d\n", elem, a.IsFloat, a.Scalar,
			a.Width, a.Unsigned, len(a.Ints), len(a.Floats))
		for _, v := range a.Ints {
			fmt.Fprintf(h, "%d,", v)
		}
		for _, f := range a.Floats {
			fmt.Fprintf(h, "%x,", math.Float64bits(f))
		}
		h.Write([]byte{'\n'})
	}
	return goldenTest{Summary: tc.String(), SHA256: hex.EncodeToString(h.Sum(nil))}
}

type goldenCampaign struct {
	Tests           []goldenTest `json:"tests"`
	Coverage        float64      `json:"coverage"`
	CoveredOutcomes int          `json:"covered_outcomes"`
	TotalOutcomes   int          `json:"total_outcomes"`
	Execs           int          `json:"execs"`
	VirtualSeconds  float64      `json:"virtual_seconds"`
	SeededFromHost  bool         `json:"seeded_from_host"`
	Plateaued       bool         `json:"plateaued"`
	StageFailures   int          `json:"stage_failures"`
}

type goldenProfile struct {
	Error   string                   `json:"error,omitempty"`
	Retyped []string                 `json:"retyped"`
	Ranges  map[string]*interp.Range `json:"ranges"`
}

type goldenRecord struct {
	Subject  string         `json:"subject"`
	Kernel   string         `json:"kernel"`
	Campaign goldenCampaign `json:"campaign"`
	Profile  goldenProfile  `json:"profile"`
}

// runGoldenCase runs the case's campaign and profiling and returns the
// campaign, the fixture JSON and the campaign's trace.
func runGoldenCase(t *testing.T, c goldenCase) (fuzz.Campaign, []byte, []byte) {
	t.Helper()
	u := cparser.MustParse(c.src)
	var trace bytes.Buffer
	tw := obs.NewTraceWriter(&trace)
	opts := c.opts
	opts.Obs = tw
	camp, err := fuzz.RunContext(context.Background(), u, c.kernel, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(trace.Bytes(), []byte(`"type":"fuzz_exec"`)); n != camp.Execs {
		t.Errorf("trace has %d fuzz_exec events, want one per execution (%d)", n, camp.Execs)
	}
	rec := goldenRecord{Subject: c.id, Kernel: c.kernel, Campaign: goldenCampaign{
		Coverage:        camp.Coverage,
		CoveredOutcomes: camp.CoveredOutcomes,
		TotalOutcomes:   camp.TotalOutcomes,
		Execs:           camp.Execs,
		VirtualSeconds:  camp.VirtualSeconds,
		SeededFromHost:  camp.SeededFromHost,
		Plateaued:       camp.Plateaued,
		StageFailures:   camp.StageFailures,
	}}
	for _, tc := range camp.Tests {
		rec.Campaign.Tests = append(rec.Campaign.Tests, recordTest(tc))
	}
	prof, err := profile.Generate(u, c.kernel, camp.Tests)
	if err != nil {
		rec.Profile.Error = err.Error()
	} else {
		rec.Profile.Retyped, rec.Profile.Ranges = prof.Retyped, prof.Ranges
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false) // keep the retyped "int -> fpga_uint<8>" lines readable
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		t.Fatal(err)
	}
	return camp, b.Bytes(), trace.Bytes()
}

func goldenPath(id, ext string) string {
	return filepath.Join("testdata", "golden", id+ext)
}

// assertGoldenFile compares got with the fixture byte for byte and
// names the first differing line.
func assertGoldenFile(t *testing.T, label, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (run `make golden` to record fixtures)", label, err)
	}
	if bytes.Equal(want, got) {
		return
	}
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) {
			t.Fatalf("%s differs from %s at line %d:\nwant: %s\ngot:  %s", label, path, i+1, w, g)
		}
	}
}

// checkGolden compares the case's campaign with its fixture and trace
// byte for byte; with -update it rewrites them first.
func checkGolden(t *testing.T, c goldenCase) fuzz.Campaign {
	t.Helper()
	camp, got, trace := runGoldenCase(t, c)
	if *update {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(c.id, ".json"), got, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(c.id, ".jsonl"), trace, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	assertGoldenFile(t, "campaign", goldenPath(c.id, ".json"), got)
	assertGoldenFile(t, "trace", goldenPath(c.id, ".jsonl"), trace)
	return camp
}

// TestCampaignGolden pins test generation and bitwidth profiling to the
// recorded goldens: for every evaluation subject and the crashy and
// untyped shapes, the campaign reproduces the fixture — retained
// tests, coverage, execution count, plateau flag, profile rewrites and
// ranges — and its JSONL trace byte for byte. With -update it rewrites
// the fixtures.
func TestCampaignGolden(t *testing.T) {
	var cases []goldenCase
	for _, s := range subjects.All() {
		cases = append(cases, subjectCase(s))
	}
	cases = append(cases, crashyCase(), untypedCase())
	for _, c := range cases {
		t.Run(c.id, func(t *testing.T) { checkGolden(t, c) })
	}
}

// TestCampaignSurvivesInterpFaults runs a campaign with probabilistic
// faults on the execution stage: contained failures count, gain
// nothing, and — because the schedule is keyed on test-case content —
// the campaign reproduces the chaos fixture.
func TestCampaignSurvivesInterpFaults(t *testing.T) {
	if camp := checkGolden(t, chaosCase()); camp.StageFailures == 0 {
		t.Fatal("chaos at rate 0.3 contained no failures — the test exercises nothing")
	}
}

// TestChaosKeysArrayPayload: the fault schedule keys each execution by
// its test's payload, so on a kernel whose only parameter is an array
// a rate-0.3 schedule faults some executions and spares others. Keyed
// by the array's type and length alone, every execution would share
// one decision.
func TestChaosKeysArrayPayload(t *testing.T) {
	u, err := cparser.Parse(`
int kernel(int a[16]) {
    int s = 0;
    for (int i = 0; i < 16; i++) {
        if (a[i] > 10) { s += a[i]; } else { s -= 1; }
    }
    return s;
}`)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3} {
		camp, err := fuzz.RunContext(context.Background(), u, "kernel", fuzz.Options{
			Seed: 1, MaxExecs: 60, Plateau: 60, TypedMutation: true,
			Guard: guard.New(guard.Options{
				Injector: chaos.New(chaos.Options{Seed: seed, Rate: 0.3, Stages: []guard.Stage{guard.StageInterp}}),
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		if camp.StageFailures == 0 || camp.StageFailures >= camp.Execs {
			t.Errorf("chaos seed %d: %d contained failures in %d executions, want some but not all",
				seed, camp.StageFailures, camp.Execs)
		}
	}
}
