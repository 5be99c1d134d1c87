package core

import (
	"strings"
	"testing"

	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/hls/check"
)

const longDoubleKernel = `
int top(int in) {
    long double in_ld = in;
    in_ld = in_ld + 1;
    return (int)in_ld;
}`

func quickFuzz() fuzz.Options {
	return fuzz.Options{MaxExecs: 150, Plateau: 60}
}

func TestPipelineEndToEnd(t *testing.T) {
	res, err := Run(longDoubleKernel, Options{Kernel: "top", Fuzz: quickFuzz()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compatible || !res.BehaviorOK {
		t.Fatalf("pipeline failed: %+v", res.Repair.Remaining)
	}
	if !strings.Contains(res.Source, "fpga_float<8,71>") {
		t.Errorf("type not transformed:\n%s", res.Source)
	}
	// The produced source is itself clean under the checker.
	rep := check.Run(res.Final, hls.DefaultConfig("top"))
	if !rep.OK {
		t.Errorf("final source still has diagnostics: %v", rep.Diags)
	}
	if res.OriginalLOC == 0 || res.DeltaLOC == 0 {
		t.Errorf("LOC accounting: orig=%d delta=%d", res.OriginalLOC, res.DeltaLOC)
	}
	if res.Campaign.Execs == 0 {
		t.Error("no tests generated")
	}
	if res.Resources.FF == 0 {
		t.Error("no resource estimate")
	}
	if !strings.Contains(res.Summary(), "compat=✓") {
		t.Errorf("summary %q", res.Summary())
	}
}

func TestPipelineErrors(t *testing.T) {
	if _, err := Run("int f(", Options{Kernel: "f"}); err == nil {
		t.Error("parse error must surface")
	}
	if _, err := Run("int f() { return 1; }", Options{}); err == nil {
		t.Error("missing kernel name must surface")
	}
	if _, err := Run("int f() { return 1; }", Options{Kernel: "nope"}); err == nil {
		t.Error("unknown kernel must surface")
	}
}

func TestPipelineIncompleteRepairStillReturns(t *testing.T) {
	// goto is beyond every template's reach; the pipeline must return the
	// best-effort version rather than an error.
	src := `
int kernel(int x) {
    long double d = x;
    if (x > 0) { goto out; }
    d = d + 1;
out:
    return (int)d;
}`
	// goto faults the interpreter during fuzzing, so reduce budgets.
	res, err := Run(src, Options{Kernel: "kernel",
		Fuzz: fuzz.Options{MaxExecs: 40, Plateau: 20}})
	if err != nil {
		t.Fatalf("pipeline must not error on incomplete repair: %v", err)
	}
	if res.Source == "" {
		t.Error("best-effort source missing")
	}
}

func TestPipelineSkipProfile(t *testing.T) {
	src := `
int kernel(int n) {
    int small = n % 7;
    if (small < 0) { small = -small; }
    return small;
}`
	with, err := Run(src, Options{Kernel: "kernel", Fuzz: quickFuzz()})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Run(src, Options{Kernel: "kernel", Fuzz: quickFuzz(), SkipProfile: true})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(without.Source, "fpga_uint") {
		t.Error("SkipProfile must not narrow types")
	}
	if !strings.Contains(with.Source, "fpga_") {
		t.Errorf("profiling should narrow 'small':\n%s", with.Source)
	}
}

func TestPipelineExtraTests(t *testing.T) {
	src := `int kernel(int x) { return x * 2; }`
	extra := []fuzz.TestCase{{Args: []fuzz.Arg{{Scalar: true, Ints: []int64{123}, Width: 32}}}}
	res, err := Run(src, Options{Kernel: "kernel", Fuzz: quickFuzz(), ExtraTests: extra})
	if err != nil {
		t.Fatal(err)
	}
	if !res.BehaviorOK {
		t.Error("extra tests should pass on an identity-repair kernel")
	}
}

func TestCheckHelper(t *testing.T) {
	reps, err := Check(longDoubleKernel, Options{Kernel: "top"})
	if err != nil {
		t.Fatal(err)
	}
	if rep := reps[0].Report; rep.OK || !rep.HasClass(hls.ClassUnsupportedType) {
		t.Errorf("check helper: %v", rep.Diags)
	}
}
