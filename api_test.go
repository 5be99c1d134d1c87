package heterogen_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/hetero/heterogen"
)

func TestPublicTranspile(t *testing.T) {
	src := `
int top(int in) {
    long double in_ld = in;
    in_ld = in_ld + 1;
    return (int)in_ld;
}`
	res, err := heterogen.Transpile(src, heterogen.Options{
		Kernel: "top",
		Fuzz:   heterogen.FuzzOptions{MaxExecs: 120, Plateau: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compatible || !res.BehaviorOK {
		t.Fatalf("transpile failed: %v", res.Repair.Remaining)
	}
	if !strings.Contains(res.Source, "fpga_float") {
		t.Errorf("source:\n%s", res.Source)
	}
}

func TestPublicCheck(t *testing.T) {
	reps, err := heterogen.Check(`void k(int n) { int a[n]; a[0] = 1; }`, heterogen.Options{Kernel: "k"})
	if err != nil {
		t.Fatal(err)
	}
	rep := reps[0].Report
	if rep.OK {
		t.Fatal("VLA must be diagnosed")
	}
	if !rep.HasClass(heterogen.ClassDynamicData) {
		t.Errorf("diagnostics: %v", rep.Diags)
	}
}

func TestPublicTranspileContext(t *testing.T) {
	src := `
int top(int in) {
    long double in_ld = in;
    in_ld = in_ld + 1;
    return (int)in_ld;
}`
	opts := heterogen.Options{
		Kernel: "top",
		Fuzz:   heterogen.FuzzOptions{MaxExecs: 120, Plateau: 50},
	}
	res, err := heterogen.TranspileContext(context.Background(), src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compatible {
		t.Fatalf("transpile failed: %v", res.Repair.Remaining)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	partial, err := heterogen.TranspileContext(ctx, src, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want one wrapping context.Canceled", err)
	}
	if partial.Source == "" {
		t.Error("cancelled transpile must return the best-so-far source")
	}
}

func TestPublicSimulate(t *testing.T) {
	src := `int top(int a) { return a * 2 + 1; }`
	opts := heterogen.Options{Kernel: "top"}
	reps, err := heterogen.Check(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reps[0].Report.OK {
		t.Fatalf("checker diagnostics: %v", reps[0].Report.Diags)
	}
	rep, err := heterogen.Simulate(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fit := rep.PerTarget[0]; !fit.Fits || len(fit.Over) != 0 {
		t.Errorf("trivial kernel must fit the device: over=%v", fit.Over)
	}
	if r := rep.Resources; r.LUT+r.FF+r.DSP+r.BRAM <= 0 {
		t.Errorf("resource estimate missing: %+v", r)
	}
}

func TestPublicRepairStage(t *testing.T) {
	src := `
int top(int in) {
    long double in_ld = in;
    in_ld = in_ld + 1;
    return (int)in_ld;
}`
	cache, err := heterogen.NewCache(heterogen.CacheOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts := heterogen.Options{Kernel: "top", Cache: cache}
	res, err := heterogen.Repair(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compatible {
		t.Fatalf("repair failed: %v", res.Remaining)
	}
	again, err := heterogen.Repair(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if heterogen.PrintUnit(res.Unit) != heterogen.PrintUnit(again.Unit) {
		t.Error("cached repair diverged from the cold run")
	}
	if cache.Stats().Hits() == 0 {
		t.Errorf("second repair never hit the cache: %s", cache.Stats())
	}
}

func TestPublicGenerateTests(t *testing.T) {
	camp, err := heterogen.GenerateTests(`
int kernel(int x) {
    if (x > 10) { return 1; }
    return 0;
}`, heterogen.Options{Kernel: "kernel",
		Fuzz: heterogen.FuzzOptions{MaxExecs: 200, Plateau: 80}})
	if err != nil {
		t.Fatal(err)
	}
	if camp.Coverage < 1.0 {
		t.Errorf("coverage %.2f", camp.Coverage)
	}
}

func TestPublicGenerateTestsContext(t *testing.T) {
	src := `
int kernel(int x) {
    if (x > 10) { return 1; }
    return 0;
}`
	opts := heterogen.Options{Kernel: "kernel",
		Fuzz: heterogen.FuzzOptions{MaxExecs: 200, Plateau: 80}}
	camp, err := heterogen.GenerateTestsContext(context.Background(), src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if camp.Coverage < 1.0 {
		t.Errorf("coverage %.2f", camp.Coverage)
	}

	// Cancellation stops the campaign at a commit point; the partial
	// corpus is a usable suite, so the error stays nil.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	partial, err := heterogen.GenerateTestsContext(ctx, src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if partial.Execs >= camp.Execs {
		t.Errorf("cancelled campaign ran %d execs, complete one %d", partial.Execs, camp.Execs)
	}

	opts.Kernel = "f"
	if _, err := heterogen.GenerateTestsContext(context.Background(), "int f(", opts); err == nil {
		t.Error("parse error must surface")
	}
}

func TestPublicGuard(t *testing.T) {
	src := `
int top(int in) {
    long double in_ld = in;
    in_ld = in_ld + 1;
    return (int)in_ld;
}`
	g := heterogen.NewGuard(heterogen.GuardOptions{})
	opts := heterogen.Options{
		Kernel: "top",
		Fuzz:   heterogen.FuzzOptions{MaxExecs: 120, Plateau: 50},
		Guard:  g,
	}
	res, err := heterogen.Transpile(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := heterogen.Transpile(src, heterogen.Options{
		Kernel: "top",
		Fuzz:   heterogen.FuzzOptions{MaxExecs: 120, Plateau: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != plain.Source {
		t.Error("a guard without injection must not change the output")
	}
	var sf *heterogen.StageFailure
	if errors.As(err, &sf) {
		t.Error("clean run classified a StageFailure")
	}
}

func TestPublicParseAndPrint(t *testing.T) {
	u, err := heterogen.Parse(`int f(int a) { return a + 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	out := heterogen.PrintUnit(u)
	if !strings.Contains(out, "return a + 1;") {
		t.Errorf("print: %q", out)
	}
	if _, err := heterogen.Parse("int f("); err == nil {
		t.Error("parse error must surface")
	}
}
