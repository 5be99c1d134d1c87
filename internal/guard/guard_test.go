package guard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/obs"
)

const tinyKernel = `
int kernel(int a, int b) {
    int s = 0;
    for (int i = 0; i < a; i++) { s = s + b; }
    if (s > 100) { s = 100; }
    return s;
}
`

func tinyUnit(t *testing.T) *cast.Unit {
	t.Helper()
	u, err := cparser.Parse(tinyKernel)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// scriptedInjector faults according to a fixed script keyed on attempt
// number; attempts past the script succeed.
type scriptedInjector struct {
	script []Class
	calls  int
}

func (s *scriptedInjector) Fault(stage Stage, key string, attempt int) Fault {
	s.calls++
	if attempt <= len(s.script) && s.script[attempt-1] != "" {
		return Fault{Class: s.script[attempt-1]}
	}
	return Fault{}
}

func TestDoPassesThroughSuccessAndDomainErrors(t *testing.T) {
	g := New(Options{})
	out, err := Do(g, Invocation{Stage: StageCheck}, func(*cast.Unit) (int, error) { return 42, nil })
	if err != nil || out != 42 {
		t.Fatalf("success got (%d, %v), want (42, nil)", out, err)
	}
	domain := errors.New("diagnostic: not synthesizable")
	_, err = Do(g, Invocation{Stage: StageCheck}, func(*cast.Unit) (int, error) { return 0, domain })
	if err != domain {
		t.Fatalf("domain error got %v, want it untouched", err)
	}
	if AsFailure(err) != nil {
		t.Fatal("domain error must not classify as a StageFailure")
	}
}

func TestDoContainsPanicNilAndNonNilGuard(t *testing.T) {
	for _, g := range []*Guard{nil, New(Options{})} {
		out, err := Do(g, Invocation{Stage: StageStyle}, func(*cast.Unit) (string, error) {
			panic("stage blew up")
		})
		sf := AsFailure(err)
		if sf == nil {
			t.Fatalf("guard=%v: want a StageFailure, got %v", g, err)
		}
		if sf.Stage != StageStyle || sf.Class != ClassPanic || sf.Attempts != 1 {
			t.Errorf("guard=%v: got %+v", g, sf)
		}
		if !strings.Contains(sf.Detail, "stage blew up") {
			t.Errorf("detail lost the panic value: %q", sf.Detail)
		}
		if out != "" {
			t.Errorf("zero value expected on failure, got %q", out)
		}
	}
}

// transientScript fails the first n attempts with a transient fault.
func transientScript(n int) *scriptedInjector {
	inj := &scriptedInjector{}
	for i := 0; i < n; i++ {
		inj.script = append(inj.script, ClassTransient)
	}
	return inj
}

func TestDoRetriesTransientThenSucceeds(t *testing.T) {
	reg := obs.NewRegistry()
	g := New(Options{Injector: transientScript(transientRetries), Metrics: reg})
	out, err := Do(g, Invocation{Stage: StageCheck, Key: "k"}, func(*cast.Unit) (int, error) { return 7, nil })
	if err != nil || out != 7 {
		t.Fatalf("attempt %d should succeed, got (%d, %v)", transientRetries+1, out, err)
	}
	if n := reg.Counter("guard.retries.check"); n != transientRetries {
		t.Errorf("guard.retries.check = %d, want %d", n, transientRetries)
	}
}

func TestDoTransientExhaustion(t *testing.T) {
	inj := transientScript(transientRetries + 2)
	g := New(Options{Injector: inj})
	_, err := Do(g, Invocation{Stage: StageCheck, Key: "k"}, func(*cast.Unit) (int, error) { return 7, nil })
	sf := AsFailure(err)
	if sf == nil || sf.Class != ClassTransient {
		t.Fatalf("want terminal transient failure, got %v", err)
	}
	if want := transientRetries + 1; sf.Attempts != want || inj.calls != want {
		t.Errorf("Attempts = %d, injector calls = %d, want %d (initial + %d retries)",
			sf.Attempts, inj.calls, want, transientRetries)
	}
}

func TestDoNeverRetriesDeterministicClasses(t *testing.T) {
	for _, class := range []Class{ClassPanic, ClassDeadline, ClassCorrupt} {
		// Every attempt would fault: only a retry could reach attempt 2.
		inj := &scriptedInjector{script: []Class{class, class, class}}
		g := New(Options{Injector: inj})
		_, err := Do(g, Invocation{Stage: StageEstimate, Key: "k"}, func(*cast.Unit) (int, error) { return 1, nil })
		sf := AsFailure(err)
		if sf == nil || sf.Class != class {
			t.Fatalf("%s: got %v", class, err)
		}
		if sf.Attempts != 1 || inj.calls != 1 {
			t.Errorf("%s: Attempts = %d, injector calls = %d, want 1 (no retry)", class, sf.Attempts, inj.calls)
		}
		if !sf.Injected {
			t.Errorf("%s: injected fault not marked Injected", class)
		}
	}
}

func TestDoEnforcesStageDeadline(t *testing.T) {
	g := New(Options{StageDeadline: 20 * time.Millisecond})
	start := time.Now()
	_, err := Do(g, Invocation{Stage: StageDifftest}, func(*cast.Unit) (int, error) {
		time.Sleep(2 * time.Second)
		return 0, nil
	})
	sf := AsFailure(err)
	if sf == nil || sf.Class != ClassDeadline {
		t.Fatalf("want deadline failure, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("deadline did not abandon the attempt promptly (%s)", elapsed)
	}
	if sf.Injected {
		t.Error("real overrun must not be marked Injected")
	}
}

func TestDoDeadlineStillContainsPanics(t *testing.T) {
	g := New(Options{StageDeadline: time.Second})
	_, err := Do(g, Invocation{Stage: StageCheck}, func(*cast.Unit) (int, error) {
		panic("on the deadline goroutine")
	})
	sf := AsFailure(err)
	if sf == nil || sf.Class != ClassPanic {
		t.Fatalf("want contained panic, got %v", err)
	}
}

func TestQuarantineWritesMinimizedReproducer(t *testing.T) {
	dir := t.TempDir()
	var warnings []string
	g := New(Options{QuarantineDir: dir, ReduceTrials: 60,
		Warn: func(m string) { warnings = append(warnings, m) }})
	u := tinyUnit(t)

	fail := func() (*StageFailure, error) {
		_, err := Do(g, Invocation{Stage: StageStyle, Unit: u}, func(cu *cast.Unit) (bool, error) {
			// Deterministic on every reduced variant, so the reducer can
			// shrink aggressively.
			panic("style checker crash")
		})
		return AsFailure(err), err
	}

	sf, err := fail()
	if sf == nil {
		t.Fatalf("want StageFailure, got %v", err)
	}
	if sf.Reproducer == "" {
		t.Fatalf("no reproducer recorded; warnings: %v", warnings)
	}
	printed, rerr := os.ReadFile(sf.Reproducer)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(printed) == 0 {
		t.Fatal("empty reproducer")
	}
	side, rerr := os.ReadFile(strings.TrimSuffix(sf.Reproducer, ".c") + ".json")
	if rerr != nil {
		t.Fatal(rerr)
	}
	var meta struct {
		Stage       string `json:"stage"`
		Class       string `json:"class"`
		OriginalLOC int    `json:"original_loc"`
		ReducedLOC  int    `json:"reduced_loc"`
	}
	if err := json.Unmarshal(side, &meta); err != nil {
		t.Fatalf("sidecar does not parse: %v", err)
	}
	if meta.Stage != "stylecheck" || meta.Class != "panic" {
		t.Errorf("sidecar = %+v", meta)
	}
	if meta.ReducedLOC > meta.OriginalLOC {
		t.Errorf("reduction grew the input: %d -> %d", meta.OriginalLOC, meta.ReducedLOC)
	}
	if len(warnings) != 1 {
		t.Errorf("want exactly one warning for the first failure, got %v", warnings)
	}

	// Second failure of the same (stage, class): no new reproducer, no
	// new warning.
	before := countFiles(t, dir)
	if sf2, _ := fail(); sf2 == nil || sf2.Reproducer != "" {
		t.Errorf("repeat failure should not quarantine again: %+v", sf2)
	}
	if after := countFiles(t, dir); after != before {
		t.Errorf("repeat failure wrote files: %d -> %d", before, after)
	}
	if len(warnings) != 1 {
		t.Errorf("repeat failure warned again: %v", warnings)
	}
}

func TestQuarantineSkipsTransientAndRealDeadline(t *testing.T) {
	dir := t.TempDir()
	u := tinyUnit(t)

	// Transient (exhausted): environmental, never quarantined.
	inj := &scriptedInjector{script: []Class{ClassTransient, ClassTransient, ClassTransient, ClassTransient}}
	g := New(Options{QuarantineDir: dir, Injector: inj})
	_, err := Do(g, Invocation{Stage: StageCheck, Key: "k", Unit: u}, func(*cast.Unit) (int, error) { return 1, nil })
	if sf := AsFailure(err); sf == nil || sf.Reproducer != "" {
		t.Errorf("transient failure quarantined: %+v", sf)
	}

	// Real deadline: every reducer trial would run to the deadline.
	g2 := New(Options{QuarantineDir: dir, StageDeadline: 10 * time.Millisecond})
	_, err = Do(g2, Invocation{Stage: StageDifftest, Unit: u}, func(*cast.Unit) (int, error) {
		time.Sleep(300 * time.Millisecond)
		return 0, nil
	})
	if sf := AsFailure(err); sf == nil || sf.Reproducer != "" {
		t.Errorf("real deadline failure quarantined: %+v", sf)
	}
	if n := countFiles(t, dir); n != 0 {
		t.Errorf("quarantine dir has %d files, want 0", n)
	}
}

func TestFailureMetricsAndLabel(t *testing.T) {
	reg := obs.NewRegistry()
	g := New(Options{Metrics: reg})
	_, err := Do(g, Invocation{Stage: StageInterp}, func(*cast.Unit) (int, error) { panic("x") })
	sf := AsFailure(err)
	if sf.Label() != "interp/panic" {
		t.Errorf("Label = %q", sf.Label())
	}
	if n := reg.Counter("guard.failures.interp.panic"); n != 1 {
		t.Errorf("failure counter = %d, want 1", n)
	}
	if !strings.Contains(sf.Error(), "interp stage failed (panic)") {
		t.Errorf("Error() = %q", sf.Error())
	}
}

func TestNilGuardAccessors(t *testing.T) {
	var g *Guard
	if g.Injecting() {
		t.Error("nil guard reports injecting")
	}
	if g.InterpSteps() != 0 {
		t.Error("nil guard reports a step budget")
	}
	if g := New(Options{InterpSteps: 5000}); g.InterpSteps() != 5000 {
		t.Error("InterpSteps accessor lost the budget")
	}
}

func countFiles(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// TestReproducerNameIsContentAddressed pins the filename convention the
// regression workflow relies on (<stage>-<class>-<12 hex>.c).
func TestReproducerNameIsContentAddressed(t *testing.T) {
	dir := t.TempDir()
	g := New(Options{QuarantineDir: dir, ReduceTrials: 20})
	u := tinyUnit(t)
	_, err := Do(g, Invocation{Stage: StageEstimate, Unit: u}, func(*cast.Unit) (int, error) {
		panic("estimate crash")
	})
	sf := AsFailure(err)
	if sf == nil || sf.Reproducer == "" {
		t.Fatalf("no reproducer: %v", err)
	}
	base := filepath.Base(sf.Reproducer)
	var hash string
	if _, err := fmt.Sscanf(base, "estimate-panic-%s", &hash); err != nil || !strings.HasSuffix(hash, ".c") || len(hash) != len("123456789abc.c") {
		t.Errorf("unexpected reproducer name %q", base)
	}
}
