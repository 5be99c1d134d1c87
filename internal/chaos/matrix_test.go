// The chaos matrix: for every (stage, fault class) cell, a full
// pipeline run under Rate-1 injection at that cell must come back as a
// structured result — no process panic — with the failure recorded in
// metrics and trace and a minimized reproducer quarantined; transient
// cells must be fully absorbed by the retry policy, byte-identical to
// the fault-free baseline. `make chaos-smoke` runs exactly this test.
package chaos_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/hetero/heterogen/internal/chaos"
	"github.com/hetero/heterogen/internal/core"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/guard"
	"github.com/hetero/heterogen/internal/obs"
	"github.com/hetero/heterogen/internal/repair"
)

// matrixKernel needs repair work (a long double) and enough control
// flow that fuzzing, profiling, and difftest all have something to do.
const matrixKernel = `
int top(int in) {
    long double acc = in;
    for (int i = 0; i < 4; i++) {
        if (in > i) { acc = acc + i; }
    }
    return (int)acc;
}`

func matrixOptions(g *guard.Guard, sink obs.Observer) core.Options {
	ro := repair.Options{MaxIterations: 8}
	return core.Options{
		Kernel: "top",
		Fuzz:   fuzz.Options{MaxExecs: 60, Plateau: 30},
		Repair: ro,
		Obs:    sink,
		Guard:  g,
	}
}

// tracedRun is one pipeline run with a JSONL trace attached.
func tracedRun(t *testing.T, g *guard.Guard) (core.Result, []byte, error) {
	t.Helper()
	var buf bytes.Buffer
	tw := obs.NewTraceWriter(&buf)
	res, err := core.Run(matrixKernel, matrixOptions(g, tw))
	if ferr := tw.Flush(); ferr != nil {
		t.Fatal(ferr)
	}
	return res, buf.Bytes(), err
}

func TestChaosMatrix(t *testing.T) {
	baseline, baseTrace, err := tracedRun(t, nil)
	if err != nil {
		t.Fatalf("fault-free baseline failed: %v", err)
	}

	// Unit-input stages: the pipeline degrades and still returns a
	// Result. Parse and print — whose failures are hard errors by design
	// — are covered by TestChaosMatrixParseAndPrint below. The capacity
	// gate runs in every search (an untargeted one checks the default
	// device), so resource estimation is part of every compilable
	// candidate's evaluation: the estimate row injects through the
	// candidate-failure path like the other stages, which each cell's
	// failure or retry counter below proves.
	stages := []guard.Stage{guard.StageStyle, guard.StageCheck,
		guard.StageEstimate, guard.StageDifftest, guard.StageInterp}
	for _, stage := range stages {
		for _, class := range guard.Classes() {
			stage, class := stage, class
			t.Run(string(stage)+"/"+string(class), func(t *testing.T) {
				t.Parallel()
				reg := obs.NewRegistry()
				dir := t.TempDir()
				g := guard.New(guard.Options{
					Injector:      chaos.Always(stage, class),
					QuarantineDir: dir,
					ReduceTrials:  40,
					Metrics:       reg,
				})
				res, trace, err := tracedRun(t, g)
				if err != nil {
					t.Fatalf("pipeline must degrade, not fail: %v", err)
				}
				if res.Source == "" {
					t.Fatal("no best-effort source returned")
				}

				if class == guard.ClassTransient {
					// One injected transient failure per invocation, one
					// retry needed: the run must be indistinguishable from
					// the baseline apart from retry counters.
					if res.Source != baseline.Source {
						t.Errorf("transient faults changed the output:\n%s", res.Source)
					}
					if !bytes.Equal(trace, baseTrace) {
						t.Error("transient faults changed the trace")
					}
					if reg.Counter("guard.retries."+string(stage)) == 0 {
						t.Error("no retries recorded for absorbed transient faults")
					}
					if n := countQuarantined(t, dir); n != 0 {
						t.Errorf("transient faults quarantined %d files", n)
					}
					return
				}

				label := string(stage) + "/" + string(class)
				if n := reg.Counter("guard.failures." + string(stage) + "." + string(class)); n == 0 {
					t.Errorf("no guard.failures metric for %s", label)
				}
				if !strings.Contains(string(trace), `"failure":"`+label+`"`) {
					t.Errorf("trace carries no %s stage-failure event", label)
				}
				if n := countQuarantined(t, dir); n == 0 {
					t.Errorf("no quarantined reproducer for %s", label)
				} else if !hasReproducer(t, dir, fmt.Sprintf("%s-%s-", stage, class)) {
					t.Errorf("quarantine dir lacks a %s-%s-*.c reproducer pair", stage, class)
				}
			})
		}
	}
}

// TestChaosMatrixParseAndPrint covers the two stages whose failures are
// hard errors: without a parse there is no unit, without a print there
// is no HLS source. Both must surface as typed *guard.StageFailure
// errors, never as a process panic. Every entry point parses, so the
// parse row runs each of them; only the full pipeline prints.
func TestChaosMatrixParseAndPrint(t *testing.T) {
	type entry struct {
		name string
		run  func(core.Options) error
	}
	pipeline := entry{"run", func(o core.Options) error { _, err := core.Run(matrixKernel, o); return err }}
	rows := []struct {
		stage   guard.Stage
		entries []entry
	}{
		{guard.StageParse, []entry{
			pipeline,
			{"repair", func(o core.Options) error { _, err := core.RepairStage(matrixKernel, o); return err }},
			{"check", func(o core.Options) error { _, err := core.Check(matrixKernel, o); return err }},
			{"simulate", func(o core.Options) error { _, err := core.Simulate(matrixKernel, o); return err }},
			{"fuzz", func(o core.Options) error {
				_, err := core.FuzzStage(context.Background(), matrixKernel, o)
				return err
			}},
		}},
		{guard.StagePrint, []entry{pipeline}},
	}
	for _, row := range rows {
		for _, e := range row.entries {
			for _, class := range []guard.Class{guard.ClassPanic, guard.ClassDeadline, guard.ClassCorrupt} {
				g := guard.New(guard.Options{Injector: chaos.Always(row.stage, class)})
				err := e.run(matrixOptions(g, nil))
				label := fmt.Sprintf("%s/%s/%s", row.stage, class, e.name)
				if err == nil {
					t.Fatalf("%s: want a hard error", label)
				}
				var sf *guard.StageFailure
				if !errors.As(err, &sf) {
					t.Fatalf("%s: error is not a StageFailure: %v", label, err)
				}
				if sf.Stage != row.stage || sf.Class != class || !sf.Injected {
					t.Errorf("%s: classified as %+v", label, sf)
				}
			}
		}
	}
}

// TestGuardWithoutInjectionIsByteIdentical is the "do no harm" half of
// the acceptance bar: with injection disabled, a guarded run — nil
// guard, zero-options guard, or a Rate-0 injector — produces the same
// Source and the same trace bytes as the unguarded pipeline.
func TestGuardWithoutInjectionIsByteIdentical(t *testing.T) {
	baseline, baseTrace, err := tracedRun(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]*guard.Guard{
		"zero-options":    guard.New(guard.Options{}),
		"rate-0-injector": guard.New(guard.Options{Injector: chaos.New(chaos.Options{Seed: 1, Rate: 0})}),
	}
	for name, g := range variants {
		res, trace, err := tracedRun(t, g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Source != baseline.Source {
			t.Errorf("%s: source diverged from the unguarded run", name)
		}
		if !bytes.Equal(trace, baseTrace) {
			t.Errorf("%s: trace diverged from the unguarded run", name)
		}
	}
}

func countQuarantined(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

func hasReproducer(t *testing.T, dir, prefix string) bool {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var c, sidecar bool
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), prefix) {
			if strings.HasSuffix(e.Name(), ".c") {
				c = true
			}
			if strings.HasSuffix(e.Name(), ".json") {
				sidecar = true
			}
		}
	}
	return c && sidecar
}
