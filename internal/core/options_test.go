package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/obs"
	"github.com/hetero/heterogen/internal/repair"
	"github.com/hetero/heterogen/internal/stage"
	"github.com/hetero/heterogen/internal/subjects"
)

// p3Suite is P3 with its seed-1 campaign of 300 executions, the fixed
// test suite the repair checks below search against.
func p3Suite(t *testing.T) (subjects.Subject, []fuzz.TestCase) {
	t.Helper()
	s, err := subjects.ByID("P3")
	if err != nil {
		t.Fatal(err)
	}
	camp, err := FuzzStage(context.Background(), s.Source, Options{Kernel: s.Kernel, HostMain: s.HostMain,
		Fuzz: fuzz.Options{Seed: 1, MaxExecs: 300}})
	if err != nil {
		t.Fatal(err)
	}
	return s, camp.Tests
}

// tracedFuzz runs FuzzStage under a trace writer and returns the
// campaign as JSON and the trace.
func tracedFuzz(t *testing.T, src string, opts Options) ([]byte, []byte) {
	t.Helper()
	var trace bytes.Buffer
	tw := obs.NewTraceWriter(&trace)
	opts.Obs = tw
	camp, err := FuzzStage(context.Background(), src, opts)
	if err != nil {
		t.Fatal(err)
	}
	return mustJSON(t, camp), flushed(t, tw, &trace)
}

// tracedRepair runs RepairStage under a trace writer and returns the
// result in the golden fixtures' form and the trace.
func tracedRepair(t *testing.T, src string, opts Options) ([]byte, []byte) {
	t.Helper()
	var trace bytes.Buffer
	tw := obs.NewTraceWriter(&trace)
	opts.Obs = tw
	rr, err := RepairStage(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	return repairJSON(t, rr), flushed(t, tw, &trace)
}

func repairJSON(t *testing.T, rr repair.Result) []byte {
	return mustJSON(t, goldenRepair{
		Unit: cast.Print(rr.Unit), Compatible: rr.Compatible, BehaviorOK: rr.BehaviorOK,
		Improved: rr.Improved, Stats: rr.Stats, Report: rr.Report, Remaining: rr.Remaining,
		PerTarget: rr.PerTarget, Pareto: rr.Pareto,
	})
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func flushed(t *testing.T, tw *obs.TraceWriter, trace *bytes.Buffer) []byte {
	t.Helper()
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return trace.Bytes()
}

// assertSameRun fails unless two runs' results and traces are
// byte-identical.
func assertSameRun(t *testing.T, wantRes, wantTrace, gotRes, gotTrace []byte) {
	t.Helper()
	if len(wantTrace) == 0 {
		t.Fatal("reference run traced nothing")
	}
	if !bytes.Equal(wantRes, gotRes) {
		t.Errorf("results differ:\nwant: %.400s\n got: %.400s", wantRes, gotRes)
	}
	if !bytes.Equal(wantTrace, gotTrace) {
		t.Errorf("traces differ (%d vs %d bytes)", len(wantTrace), len(gotTrace))
	}
}

// TestUnsetOptionsMeanDefaults: an unset field of fuzz.Options or
// repair.Options means the paper's value, whatever else is set, and
// DefaultOptions is the zero value in effect. Core hands both option
// structs to the stages untouched, so setting one field never changes
// another: a repair budget equal to the default leaves performance
// exploration on, and fuzz budgets leave the seed at 1 and the
// mutation typed.
func TestUnsetOptionsMeanDefaults(t *testing.T) {
	s, tests := p3Suite(t)
	t.Run("fuzz/zero", func(t *testing.T) {
		base := Options{Kernel: s.Kernel, HostMain: s.HostMain}
		wantRes, wantTrace := tracedFuzz(t, s.Source, base)
		base.Fuzz = fuzz.DefaultOptions()
		gotRes, gotTrace := tracedFuzz(t, s.Source, base)
		assertSameRun(t, wantRes, wantTrace, gotRes, gotTrace)
	})
	t.Run("fuzz/budgets", func(t *testing.T) {
		d := fuzz.DefaultOptions()
		d.MaxExecs, d.Plateau = 300, 100
		wantRes, wantTrace := tracedFuzz(t, s.Source, Options{Kernel: s.Kernel, HostMain: s.HostMain, Fuzz: d})
		gotRes, gotTrace := tracedFuzz(t, s.Source, Options{Kernel: s.Kernel, HostMain: s.HostMain,
			Fuzz: fuzz.Options{MaxExecs: 300, Plateau: 100}})
		assertSameRun(t, wantRes, wantTrace, gotRes, gotTrace)
	})
	base := Options{Kernel: s.Kernel, ExtraTests: tests}
	wantRes, wantTrace := tracedRepair(t, s.Source, base)
	t.Run("repair/zero", func(t *testing.T) {
		opts := base
		opts.Repair = repair.DefaultOptions()
		gotRes, gotTrace := tracedRepair(t, s.Source, opts)
		assertSameRun(t, wantRes, wantTrace, gotRes, gotTrace)
	})
	t.Run("repair/budget", func(t *testing.T) {
		opts := base
		opts.Repair = repair.Options{Budget: 3 * 3600}
		gotRes, gotTrace := tracedRepair(t, s.Source, opts)
		assertSameRun(t, wantRes, wantTrace, gotRes, gotTrace)
	})
}

// TestRepairSeedReachesSearch: a caller's repair seed reaches the
// search. The WithoutDependence ablation draws its candidate order
// from the seeded rng, so seed 5 through RepairStage must equal a
// direct seed-5 search and differ from the default seed.
func TestRepairSeedReachesSearch(t *testing.T) {
	s, tests := p3Suite(t)
	base := Options{Kernel: s.Kernel, ExtraTests: tests, SkipProfile: true}
	seed5 := base
	seed5.Repair = repair.Options{WithoutDependence: true, Seed: 5}
	gotRes, gotTrace := tracedRepair(t, s.Source, seed5)

	var trace bytes.Buffer
	tw := obs.NewTraceWriter(&trace)
	orig := s.MustParse()
	direct := repair.SearchContext(context.Background(), stage.Env{Obs: tw}, orig, cast.CloneUnit(orig),
		s.Kernel, tests, nil, seed5.Repair)
	assertSameRun(t, repairJSON(t, direct), flushed(t, tw, &trace), gotRes, gotTrace)

	seed1 := base
	seed1.Repair = repair.Options{WithoutDependence: true}
	if _, seed1Trace := tracedRepair(t, s.Source, seed1); bytes.Equal(seed1Trace, gotTrace) {
		t.Error("seed 5 ran the same search as seed 1")
	}
}
