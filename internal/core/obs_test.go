package core

import (
	"bytes"
	"context"
	"testing"

	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/obs"
	"github.com/hetero/heterogen/internal/obs/span"
	"github.com/hetero/heterogen/internal/subjects"
)

// tracedRun executes the full pipeline with a JSONL trace attached and
// returns the result plus the raw trace bytes.
func tracedRun(t *testing.T, id string, workers int) (Result, []byte) {
	t.Helper()
	s, err := subjects.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw := obs.NewTraceWriter(&buf)
	opts := Options{Kernel: s.Kernel, Workers: workers, Obs: tw}
	opts.Fuzz = fuzz.Options{MaxExecs: 150, Plateau: 60}
	res, err := RunUnitContext(context.Background(), s.MustParse(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestPipelineTraceRoundTrip is the acceptance check for the tracing
// layer: the report hgstat builds from a pipeline trace must reproduce
// the run's attempts, accepted-edit chain, and virtual clock exactly as
// Result.Stats reported them, and the trace must be byte-identical for
// Workers=1 and Workers=4.
func TestPipelineTraceRoundTrip(t *testing.T) {
	ids := []string{"P2", "P6"}
	if !testing.Short() {
		ids = []string{"P1", "P2", "P3", "P6", "P9"}
	}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			res, trace := tracedRun(t, id, 1)
			_, trace4 := tracedRun(t, id, 4)
			if !bytes.Equal(trace, trace4) {
				t.Errorf("traces differ between Workers=1 and Workers=4 (%d vs %d bytes)",
					len(trace), len(trace4))
			}

			events, err := obs.ParseTrace(bytes.NewReader(trace))
			if err != nil {
				t.Fatal(err)
			}
			rep := span.NewReport(span.Build(events))
			if problems := rep.Check(); len(problems) > 0 {
				t.Fatalf("trace fails its own consistency check:\n%v", problems)
			}
			if len(rep.Subjects) != 1 {
				t.Fatalf("expected one subject in the report, got %d", len(rep.Subjects))
			}
			s := rep.Subjects[0]

			stats := res.Repair.Stats
			if s.RepairDone == nil {
				t.Fatal("trace has no repair_done summary")
			}
			if s.CandidateEvents != stats.CandidatesTried {
				t.Errorf("candidate events %d, Stats.CandidatesTried %d",
					s.CandidateEvents, stats.CandidatesTried)
			}
			if s.AcceptedEvents != stats.AcceptedCandidates {
				t.Errorf("accepted events %d, Stats.AcceptedCandidates %d",
					s.AcceptedEvents, stats.AcceptedCandidates)
			}
			if got, want := s.AcceptedEdits, stats.EditLog; len(got) != len(want) {
				t.Errorf("accepted-edit chain %v, Stats.EditLog %v", got, want)
			} else {
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("edit %d: trace %q, stats %q", i, got[i], want[i])
					}
				}
			}
			if s.LastVirtual != stats.VirtualSeconds {
				t.Errorf("trace virtual clock %.6f, Stats.VirtualSeconds %.6f",
					s.LastVirtual, stats.VirtualSeconds)
			}
			if s.RepairDone.HLSInvocations != stats.HLSInvocations {
				t.Errorf("trace HLS invocations %d, Stats %d",
					s.RepairDone.HLSInvocations, stats.HLSInvocations)
			}

			// Phase events must bracket the run: fuzz, profile, repair.
			var phases []string
			for _, p := range s.Phases {
				phases = append(phases, p.Name)
			}
			want := []string{"fuzz", "profile", "repair"}
			if len(phases) != len(want) {
				t.Fatalf("phases %v, want %v", phases, want)
			}
			for i := range want {
				if phases[i] != want[i] {
					t.Fatalf("phases %v, want %v", phases, want)
				}
			}
			if s.Phases[0].VirtualSeconds != res.Campaign.VirtualSeconds {
				t.Errorf("fuzz phase virtual %.3f, campaign %.3f",
					s.Phases[0].VirtualSeconds, res.Campaign.VirtualSeconds)
			}
			if s.Phases[2].VirtualSeconds != stats.VirtualSeconds {
				t.Errorf("repair phase virtual %.3f, stats %.3f",
					s.Phases[2].VirtualSeconds, stats.VirtualSeconds)
			}
		})
	}
}

// TestPipelineTraceDisabledByDefault: a run without an observer must not
// pay for one — and a nop observer must behave exactly like nil.
func TestPipelineTraceDisabledByDefault(t *testing.T) {
	s, err := subjects.ByID("P2")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Kernel: s.Kernel}
	opts.Fuzz = fuzz.Options{MaxExecs: 120, Plateau: 50}
	plain, err := RunUnitContext(context.Background(), s.MustParse(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Obs = obs.Nop()
	nop, err := RunUnitContext(context.Background(), s.MustParse(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Summary() != nop.Summary() || plain.Source != nop.Source {
		t.Error("a nop observer changed the pipeline result")
	}
}
