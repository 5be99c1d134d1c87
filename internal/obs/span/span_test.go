package span

import (
	"math"
	"strings"
	"testing"

	"github.com/hetero/heterogen/internal/evalcache"
	"github.com/hetero/heterogen/internal/obs"
)

// stream builds a small but complete run: a fuzz phase with three
// executions, then a repair phase with an init evaluation and two
// candidates (one accepted).
func stream() []obs.Event {
	return []obs.Event{
		{Type: obs.EvPhaseStart, Virtual: 0, Phase: &obs.PhaseEvent{Name: "fuzz"}},
		{Type: obs.EvFuzzExec, Virtual: 0.5, Fuzz: &obs.FuzzEvent{Exec: 1, Covered: 1, TotalOutcomes: 4}},
		{Type: obs.EvFuzzExec, Virtual: 1.0, Fuzz: &obs.FuzzEvent{Exec: 2, Covered: 2, TotalOutcomes: 4}},
		{Type: obs.EvFuzzExec, Virtual: 1.2, Fuzz: &obs.FuzzEvent{Exec: 3, Covered: 2, TotalOutcomes: 4}},
		{Type: obs.EvFuzzDone, Virtual: 1.2, Fuzz: &obs.FuzzEvent{Exec: 3, Covered: 2, TotalOutcomes: 4, Coverage: 0.5}},
		{Type: obs.EvPhaseEnd, Virtual: 1.2, Phase: &obs.PhaseEvent{Name: "fuzz", VirtualDelta: 1.2}},
		{Type: obs.EvPhaseStart, Virtual: 1.2, Phase: &obs.PhaseEvent{Name: "repair"}},
		{Type: obs.EvRepairInit, Virtual: 60, Repair: &obs.RepairEvent{
			Step: "init", Errors: 2, VirtualDelta: 60, CostCompile: 60}},
		{Type: obs.EvCandidate, Virtual: 120.8, Repair: &obs.RepairEvent{
			Step: "repair", Edits: []string{"resize(buf, 2048)"}, Class: "dynamic_data",
			Accepted: true, Reason: "accepted", Evaluated: true,
			VirtualDelta: 60.8, CostStyle: 0.8, CostCompile: 60}},
		{Type: obs.EvCandidate, Virtual: 121.6, Repair: &obs.RepairEvent{
			Step: "repair", Edits: []string{"resize(other, 16)"}, Class: "dynamic_data",
			Style: "reject", Reason: "style-reject", VirtualDelta: 0.8, CostStyle: 0.8}},
		{Type: obs.EvRepairDone, Virtual: 121.6, Done: &obs.DoneEvent{
			Attempts: 2, Accepted: 1, Rejected: 1, VirtualSeconds: 121.6}},
		{Type: obs.EvPhaseEnd, Virtual: 122.8, Phase: &obs.PhaseEvent{Name: "repair", VirtualDelta: 121.6}},
		{Type: obs.EvWarning, Virtual: 122.8, Warn: "late plateau"},
	}
}

func TestBuildHierarchyAndTotals(t *testing.T) {
	runs := Build(stream())
	if len(runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(runs))
	}
	r := runs[0]
	root := r.Root
	if root.Kind != KindRun || len(root.Children) != 2 {
		t.Fatalf("root has %d phases, want 2", len(root.Children))
	}
	fuzzPhase, repairPhase := root.Children[0], root.Children[1]
	if fuzzPhase.Name != "fuzz" || repairPhase.Name != "repair" {
		t.Fatalf("phase order: %q, %q", fuzzPhase.Name, repairPhase.Name)
	}
	// Fuzz: one "execs" stage with three exec leaves whose deltas sum
	// to the phase total.
	if len(fuzzPhase.Children) != 1 || fuzzPhase.Children[0].Name != "execs" {
		t.Fatalf("fuzz phase children: %+v", fuzzPhase.Children)
	}
	execs := fuzzPhase.Children[0]
	if len(execs.Children) != 3 {
		t.Fatalf("got %d exec spans, want 3", len(execs.Children))
	}
	if got := execs.Total; got != 1.2 {
		t.Errorf("execs total %.3f, want 1.2", got)
	}
	if fuzzPhase.Total != 1.2 {
		t.Errorf("fuzz phase total %.3f, want 1.2", fuzzPhase.Total)
	}
	// Repair: init + repair stages, candidates with cost-component
	// children, and the phase's authoritative delta preserved.
	if repairPhase.Total != 121.6 {
		t.Errorf("repair phase total %.3f, want 121.6", repairPhase.Total)
	}
	var stages []string
	for _, st := range repairPhase.Children {
		stages = append(stages, st.Name)
	}
	if strings.Join(stages, ",") != "init,repair" {
		t.Fatalf("repair stages: %v", stages)
	}
	repairStage := repairPhase.Children[1]
	if len(repairStage.Children) != 2 {
		t.Fatalf("got %d candidates, want 2", len(repairStage.Children))
	}
	acc := repairStage.Children[0]
	if !acc.Accepted || acc.Class != "dynamic_data" {
		t.Errorf("accepted candidate: %+v", acc)
	}
	// Cost split: style + compile children, totals reconcile.
	if len(acc.Children) != 2 {
		t.Fatalf("accepted candidate has %d cost spans, want 2", len(acc.Children))
	}
	if acc.Total != 60.8 {
		t.Errorf("candidate total %.3f, want 60.8", acc.Total)
	}
	if len(r.Warnings) != 1 || r.Warnings[0] != "late plateau" {
		t.Errorf("warnings: %v", r.Warnings)
	}
}

func TestBuildIsDeterministic(t *testing.T) {
	a := Build(stream())
	b := Build(stream())
	ta, tb := a[0].Text(0), b[0].Text(0)
	if ta != tb {
		t.Fatalf("two builds of the same stream render differently:\n%s\n---\n%s", ta, tb)
	}
}

func TestCriticalPathFollowsDominantCost(t *testing.T) {
	runs := Build(stream())
	path := runs[0].CriticalPath()
	var names []string
	for _, s := range path {
		names = append(names, string(s.Kind)+":"+s.Name)
	}
	got := strings.Join(names, " ")
	// The repair phase dominates (121.6 vs 1.2), within it the repair
	// stage, within that the accepted candidate, whose compile cost is
	// the largest component.
	want := "run:run phase:repair stage:repair candidate:resize(buf, 2048) cost:compile"
	if got != want {
		t.Fatalf("critical path:\n got %s\nwant %s", got, want)
	}
}

func TestBuildGroupsSubjects(t *testing.T) {
	var events []obs.Event
	for _, sub := range []string{"P1", "P2"} {
		for _, e := range stream() {
			e.Subject = sub
			events = append(events, e)
		}
	}
	runs := Build(events)
	if len(runs) != 2 || runs[0].Subject != "P1" || runs[1].Subject != "P2" {
		t.Fatalf("subject grouping: %+v", runs)
	}
}

func TestAttachMeta(t *testing.T) {
	runs := Build(stream())
	r := runs[0]
	Attach(r, &RunMeta{
		ID: "j-000001", WallMS: 12.5,
		Cache: &evalcache.Stats{Stages: map[evalcache.Stage]evalcache.StageStats{
			evalcache.StageCheck: {Hits: 3, Misses: 1},
		}},
	})
	if r.CacheHits != 3 || r.CacheMisses != 1 {
		t.Errorf("cache attribution: hits=%d misses=%d", r.CacheHits, r.CacheMisses)
	}
	if r.Root.WallNS != 12_500_000 {
		t.Errorf("root wall %d, want 12.5ms", r.Root.WallNS)
	}
	// Attach must not alter the derived topology.
	if got := len(r.Root.Children); got != 2 {
		t.Errorf("attach changed topology: %d phases", got)
	}
}

func TestUnpairedPhaseEndIsKept(t *testing.T) {
	runs := Build([]obs.Event{
		{Type: obs.EvPhaseEnd, Virtual: 5, Phase: &obs.PhaseEvent{Name: "repair", VirtualDelta: 5}},
	})
	if len(runs) != 1 || len(runs[0].Root.Children) != 1 {
		t.Fatalf("unpaired phase_end dropped: %+v", runs)
	}
	if runs[0].Root.Children[0].Total != 5 {
		t.Errorf("synthesized phase total %.1f, want 5", runs[0].Root.Children[0].Total)
	}
}

// TestUnpairedPhaseEndCountsOnce: a phase_end whose start was lost
// takes in the stages hung at the root since the last phase, which its
// reported delta covers, so the run's total counts that time once.
func TestUnpairedPhaseEndCountsOnce(t *testing.T) {
	r := Build([]obs.Event{
		{Type: obs.EvPhaseStart, Virtual: 0, Phase: &obs.PhaseEvent{Name: "profile"}},
		{Type: obs.EvPhaseEnd, Virtual: 1, Phase: &obs.PhaseEvent{Name: "profile", VirtualDelta: 1}},
		{Type: obs.EvFuzzExec, Virtual: 1.5, Fuzz: &obs.FuzzEvent{Exec: 1}},
		{Type: obs.EvFuzzExec, Virtual: 2.5, Fuzz: &obs.FuzzEvent{Exec: 2}},
		{Type: obs.EvPhaseEnd, Virtual: 3, Phase: &obs.PhaseEvent{Name: "fuzz", VirtualDelta: 2}},
	})[0]
	kids := r.Root.Children
	if len(kids) != 2 || kids[0].Name != "profile" || kids[1].Name != "fuzz" {
		t.Fatalf("root has %d children, want the phases profile and fuzz", len(kids))
	}
	fuzz := kids[1]
	if len(fuzz.Children) != 1 || fuzz.Children[0].Name != "execs" {
		t.Fatalf("synthesized phase children %v, want the execs stage", fuzz.Children)
	}
	if fuzz.Total != 2 || fuzz.Self != 0 || r.Root.Total != 3 {
		t.Errorf("fuzz total %.2f self %.2f, run total %.2f; want 2, 0, 3", fuzz.Total, fuzz.Self, r.Root.Total)
	}
}

func TestTextElidesLargeChildLists(t *testing.T) {
	var events []obs.Event
	events = append(events, obs.Event{Type: obs.EvPhaseStart, Phase: &obs.PhaseEvent{Name: "fuzz"}})
	for i := 1; i <= 50; i++ {
		events = append(events, obs.Event{
			Type: obs.EvFuzzExec, Virtual: float64(i),
			Fuzz: &obs.FuzzEvent{Exec: i},
		})
	}
	events = append(events, obs.Event{Type: obs.EvPhaseEnd, Virtual: 50, Phase: &obs.PhaseEvent{Name: "fuzz", VirtualDelta: 50}})
	r := Build(events)[0]
	text := r.Text(5)
	if !strings.Contains(text, "45 more spans") {
		t.Fatalf("elision summary missing:\n%s", text)
	}
	full := r.Text(0)
	if strings.Contains(full, "more spans") {
		t.Fatal("maxChildren=0 must not elide")
	}
}

// TestFuzzClockRestartsAfterCampaign: two phase-less campaigns of one
// subject each charge their executions from a fresh clock, so the
// second campaign's first execution costs its own 0.4 s, not a clamped
// zero against the first campaign's clock.
func TestFuzzClockRestartsAfterCampaign(t *testing.T) {
	var events []obs.Event
	for _, v := range []float64{0.5, 1.0, -1, 0.4, 0.9, -1} {
		if v < 0 {
			events = append(events, obs.Event{Type: obs.EvFuzzDone, Fuzz: &obs.FuzzEvent{}})
			continue
		}
		events = append(events, obs.Event{Type: obs.EvFuzzExec, Virtual: v, Fuzz: &obs.FuzzEvent{}})
	}
	r := Build(events)[0]
	var selfs []float64
	for _, l := range r.Leaves {
		selfs = append(selfs, l.Self)
	}
	if len(selfs) != 4 || selfs[2] != 0.4 || math.Abs(r.Root.Total-1.9) > 1e-9 {
		t.Fatalf("exec costs %v, total %.3f; want [0.5 0.5 0.4 0.5], total 1.9", selfs, r.Root.Total)
	}
	if len(r.FuzzDone) != 2 {
		t.Errorf("kept %d campaign summaries, want 2", len(r.FuzzDone))
	}
}
