package span

import (
	"math"
	"strings"
	"testing"

	"github.com/hetero/heterogen/internal/obs"
)

// synthetic builds a consistent single-run event stream: an initial
// evaluation, one rejected and two accepted candidates, and a matching
// repair_done snapshot.
func synthetic() []obs.Event {
	return []obs.Event{
		{Type: obs.EvRepairInit, Virtual: 60, Repair: &obs.RepairEvent{
			Step: "init", Errors: 3, PassRatio: 0.5, VirtualDelta: 60, CostCompile: 60}},
		{Type: obs.EvCandidate, Virtual: 120.8, Repair: &obs.RepairEvent{
			Step: "repair", Edits: []string{"resize(buf, 2048)"}, Accepted: true, Evaluated: true,
			Errors: 1, PassRatio: 1, VirtualDelta: 60.8, CostStyle: 0.8, CostCompile: 60}},
		{Type: obs.EvCandidate, Virtual: 121.6, Repair: &obs.RepairEvent{
			Step: "repair", Edits: []string{"resize(other, 16)"}, Style: "reject",
			Reason: "style-reject", VirtualDelta: 0.8, CostStyle: 0.8}},
		{Type: obs.EvCandidate, Virtual: 183.4, Repair: &obs.RepairEvent{
			Step: "repair", Edits: []string{"malloc_to_array(p)"}, Accepted: true, Evaluated: true,
			Errors: 0, PassRatio: 1, LatencyMS: 0.4, VirtualDelta: 61.8, CostStyle: 0.8, CostCompile: 60, CostSim: 1}},
		{Type: obs.EvRepairDone, Virtual: 183.4, Done: &obs.DoneEvent{
			Attempts: 3, Accepted: 2, Rejected: 1, StyleRejections: 1, HLSInvocations: 3,
			VirtualSeconds: 183.4, EditLog: []string{"resize(buf, 2048)", "malloc_to_array(p)"},
			Compatible: true, BehaviorOK: true}},
	}
}

func TestReportAndCheck(t *testing.T) {
	rep := NewReport(Build(synthetic()))
	if len(rep.Subjects) != 1 {
		t.Fatalf("subjects = %d, want 1", len(rep.Subjects))
	}
	s := rep.Subjects[0]
	if len(s.Trajectory) != 3 { // init + 2 accepted
		t.Errorf("trajectory has %d points, want 3", len(s.Trajectory))
	}
	if s.CandidateEvents != 3 || s.AcceptedEvents != 2 {
		t.Errorf("candidates %d/%d, want 3/2", s.CandidateEvents, s.AcceptedEvents)
	}
	if len(s.Patterns) != 2 { // resize (tried twice), malloc_to_array
		t.Errorf("patterns %v, want resize + malloc_to_array", s.Patterns)
	}
	if s.Patterns[0].Template != "resize" || s.Patterns[0].Tried != 2 || s.Patterns[0].Accepted != 1 {
		t.Errorf("resize row = %+v", s.Patterns[0])
	}
	if got := s.Budget.StyleSeconds; math.Abs(got-2.4) > 1e-9 {
		t.Errorf("style seconds %.2f, want 2.4", got)
	}
	if problems := rep.Check(); len(problems) != 0 {
		t.Fatalf("consistent trace flagged: %v", problems)
	}
	text := rep.Text()
	for _, want := range []string{"Figure 2", "fix-pattern frequency", "malloc_to_array", "repair: compatible"} {
		if !strings.Contains(text, want) {
			t.Errorf("report text missing %q:\n%s", want, text)
		}
	}
}

func TestCheckFlagsInconsistentTrace(t *testing.T) {
	// Drop one accepted candidate: attempts, accepted count, the edit
	// chain, and the virtual clock all stop matching the summary.
	events := synthetic()
	broken := append(append([]obs.Event{}, events[:3]...), events[4])
	problems := NewReport(Build(broken)).Check()
	if len(problems) < 3 {
		t.Fatalf("expected multiple violations, got %v", problems)
	}
	for _, p := range problems {
		if strings.Contains(p, "attempts") {
			return
		}
	}
	t.Errorf("no attempts mismatch among: %v", problems)
}

func TestReportGroupsBySubject(t *testing.T) {
	var events []obs.Event
	for _, id := range []string{"P2", "P1", "P2"} {
		events = append(events, obs.Event{Type: obs.EvWarning, Subject: id, Warn: "w-" + id})
	}
	rep := NewReport(Build(events))
	if len(rep.Subjects) != 2 {
		t.Fatalf("subjects = %d, want 2", len(rep.Subjects))
	}
	// First-seen order, not sorted.
	if rep.Subjects[0].Subject != "P2" || rep.Subjects[1].Subject != "P1" {
		t.Errorf("order = %s, %s; want P2, P1", rep.Subjects[0].Subject, rep.Subjects[1].Subject)
	}
	if len(rep.Subjects[0].Warnings) != 2 {
		t.Errorf("P2 warnings = %d, want 2", len(rep.Subjects[0].Warnings))
	}
}
