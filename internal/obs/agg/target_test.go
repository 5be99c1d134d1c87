package agg

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"github.com/hetero/heterogen/internal/obs"
)

// targetedTrace is traceBytes with every event stamped via TagTarget —
// the shape targeted CLI runs and serve jobs produce.
func targetedTrace(t *testing.T, subject, target string, accepted int) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := obs.NewTraceWriter(&buf)
	sink := obs.TagTarget(tw, target)
	emit := func(e obs.Event) {
		e.Subject = subject
		sink.Emit(e)
	}
	emit(obs.Event{Type: obs.EvRepairInit, Virtual: 60, Repair: &obs.RepairEvent{
		Step: "init", VirtualDelta: 60, CostCompile: 60}})
	virt := 60.0
	for i := 0; i < accepted; i++ {
		virt += 60.8
		emit(obs.Event{Type: obs.EvCandidate, Virtual: virt, Repair: &obs.RepairEvent{
			Step: "repair", Edits: []string{"resize(buf, 2048)"}, Class: "dynamic_data",
			Accepted: true, Reason: "accepted", Evaluated: true,
			VirtualDelta: 60.8, CostStyle: 0.8, CostCompile: 60}})
	}
	emit(obs.Event{Type: obs.EvRepairDone, Virtual: virt, Done: &obs.DoneEvent{
		Attempts: accepted, Accepted: accepted,
		VirtualSeconds: virt, Compatible: accepted > 0, BehaviorOK: accepted > 0}})
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTargetBreakdown: targeted traces split the repair funnel and the
// candidate-evaluation latency per target-set stamp.
func TestTargetBreakdown(t *testing.T) {
	in := NewIngestor()
	for i, tr := range [][]byte{
		targetedTrace(t, "P1", "vivado_hls:xcvu9p", 2),
		targetedTrace(t, "P2", "vivado_hls:xcvu9p+vivado_hls:zc706", 3),
		targetedTrace(t, "P3", "vivado_hls:xcvu9p", 1),
	} {
		if err := in.Add(string(rune('a'+i))+".jsonl", tr, nil); err != nil {
			t.Fatal(err)
		}
	}
	f := in.Snapshot()
	if len(f.Targets) != 2 {
		t.Fatalf("fleet has %d target rows, want 2: %+v", len(f.Targets), f.Targets)
	}
	single, multi := f.Targets[0], f.Targets[1]
	if single.Target != "vivado_hls:xcvu9p" || multi.Target != "vivado_hls:xcvu9p+vivado_hls:zc706" {
		t.Fatalf("target rows out of canonical order: %q, %q", f.Targets[0].Target, f.Targets[1].Target)
	}
	if single.Attempts != 3 || single.Accepted != 3 || single.Converged != 2 {
		t.Errorf("single-target funnel = %d/%d/%d, want 3/3/2",
			single.Attempts, single.Accepted, single.Converged)
	}
	if multi.Attempts != 3 || multi.Converged != 1 {
		t.Errorf("multi-target funnel = %d attempts / %d converged, want 3/1", multi.Attempts, multi.Converged)
	}
	for _, ts := range f.Targets {
		if ts.EvalVirtual == nil || ts.EvalVirtual.Count != ts.Attempts {
			t.Errorf("%s: eval latency dist missing or short: %+v", ts.Target, ts.EvalVirtual)
		} else if ts.EvalVirtual.P95 != 60.8 {
			t.Errorf("%s: eval p95 = %g, want 60.8", ts.Target, ts.EvalVirtual.P95)
		}
	}
	if !strings.Contains(f.Text(), "per-target breakdown:") {
		t.Error("text report is missing the per-target section")
	}
}

// TestUntargetedReportUnchanged: classic untargeted trace sets must
// render without any per-target section — the byte-identity guarantee
// for pre-target fleets.
func TestUntargetedReportUnchanged(t *testing.T) {
	in := NewIngestor()
	if err := in.Add("a.jsonl", traceBytes(t, "P1", 2), nil); err != nil {
		t.Fatal(err)
	}
	f := in.Snapshot()
	if len(f.Targets) != 0 {
		t.Fatalf("untargeted trace produced target rows: %+v", f.Targets)
	}
	if strings.Contains(f.Text(), "per-target") {
		t.Error("untargeted report mentions targets")
	}
}

// TestTargetOrderIndependence extends the warehouse's core byte-
// identity regression to targeted trace sets.
func TestTargetOrderIndependence(t *testing.T) {
	var names []string
	var data [][]byte
	stamps := []string{"", "vivado_hls:xcvu9p", "vitis:aws_f1", "vivado_hls:xcvu9p+vitis:aws_f1"}
	for i := 0; i < 8; i++ {
		names = append(names, string(rune('a'+i))+".jsonl")
		stamp := stamps[i%len(stamps)]
		if stamp == "" {
			data = append(data, traceBytes(t, "P"+string(rune('1'+i)), i%4))
		} else {
			data = append(data, targetedTrace(t, "P"+string(rune('1'+i)), stamp, i%4))
		}
	}
	baseline := NewIngestor()
	for i := range names {
		if err := baseline.Add(names[i], data[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	wantText, wantJSON := fleetBytes(t, baseline.Snapshot())
	if !bytes.Contains(wantText, []byte("per-target breakdown:")) {
		t.Fatal("mixed trace set did not render the per-target section")
	}

	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		perm := rng.Perm(len(names))
		in := NewIngestor()
		for _, i := range perm {
			if err := in.Add(names[i], data[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		gotText, gotJSON := fleetBytes(t, in.Snapshot())
		if !bytes.Equal(gotText, wantText) {
			t.Fatalf("permutation %v: report differs\n--- want\n%s\n--- got\n%s", perm, wantText, gotText)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("permutation %v: JSON aggregate differs\n--- want\n%s\n--- got\n%s", perm, wantJSON, gotJSON)
		}
	}
}
