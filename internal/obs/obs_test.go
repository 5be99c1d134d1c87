package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestNopAndEnabled(t *testing.T) {
	if Enabled(nil) || Enabled(Nop()) {
		t.Error("nil / nop observers must report disabled")
	}
	if !Enabled(NewRegistry()) {
		t.Error("a live sink must report enabled")
	}
	OrNop(nil).Emit(Event{Type: EvWarning}) // must not panic
	if o := OrNop(nil); Enabled(o) {
		t.Error("OrNop(nil) must normalize to the no-op observer")
	}
}

func TestMultiDropsDeadSinks(t *testing.T) {
	reg := NewRegistry()
	o := Multi(nil, Nop(), reg, nil)
	if o != Observer(reg) {
		t.Error("Multi with one live sink should collapse to that sink")
	}
	if Enabled(Multi(nil, Nop())) {
		t.Error("Multi with no live sinks must be the no-op observer")
	}
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	both := Multi(reg, tw)
	both.Emit(Event{Type: EvWarning, Warn: "w"})
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	cs, _ := reg.snapshot()
	if cs["warnings"] != 1 {
		t.Errorf("registry missed the fanned-out event: %v", cs)
	}
	if !strings.Contains(buf.String(), `"warn":"w"`) {
		t.Errorf("trace missed the fanned-out event: %q", buf.String())
	}
}

func TestTagStampsSubject(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	o := Tag(tw, "P7")
	o.Emit(Event{Type: EvWarning, Warn: "a"})
	o.Emit(Event{Type: EvWarning, Subject: "P1", Warn: "b"}) // pre-tagged wins
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if events[0].Subject != "P7" || events[1].Subject != "P1" {
		t.Errorf("subjects = %q, %q; want P7, P1", events[0].Subject, events[1].Subject)
	}
	if Enabled(Tag(nil, "P7")) {
		t.Error("tagging a dead observer must stay dead")
	}
}

func TestTraceWriterStripsWallClock(t *testing.T) {
	ev := Event{Type: EvPhaseEnd, Virtual: 5,
		Phase: &PhaseEvent{Name: "fuzz", VirtualDelta: 5, WallNS: 12345}}

	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	tw.Emit(ev)
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "wall_ns") {
		t.Errorf("default trace must strip wall_ns: %s", buf.String())
	}
	if ev.Phase.WallNS != 12345 {
		t.Error("stripping must not mutate the caller's event")
	}

	buf.Reset()
	tw = NewTraceWriter(&buf)
	tw.IncludeWall = true
	tw.Emit(ev)
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"wall_ns":12345`) {
		t.Errorf("IncludeWall trace must keep wall_ns: %s", buf.String())
	}
}

func TestParseTraceRoundTrip(t *testing.T) {
	events := []Event{
		{Type: EvFuzzExec, Virtual: 0.9, Fuzz: &FuzzEvent{Exec: 1, Gained: true, Covered: 3, TotalOutcomes: 8, Corpus: 1, Tests: 1}},
		{Type: EvFuzzDone, Virtual: 1.8, Fuzz: &FuzzEvent{Exec: 2, Covered: 3, TotalOutcomes: 8, Coverage: 0.375, Plateaued: true}},
		{Type: EvWarning, Warn: "plateau"},
		{Type: EvCheck, Check: &CheckEvent{Top: "k", Errors: 2, ByClass: map[string]int{"pointer": 1, "malloc": 1}}},
	}
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	for _, e := range events {
		tw.Emit(e)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("parsed %d events, want %d", len(got), len(events))
	}
	if got[0].Fuzz == nil || !got[0].Fuzz.Gained || got[0].Virtual != 0.9 {
		t.Errorf("fuzz_exec did not round-trip: %+v", got[0])
	}
	if got[3].Check == nil || got[3].Check.ByClass["pointer"] != 1 {
		t.Errorf("hls_check did not round-trip: %+v", got[3])
	}
}

func TestParseTraceRejectsGarbage(t *testing.T) {
	_, err := ParseTrace(strings.NewReader("{\"type\":\"warning\"}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("want a line-numbered parse error, got %v", err)
	}
}

func TestRegistryAggregation(t *testing.T) {
	r := NewRegistry()
	r.Emit(Event{Type: EvFuzzExec, Fuzz: &FuzzEvent{Gained: true}})
	r.Emit(Event{Type: EvFuzzExec, Fuzz: &FuzzEvent{Crashed: true}})
	r.Emit(Event{Type: EvFuzzDone, Virtual: 1.8, Fuzz: &FuzzEvent{Plateaued: true}})
	r.Emit(Event{Type: EvRepairInit, Repair: &RepairEvent{VirtualDelta: 50}})
	r.Emit(Event{Type: EvCandidate, Repair: &RepairEvent{Accepted: true, Evaluated: true, Style: "ok", VirtualDelta: 51}})
	r.Emit(Event{Type: EvCandidate, Repair: &RepairEvent{Style: "reject", VirtualDelta: 0.8}})
	r.Emit(Event{Type: EvRepairDone, Done: &DoneEvent{VirtualSeconds: 101.8, Compatible: true, BehaviorOK: true}})
	r.Emit(Event{Type: EvPhaseEnd, Phase: &PhaseEvent{Name: "repair", VirtualDelta: 101.8, WallNS: 2e6}})
	r.Emit(Event{Type: EvWarning, Warn: "w"})

	cs, hs := r.snapshot()
	for name, want := range map[string]int64{
		"fuzz.execs": 2, "fuzz.gained": 1, "fuzz.crashes": 1, "fuzz.plateaus": 1,
		"repair.searches": 1, "repair.candidates": 2, "repair.accepted": 1,
		"repair.rejected": 1, "repair.style_rejections": 1,
		"repair.hls_invocations": 2, "repair.compatible": 1, "warnings": 1,
	} {
		if cs[name] != want {
			t.Errorf("counter %s = %d, want %d", name, cs[name], want)
		}
	}
	if h := hs["repair.eval_virtual_s"]; h.Count != 3 || h.Sum != 101.8 {
		t.Errorf("eval histogram n=%d sum=%.1f, want n=3 sum=101.8", h.Count, h.Sum)
	}
	if h := hs["phase.wall_ms.repair"]; h.Count != 1 || h.Sum != 2 {
		t.Errorf("wall histogram n=%d sum=%.1f, want n=1 sum=2", h.Count, h.Sum)
	}
	text := r.Text()
	if !strings.Contains(text, "repair.candidates") || !strings.Contains(text, "phase.wall_ms.repair") {
		t.Errorf("Text() missing entries:\n%s", text)
	}
	if _, err := r.JSON(); err != nil {
		t.Fatal(err)
	}
}
