package agg

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/hetero/heterogen/internal/evalcache"
	"github.com/hetero/heterogen/internal/obs"
	"github.com/hetero/heterogen/internal/obs/span"
)

// traceBytes renders a run with the given subject and candidate mix as
// JSONL trace bytes.
func traceBytes(t *testing.T, subject string, accepted int) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := obs.NewTraceWriter(&buf)
	emit := func(e obs.Event) {
		e.Subject = subject
		tw.Emit(e)
	}
	emit(obs.Event{Type: obs.EvPhaseStart, Phase: &obs.PhaseEvent{Name: "repair"}})
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
	virt += 0.8
	emit(obs.Event{Type: obs.EvCandidate, Virtual: virt, Repair: &obs.RepairEvent{
		Step: "repair", Edits: []string{"malloc_to_array(p)"}, Class: "dynamic_data",
		Style: "reject", Reason: "style-reject", VirtualDelta: 0.8, CostStyle: 0.8}})
	emit(obs.Event{Type: obs.EvRepairDone, Virtual: virt, Done: &obs.DoneEvent{
		Attempts: accepted + 1, Accepted: accepted, Rejected: 1,
		VirtualSeconds: virt, Compatible: accepted > 0, BehaviorOK: accepted > 0}})
	emit(obs.Event{Type: obs.EvPhaseEnd, Virtual: virt, Phase: &obs.PhaseEvent{Name: "repair", VirtualDelta: virt}})
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fleetBytes renders both views of the aggregate: the text report and
// the JSON encoding (hgstat -json) of every field.
func fleetBytes(t *testing.T, f *Fleet) ([]byte, []byte) {
	t.Helper()
	jb, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(f.Text()), jb
}

// TestIngestionOrderIndependence is the warehouse's core regression:
// any permutation of the same trace set yields a byte-identical report
// and JSON aggregate.
func TestIngestionOrderIndependence(t *testing.T) {
	var names []string
	var data [][]byte
	for i := 0; i < 8; i++ {
		names = append(names, string(rune('a'+i))+".jsonl")
		data = append(data, traceBytes(t, "P"+string(rune('1'+i)), i%4))
	}
	baseline := NewIngestor()
	for i := range names {
		if err := baseline.Add(names[i], data[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	wantText, wantJSON := fleetBytes(t, baseline.Snapshot())

	rng := rand.New(rand.NewSource(7))
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

func TestContentAddressedDedup(t *testing.T) {
	tr := traceBytes(t, "P1", 2)
	in := NewIngestor()
	if err := in.Add("a.jsonl", tr, nil); err != nil {
		t.Fatal(err)
	}
	if err := in.Add("copy-of-a.jsonl", tr, nil); err != nil {
		t.Fatal(err)
	}
	f := in.Snapshot()
	if f.Traces != 1 {
		t.Fatalf("identical traces counted %d times, want 1", f.Traces)
	}
	if f.Funnel.Attempts != 3 {
		t.Fatalf("attempts %d, want 3 (2 accepted + 1 rejected, counted once)", f.Funnel.Attempts)
	}
}

// TestDuplicateTraceSidecarsAccumulate covers the hgserve fleet shape:
// two jobs on the same input produce byte-identical traces (one trace
// after dedup) but distinct sidecars (two real jobs). Both sidecars
// must count, and the report must not depend on which copy arrived
// first.
func TestDuplicateTraceSidecarsAccumulate(t *testing.T) {
	tr := traceBytes(t, "P1", 2)
	metaA := &span.RunMeta{ID: "j-1", Kind: "transpile", State: "done", QueueWaitMS: 2, WallMS: 100,
		Cache: &evalcache.Stats{Stages: map[evalcache.Stage]evalcache.StageStats{
			evalcache.StageCheck: {Hits: 0, Misses: 7},
		}}}
	metaB := &span.RunMeta{ID: "j-2", Kind: "transpile", State: "done", QueueWaitMS: 5, WallMS: 40,
		Cache: &evalcache.Stats{Stages: map[evalcache.Stage]evalcache.StageStats{
			evalcache.StageCheck: {Hits: 7, Misses: 0},
		}}}

	var texts [][]byte
	for _, order := range [][]*span.RunMeta{{metaA, metaB}, {metaB, metaA}} {
		in := NewIngestor()
		for i, m := range order {
			name := []string{"z.jsonl", "a.jsonl"}[i] // names also swap
			if err := in.Add(name, tr, m); err != nil {
				t.Fatal(err)
			}
		}
		f := in.Snapshot()
		if f.Traces != 1 || f.Funnel.Attempts != 3 {
			t.Fatalf("dedup broke: traces=%d attempts=%d", f.Traces, f.Funnel.Attempts)
		}
		if len(f.Cache) != 1 || f.Cache[0].Hits != 7 || f.Cache[0].Misses != 7 {
			t.Fatalf("sidecars not accumulated: %+v", f.Cache)
		}
		if f.QueueWaitMS == nil || f.QueueWaitMS.Count != 2 {
			t.Fatalf("queue wait samples: %+v", f.QueueWaitMS)
		}
		if f.Index[0].Name != "a.jsonl" {
			t.Fatalf("index name %q depends on ingestion order, want a.jsonl", f.Index[0].Name)
		}
		text, _ := fleetBytes(t, f)
		texts = append(texts, text)
	}
	if !bytes.Equal(texts[0], texts[1]) {
		t.Fatalf("report depends on duplicate ingestion order\n--- order A\n%s\n--- order B\n%s", texts[0], texts[1])
	}
}

func TestIngestDirWithSidecars(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "j-1.jsonl"), traceBytes(t, "", 1), 0o644); err != nil {
		t.Fatal(err)
	}
	meta := span.RunMeta{
		ID: "j-1", CorrelationID: "req-42", Kind: "repair", State: "done",
		QueueWaitMS: 3, WallMS: 120, Events: 5,
		Cache: &evalcache.Stats{Stages: map[evalcache.Stage]evalcache.StageStats{
			evalcache.StageCheck: {Hits: 5, Misses: 2},
		}},
	}
	mb, _ := json.Marshal(meta)
	if err := os.WriteFile(filepath.Join(dir, "j-1.meta.json"), mb, 0o644); err != nil {
		t.Fatal(err)
	}
	// A stray non-trace file must be ignored.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	in := NewIngestor()
	n, err := in.IngestDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("ingested %d files, want 1", n)
	}
	f := in.Snapshot()
	if len(f.Cache) != 1 || f.Cache[0].Hits != 5 || f.Cache[0].Misses != 2 {
		t.Fatalf("cache attribution: %+v", f.Cache)
	}
	if f.QueueWaitMS == nil || f.QueueWaitMS.Count != 1 {
		t.Fatalf("queue wait: %+v", f.QueueWaitMS)
	}
	if len(f.JobWallMS) != 1 || f.JobWallMS[0].Name != "repair" {
		t.Fatalf("job wall: %+v", f.JobWallMS)
	}
}

func TestDistPercentiles(t *testing.T) {
	var samples []float64
	for i := 100; i >= 1; i-- {
		samples = append(samples, float64(i))
	}
	d := NewDist(samples)
	if d.Count != 100 || d.Min != 1 || d.Max != 100 {
		t.Fatalf("bounds: %+v", d)
	}
	if d.P50 != 50 || d.P90 != 90 || d.P95 != 95 || d.P99 != 99 {
		t.Fatalf("percentiles: %+v", d)
	}
	one := NewDist([]float64{7})
	if one.P50 != 7 || one.P99 != 7 || one.Min != 7 || one.Max != 7 {
		t.Fatalf("single sample: %+v", one)
	}
	zero := NewDist(nil)
	if zero.Count != 0 || zero.Mean() != 0 {
		t.Fatalf("empty: %+v", zero)
	}
}
