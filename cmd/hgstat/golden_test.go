package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hetero/heterogen/internal/core"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/obs"
	"github.com/hetero/heterogen/internal/obs/agg"
	"github.com/hetero/heterogen/internal/obs/span"
	"github.com/hetero/heterogen/internal/subjects"
)

// The view goldens under testdata/golden pin every view hgstat renders
// from a trace: per trace, the single-run report (text and -json), its
// -check problems and the -span tree at -top 8 with its critical path;
// over the whole trace set, the fleet report (text and -json). The
// traces are the repair and fuzz golden traces, the pipeline fixture
// testdata/pipeline.jsonl (two full core.Run traces, P2 and P6, and one
// untagged core.Check trace; P6 carries a target stamp) and three
// malformed streams derived here. Regenerate with `make golden` (go
// test -update, which also rewrites the pipeline fixture) only for an
// intended behaviour change, and review the diff like code.

var update = flag.Bool("update", false, "rewrite the pipeline fixture and testdata/golden from the current views instead of comparing")

const pipelineFixture = "testdata/pipeline.jsonl"

// twoCampaigns is two fuzz campaigns of one subject with no phase
// events: the per-exec deltas must restart after the first fuzz_done.
const twoCampaigns = `{"type":"fuzz_exec","virtual":0.5,"fuzz":{"exec":1,"gained":true,"covered":1,"total_outcomes":4,"corpus":1,"tests":1,"since_gain":0}}
{"type":"fuzz_exec","virtual":1,"fuzz":{"exec":2,"gained":true,"covered":2,"total_outcomes":4,"corpus":2,"tests":2,"since_gain":0}}
{"type":"fuzz_done","virtual":1,"fuzz":{"exec":2,"covered":2,"total_outcomes":4,"corpus":2,"tests":2,"since_gain":0,"coverage":0.5}}
{"type":"fuzz_exec","virtual":0.4,"fuzz":{"exec":1,"gained":true,"covered":1,"total_outcomes":4,"corpus":1,"tests":1,"since_gain":0}}
{"type":"fuzz_exec","virtual":0.9,"fuzz":{"exec":2,"covered":1,"total_outcomes":4,"corpus":1,"tests":1,"since_gain":1}}
{"type":"fuzz_done","virtual":0.9,"fuzz":{"exec":2,"covered":1,"total_outcomes":4,"corpus":1,"tests":1,"since_gain":1,"coverage":0.25}}
`

// writePipelineFixture records the pipeline fixture: P2 and P6 through
// core.Run at TestPipelineTraceRoundTrip's budget, each tagged with its
// subject id, then one standalone check of P2's source.
func writePipelineFixture(t *testing.T) {
	t.Helper()
	var buf bytes.Buffer
	tw := obs.NewTraceWriter(&buf)
	for _, id := range []string{"P2", "P6"} {
		s, err := subjects.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		o := obs.Tag(tw, id)
		if id == "P6" {
			o = obs.TagTarget(o, hls.TargetSetString([]hls.Target{hls.DefaultTarget()}))
		}
		opts := core.Options{Kernel: s.Kernel, Workers: 1, Obs: o}
		opts.Fuzz = fuzz.DefaultOptions()
		opts.Fuzz.MaxExecs = 150
		opts.Fuzz.Plateau = 60
		if _, err := core.Run(s.Source, opts); err != nil {
			t.Fatal(err)
		}
	}
	p2, err := subjects.ByID("P2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Check(p2.Source, core.Options{Kernel: p2.Kernel, Obs: tw}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(pipelineFixture), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pipelineFixture, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// dropFirst returns data without its first line containing marker.
func dropFirst(t *testing.T, data []byte, marker string) []byte {
	t.Helper()
	var out []byte
	dropped := false
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if !dropped && bytes.Contains(line, []byte(marker)) {
			dropped = true
			continue
		}
		out = append(out, line...)
	}
	if !dropped {
		t.Fatalf("no line contains %s", marker)
	}
	return out
}

type namedTrace struct {
	name string
	data []byte
}

// viewTraces lists every trace the goldens cover, in a fixed order.
func viewTraces(t *testing.T) []namedTrace {
	t.Helper()
	var traces []namedTrace
	for _, dir := range []string{"repair", "fuzz"} {
		paths, err := filepath.Glob(filepath.Join("..", "..", "internal", dir, "testdata", "golden", "*.jsonl"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no %s golden traces (err %v)", dir, err)
		}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			traces = append(traces, namedTrace{dir + "-" + strings.TrimSuffix(filepath.Base(p), ".jsonl"), b})
		}
	}
	pipeline, err := os.ReadFile(pipelineFixture)
	if err != nil {
		t.Fatal(err)
	}
	return append(traces,
		namedTrace{"pipeline", pipeline},
		namedTrace{"unpaired-phase-end", dropFirst(t, pipeline, `"type":"phase_start"`)},
		namedTrace{"dropped-candidate", dropFirst(t, pipeline, `"type":"repair_candidate"`)},
		namedTrace{"two-campaigns", []byte(twoCampaigns)},
	)
}

// indentJSON is hgstat -json's encoding of v.
func indentJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// traceViews renders every single-trace view of data the way hgstat
// prints it, one headed section per view.
func traceViews(t *testing.T, data []byte) []byte {
	t.Helper()
	events, err := obs.ParseTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	runs := span.Build(events)
	rep := span.NewReport(runs)
	sb.WriteString("### report\n" + rep.Text())
	sb.WriteString("### report -json\n" + indentJSON(t, rep))
	sb.WriteString("### check\n")
	for _, p := range rep.Check() {
		sb.WriteString(p + "\n")
	}
	sb.WriteString("### span -top 8\n")
	for i, r := range runs {
		if i > 0 {
			sb.WriteString("\n")
		}
		sb.WriteString(r.Text(8))
	}
	return []byte(sb.String())
}

// assertGolden compares got with the golden file name, rewriting it
// first under -update.
func assertGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range wl {
		var g []byte
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(wl[i], g) {
			t.Fatalf("%s differs at line %d:\nwant: %s\ngot:  %s", path, i+1, wl[i], g)
		}
	}
	t.Fatalf("%s: got %d extra lines", path, len(gl)-len(wl))
}

// TestViewGolden checks every view of every trace, and the fleet view
// of the whole set, against the recorded goldens.
func TestViewGolden(t *testing.T) {
	if *update {
		writePipelineFixture(t)
	}
	in := agg.NewIngestor()
	for _, tr := range viewTraces(t) {
		t.Run(tr.name, func(t *testing.T) {
			assertGolden(t, tr.name+".txt", traceViews(t, tr.data))
		})
		if err := in.Add(tr.name+".jsonl", tr.data, nil); err != nil {
			t.Fatal(err)
		}
	}
	fleet := in.Snapshot()
	assertGolden(t, "fleet.txt", []byte("### fleet\n"+fleet.Text()+"### fleet -json\n"+indentJSON(t, fleet)))
}
