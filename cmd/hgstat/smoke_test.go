package main

// The obs-smoke gate (`make obs-smoke`, OBS_SMOKE=1): run a small
// traced hgconform sweep in-process, then drive the real hgstat binary
// over the retained traces and assert the fleet report and its JSON
// aggregate are byte-identical across two ingestion orders. This is the
// end-to-end determinism contract: trace capture -> warehouse ->
// operator report, order-free. It also drives the single-run views
// of one trace file: the report and its -check cross-validation.

import (
	"bytes"
	"context"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"github.com/hetero/heterogen"
)

func TestObsSmoke(t *testing.T) {
	if os.Getenv("OBS_SMOKE") == "" {
		t.Skip("set OBS_SMOKE=1 (make obs-smoke) to run")
	}

	// A small sweep with tracing on: enough seeds that several reach the
	// pipeline stage and leave traces.
	sweep := t.TempDir()
	rep, err := heterogen.ConformContext(context.Background(), heterogen.ConformOptions{
		Seed: 1, Count: 6, FuzzExecs: 60, MaxIterations: 16,
		ParityEvery: -1, TraceDir: sweep,
	})
	if err != nil {
		t.Fatal(err)
	}
	traces, err := filepath.Glob(filepath.Join(sweep, "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) < 2 {
		t.Fatalf("sweep left %d traces (report: %s), need at least 2", len(traces), rep.Summary())
	}

	// Split the traces across two directories so swapping the directory
	// arguments swaps the ingestion order.
	dirA, dirB := t.TempDir(), t.TempDir()
	for i, src := range traces {
		dst := dirA
		if i%2 == 1 {
			dst = dirB
		}
		b, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(src)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	bin := filepath.Join(t.TempDir(), "hgstat")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build: %v", err)
	}

	run := func(args ...string) []byte {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("hgstat %v: %v", args, err)
		}
		return out
	}

	report1 := run(dirA, dirB)
	report2 := run(dirB, dirA)
	if !bytes.Equal(report1, report2) {
		t.Fatalf("fleet report depends on ingestion order\n--- A,B\n%s\n--- B,A\n%s", report1, report2)
	}
	if !bytes.Contains(report1, []byte("convergence funnel")) {
		t.Errorf("report missing convergence funnel:\n%s", report1)
	}

	// JSON mode is equally order-free.
	j1 := run("-json", dirA, dirB)
	j2 := run("-json", dirB, dirA)
	if !bytes.Equal(j1, j2) {
		t.Fatal("JSON fleet aggregate depends on ingestion order")
	}

	// The span view renders a tree and a critical path for one trace.
	spanOut := run("-span", traces[0])
	if !bytes.HasPrefix(spanOut, []byte("== ")) || !bytes.Contains(spanOut, []byte("critical path:")) {
		t.Errorf("span view:\n%s", spanOut)
	}

	// A trace file operand gets the single-run report, and -check
	// cross-validates it against the run summary: a consistent trace
	// exits 0, one with a candidate event deleted exits 1.
	var repaired string
	var data []byte
	for _, tr := range traces {
		b, err := os.ReadFile(tr)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(b, []byte(`"type":"repair_candidate"`)) {
			repaired, data = tr, b
			break
		}
	}
	if repaired == "" {
		t.Fatal("no sweep trace reached the repair search")
	}
	runOut := run(repaired)
	if !bytes.Contains(runOut, []byte("repair trajectory")) {
		t.Errorf("single-run report:\n%s", runOut)
	}
	run("-check", repaired)

	var kept [][]byte
	dropped := false
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if !dropped && bytes.Contains(line, []byte(`"type":"repair_candidate"`)) {
			dropped = true
			continue
		}
		kept = append(kept, line)
	}
	broken := filepath.Join(t.TempDir(), "broken.jsonl")
	if err := os.WriteFile(broken, bytes.Join(kept, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-check", broken)
	cmd.Stdout = io.Discard
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Fatalf("hgstat -check passed a trace with a candidate event deleted:\n%s", stderr.Bytes())
	} else if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("hgstat -check on a broken trace: %v, want exit status 1", err)
	}
	if !bytes.Contains(stderr.Bytes(), []byte("hgstat: check:")) {
		t.Errorf("-check reported no problem lines:\n%s", stderr.Bytes())
	}
}
