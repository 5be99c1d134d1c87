package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/hetero/heterogen/internal/obs"
	"github.com/hetero/heterogen/internal/obs/agg"
	"github.com/hetero/heterogen/internal/obs/span"
)

// FuzzTraceViews feeds arbitrary bytes through every view hgstat
// renders: the single-run report and its check, the span tree and
// critical path, and the fleet aggregate. A malformed trace may be
// rejected with an error but must never panic a view. The corpus is
// seeded with the repair and fuzz golden traces and the pipeline
// fixture, so between them the seeds hold every event type: phase
// pairing, the per-exec delta rule and check leaves all get reached.
func FuzzTraceViews(f *testing.F) {
	var seeds []string
	for _, dir := range []string{"repair", "fuzz"} {
		paths, err := filepath.Glob(filepath.Join("..", "..", "internal", dir, "testdata", "golden", "*.jsonl"))
		if err != nil || len(paths) == 0 {
			f.Fatalf("no %s golden traces to seed the corpus (err %v)", dir, err)
		}
		seeds = append(seeds, paths...)
	}
	for _, p := range append(seeds, pipelineFixture) {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if events, err := obs.ParseTrace(bytes.NewReader(data)); err == nil {
			runs := span.Build(events)
			rep := span.NewReport(runs)
			rep.Check()
			_ = rep.Text()
			for _, r := range runs {
				_ = r.Text(8)
				r.CriticalPath()
			}
		}
		in := agg.NewIngestor()
		if in.Add("fuzz.jsonl", data, nil) == nil {
			_ = in.Snapshot().Text()
		}
	})
}
