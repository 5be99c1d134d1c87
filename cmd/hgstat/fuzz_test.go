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
// seeded with the repair search's golden traces.
func FuzzTraceViews(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "..", "internal", "repair", "testdata", "golden", "*.jsonl"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no golden traces to seed the corpus (err %v)", err)
	}
	for _, p := range seeds {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if events, err := obs.ParseTrace(bytes.NewReader(data)); err == nil {
			rep := obs.BuildReport(events)
			rep.Check()
			_ = rep.Text()
			for _, r := range span.Build(events) {
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
