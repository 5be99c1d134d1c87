// Observability-overhead benchmark: the same Figure 2 repair search
// with the full trace stack off and on. "On" means the production
// hgserve sink — a JSONL TraceWriter plus the metrics registry — so the
// measured delta is what a deployment actually pays for tracing.
// The search is pure compute, which makes the comparison as
// unforgiving as possible: any toolchain wait would only dilute the
// overhead.
package heterogen_test

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/hetero/heterogen"
	"github.com/hetero/heterogen/internal/obs"
)

// obsBenchOptions is overlapOptions on one worker, with the hgserve
// sink attached when traced.
func obsBenchOptions(traced bool) (heterogen.Options, func() error) {
	opts := overlapOptions(1)
	if !traced {
		return opts, func() error { return nil }
	}
	tw := obs.NewTraceWriter(io.Discard)
	opts.Obs = obs.Multi(tw, obs.NewRegistry())
	return opts, tw.Flush
}

func runObsSearch(tb testing.TB, traced bool) time.Duration {
	tb.Helper()
	opts, flush := obsBenchOptions(traced)
	start := time.Now()
	res, err := heterogen.Repair(overlapKernel, opts)
	wall := time.Since(start)
	if err != nil {
		tb.Fatal(err)
	}
	if !res.Compatible {
		tb.Fatal("overlap subject must repair")
	}
	if err := flush(); err != nil {
		tb.Fatal(err)
	}
	return wall
}

func BenchmarkObsOverhead(b *testing.B) {
	for _, traced := range []bool{false, true} {
		traced := traced
		name := "trace-off"
		if traced {
			name = "trace-on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runObsSearch(b, traced)
			}
		})
	}
}

// TestWriteObsBenchReport regenerates bench_obs.json, the committed
// record of the tracing overhead. Guarded like the other bench writers:
//
//	WRITE_BENCH=1 go test -run TestWriteObsBenchReport -v
func TestWriteObsBenchReport(t *testing.T) {
	if os.Getenv("WRITE_BENCH") == "" {
		t.Skip("set WRITE_BENCH=1 to regenerate bench_obs.json")
	}
	const rounds = 7
	// Interleave the two configurations so ambient machine noise hits
	// both equally, and compare medians.
	var off, on []float64
	for i := 0; i < rounds; i++ {
		off = append(off, float64(runObsSearch(t, false).Microseconds())/1000)
		on = append(on, float64(runObsSearch(t, true).Microseconds())/1000)
	}
	med := func(xs []float64) float64 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return s[len(s)/2]
	}
	offMed, onMed := med(off), med(on)
	overheadPct := 100 * (onMed - offMed) / offMed

	report := struct {
		Note        string    `json:"note"`
		GOMAXPROC   int       `json:"gomaxprocs"`
		Rounds      int       `json:"rounds"`
		OffMS       []float64 `json:"trace_off_ms"`
		OnMS        []float64 `json:"trace_on_ms"`
		OffMedianMS float64   `json:"trace_off_median_ms"`
		OnMedianMS  float64   `json:"trace_on_median_ms"`
		OverheadPct float64   `json:"overhead_pct"`
	}{
		Note: "Figure 2 subject (random-mode repair search, pure compute) " +
			"run with tracing off vs the full hgserve sink (JSONL " +
			"TraceWriter + metrics registry). Medians over interleaved rounds. " +
			"The budget gate is 5% overhead; production jobs additionally block " +
			"on external toolchain invocations, so their relative overhead is " +
			"lower still.",
		GOMAXPROC:   runtime.GOMAXPROCS(0),
		Rounds:      rounds,
		OffMS:       off,
		OnMS:        on,
		OffMedianMS: offMed,
		OnMedianMS:  onMed,
		OverheadPct: overheadPct,
	}
	if overheadPct >= 5 {
		t.Errorf("tracing overhead %.2f%% exceeds the 5%% budget (off=%.1fms on=%.1fms)",
			overheadPct, offMed, onMed)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("bench_obs.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log(fmt.Sprintf("tracing overhead %.2f%% (off=%.1fms, on=%.1fms)", overheadPct, offMed, onMed))
}
