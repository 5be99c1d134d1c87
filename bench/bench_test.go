package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"github.com/hetero/heterogen/internal/difftest"
	"github.com/hetero/heterogen/internal/progen"
	"github.com/hetero/heterogen/internal/repair"
)

// TestMain lets the test binary serve as the probe process, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(probeChildEnv) != "" {
		runProbeChild()
		return
	}
	os.Exit(m.Run())
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestProbeMeasuresAndStops(t *testing.T) {
	p, err := startProbe()
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * probePeriod)
	sp, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.cpuMS) < 2 || sp.cpu <= 0 || sp.wall <= 0 || math.IsInf(sp.cpu, 0) || math.IsInf(sp.wall, 0) {
		t.Errorf("probe: %d samples, speed %+v", len(p.cpuMS), sp)
	}
	if p.cmd.ProcessState == nil || !p.cmd.ProcessState.Exited() {
		t.Error("stop returned before the probe process exited")
	}
	if again, err := p.stop(); err != nil || again != sp {
		t.Errorf("a second stop gave %+v, %v", again, err)
	}
}

func TestPercentileGeomeanQuartiles(t *testing.T) {
	var oneTo20 []float64
	for i := 1; i <= 20; i++ {
		oneTo20 = append(oneTo20, float64(i))
	}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{40, 10, 30, 20}, 0.5, 25}, // interpolates between 20 and 30
		{oneTo20, 0.95, 19.05},
		{[]float64{7}, 0.95, 7},
		{nil, 0.5, 0},
	} {
		if got := percentile(c.xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	// Reference medians from Python: statistics.median_grouped(xs).
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{4, 1, 2, 2, 3, 4, 4, 4, 4, 5}, 0.5, 3.7},
		{[]float64{52, 52, 53, 54}, 0.5, 52.5},
		{[]float64{3}, 0.5, 3},
		{append(make([]float64, 18), 1, 1), 0.95, 1}, // rank 19 of 20 is the first of the two 1s
		{nil, 0.5, 0},
	} {
		if got := groupedPercentile(c.xs, c.p); !near(got, c.want) {
			t.Errorf("groupedPercentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if got := geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("geomean = %v, want 4", got)
	}
	if got := geomean([]float64{0, 2, 8}); !near(got, 4) {
		t.Errorf("geomean skips non-positive values: got %v, want 4", got)
	}
	// Reference values from Python: statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := boundDef{Name: "wall_s", Better: "lower", Bound: 0.1}
	parent := []float64{10, 10.1, 9.9, 10.2, 9.8}
	cases := []struct {
		change []float64
		want   string
	}{
		{[]float64{10.4, 10.5, 10.3, 10.6, 10.4}, "no worse"},
		{[]float64{12, 12.1, 11.9, 12.2, 11.8}, "worse"},
		{[]float64{8, 14, 10, 16, 9}, "unresolved"},
		{[]float64{5, 5.5, 7, 8, 6}, "no worse"}, // noisy, but every run beats every parent run
	}
	for _, c := range cases {
		if _, _, v := verdict(parent, c.change, lower); v != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.change, v, c.want)
		}
	}
	higher := boundDef{Name: "sustained_jobs_per_s", Better: "higher", Bound: 0.1}
	if _, _, v := verdict(parent, []float64{8, 8.1, 7.9, 8.2, 7.8}, higher); v != "worse" {
		t.Errorf("a 20%% drop in a higher-is-better metric reads %s, want worse", v)
	}
}

func hashOf(v any) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%#v", v)))
	return hex.EncodeToString(h[:])
}

func TestJobListsArePureFunctionsOfSeed(t *testing.T) {
	cold := func(seed int64) string {
		jobs, err := coldJobs(seed, 20)
		if err != nil {
			t.Fatal(err)
		}
		return coldJobHash(jobs)
	}
	if cold(1) != cold(1) {
		t.Error("repair_cold: the same seed gave different job lists")
	}
	if cold(1) == cold(2) {
		t.Error("repair_cold: different seeds gave the same job list")
	}

	sched := func(seed int64) string {
		jobs, err := serveSchedule(seed, time.Second, serveRates)
		if err != nil {
			t.Fatal(err)
		}
		var reqs []string
		for _, j := range jobs {
			b, _ := json.Marshal(j.req)
			reqs = append(reqs, fmt.Sprintf("%v|%s|%d|%s", j.due, j.client, j.resubOf, b))
		}
		return hashOf(reqs)
	}
	if sched(1) != sched(1) {
		t.Error("serve_mixed: the same seed gave different schedules")
	}
	if sched(1) == sched(2) {
		t.Error("serve_mixed: different seeds gave the same schedule")
	}

	// transpile_suite runs the paper's fixed suite with a fixed fuzz seed,
	// so its job list is the same for every seed by design.
	if suiteJobHash(suiteJobs(false)) != suiteJobHash(suiteJobs(false)) {
		t.Error("transpile_suite: job list not deterministic")
	}
}

func TestServeMixMatchesTheBlock(t *testing.T) {
	jobs, err := serveSchedule(7, 10*time.Second, [3]float64{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 120 {
		t.Fatalf("got %d jobs, want 120", len(jobs))
	}
	kinds := map[string]int{}
	for _, j := range jobs {
		switch {
		case j.resubOf >= 0:
			kinds["resubmit"]++
		case j.req.Budget.FuzzExecs == serveHeavyExecs:
			kinds["heavy"]++
		default:
			kinds[string(j.req.Kind)]++
		}
	}
	// Six whole blocks of 20; only the very first resubmission slot may
	// fall back to a check, before anything can be resubmitted.
	want := map[string]int{"check": 42, "repair": 36, "transpile": 18, "heavy": 6, "resubmit": 18}
	for k, n := range want {
		if got := kinds[k]; got != n && !(k == "check" && got == n+1) && !(k == "resubmit" && got == n-1) {
			t.Errorf("%s: %d jobs, want %d (all: %v)", k, got, n, kinds)
		}
	}
}

// TestLatencyCountsFromDueTime drives the latency and step arithmetic
// with a fake clock: fixed instants instead of a running schedule.
func TestLatencyCountsFromDueTime(t *testing.T) {
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	at := func(msec int) time.Time { return start.Add(time.Duration(msec) * time.Millisecond) }
	jobs := []serveJob{
		{step: 0, due: 0},
		{step: 0, due: 100 * time.Millisecond},
		{step: 1, due: 1000 * time.Millisecond},
		{step: 1, due: 1100 * time.Millisecond},
	}
	recs := []tracked{
		{sent: at(0), seen: at(20), ok: true},
		// The generator stalled: sent 150 ms late. Latency still counts
		// from the due time, so the stall is charged to this job.
		{sent: at(250), seen: at(280), ok: true},
		{sent: at(1000), seen: at(1600), ok: true},
		{sent: at(1100)}, // failed: never seen terminal
	}
	setLatencies(jobs, recs, start)
	for i, want := range []float64{20, 180, 600, serveFailedMS} {
		if !near(recs[i].latencyMS, want) {
			t.Errorf("job %d latency %v ms, want %v", i, recs[i].latencyMS, want)
		}
	}

	sw := steps(jobs, start, time.Second)
	if got := backlogAt(jobs, recs, start, at(1200)); got != 2 {
		t.Errorf("backlog at 1.2 s = %d, want 2 (job 2 running, job 3 never done)", got)
	}
	ss := stepStats(jobs, recs, start, sw)
	if !ss[0].sustained || !near(ss[0].rate, 2/0.28) {
		t.Errorf("step 1 = %+v, want sustained at 2 jobs over 0.28 s", ss[0])
	}
	if ss[1].sustained {
		t.Errorf("step 2 has a failed job and a growing backlog but reads sustained: %+v", ss[1])
	}
	if got := sustainedRate(ss); !near(got, 2/0.28) {
		t.Errorf("sustained rate %v, want the first step's", got)
	}
}

// TestWorkloadsPrintEveryMetric runs each workload at smoke-test size,
// untraced and traced, and checks that the result line carries every
// metric BENCHMARK.json declares, with its unit.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		declared[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		declared[true][m.Name] = m.Unit
	}
	for traced, defs := range map[bool][]metricDef{false: e2eMetrics, true: layerMetrics} {
		if len(defs) != len(declared[traced]) {
			t.Errorf("traced=%v: %d metrics in the code, %d in BENCHMARK.json", traced, len(defs), len(declared[traced]))
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloads))
	}

	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{seed: 3, window: 300 * time.Millisecond, workdir: t.TempDir(), tiny: true}
			defs := e2eMetrics
			if traced {
				cfg.rec = &recorder{}
				defs = layerMetrics
			}
			run, ok := workloads[w.Name]
			if !ok {
				t.Fatalf("workload %s is not implemented", w.Name)
			}
			o, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			var out bytes.Buffer
			if _, err := report(&out, w.Name, o, defs); err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			res, err := lastResult(out.Bytes())
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.Name, traced, err, out.String())
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			for name, unit := range declared[traced] {
				if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s printed as %+v, want unit %q", w.Name, traced, name, got, unit)
				}
			}
		}
	}
}

func TestHeldOutInputsAreNewAndDistinct(t *testing.T) {
	jobs, err := coldJobs(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		seen := map[string]bool{}
		for _, tc := range j.tests {
			seen[fmt.Sprint(tc.Args)] = true
		}
		held := heldOut(j.p.Unit, j.p.Kernel, j.tests, rand.New(rand.NewSource(j.rng)), heldOutInputs)
		if len(held) == 0 || len(held) > heldOutInputs {
			t.Errorf("progen seed %d: %d held-out inputs, want 1..%d", j.p.Seed, len(held), heldOutInputs)
		}
		for _, tc := range held {
			k := fmt.Sprint(tc.Args)
			if seen[k] {
				t.Errorf("progen seed %d: held-out input %s repeats a pipeline test or another held-out input", j.p.Seed, tc)
			}
			seen[k] = true
		}
	}
	// One test has no recombinations: the gate falls back to it.
	j := jobs[0]
	if got := heldOut(j.p.Unit, j.p.Kernel, j.tests[:1], rand.New(rand.NewSource(1)), heldOutInputs); len(got) != 1 {
		t.Errorf("one pipeline test gave %d held-out inputs, want the test itself", len(got))
	}
}

func TestKnownMissNeedsADeepRecursionAndItsOverflow(t *testing.T) {
	overflow := coldRun{rr: repair.Result{Compatible: true,
		Report: difftest.Report{FirstDiff: `test 0: FPGA faulted: runtime error: index 32 out of bounds for "rec_add_stack" (size 32)`}}}
	job := func(depth string) coldJob {
		return coldJob{p: progen.Program{Planted: []progen.Violation{{Kind: progen.KindRecursion, Detail: depth}}}}
	}
	if !knownMiss(job("depth=60"), overflow) || !knownMiss(job("depth=32"), overflow) {
		t.Error("a recursion of 32 or more frames overflowing the 32-entry stack is the recorded miss")
	}
	if knownMiss(job("depth=12"), overflow) {
		t.Error("a shallow recursion cannot overflow the initial stack: that output is a failure")
	}
	other := overflow
	other.rr.Report.FirstDiff = "test 0: out[3]: 7 != 9"
	if knownMiss(job("depth=60"), other) {
		t.Error("a wrong value is a failure, not the recorded miss")
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	var out, errs bytes.Buffer
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "repair_cold", "-trace", "2"},
		{"-compare", "only-one.json"},
	} {
		if code := run(args, &out, &errs); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
	if out.Len() != 0 {
		t.Errorf("usage errors printed a result: %q", out.String())
	}
}
