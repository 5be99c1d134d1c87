package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's vocabulary; BENCHMARK.json at the repository root
// declares the same names and units (bench tests hold the two together).
type metricDef struct {
	name, unit string
}

// e2eMetrics are printed by every untraced run, for every workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"job_geomean_ms", "ms"},
	{"job_p50_ms", "ms"},
	{"job_p95_ms", "ms"},
	{"sustained_jobs_per_s", "1/s"},
	{"ok_share", "share"},
	{"allocs_per_job", "count"},
	{"peak_rss_mb", "MB"},
}

// layerMetrics are printed by every traced run. A metric a workload does
// not exercise (serve.* on a batch workload, fuzz.* where nothing fuzzes)
// reads 0.
var layerMetrics = []metricDef{
	{"core.fuzz_ms", "ms"},
	{"core.profile_ms", "ms"},
	{"core.repair_ms", "ms"},
	{"core.fuzz_share", "share"},
	{"fuzz.execs", "count"},
	{"fuzz.exec_us", "us"},
	{"fuzz.self_share", "share"},
	{"fuzz.retained_per_exec", "share"},
	{"fuzz.coverage", "share"},
	{"interp.tree_exec_us", "us"},
	{"interp.vm_exec_us", "us"},
	{"interp.vm_speedup", "x"},
	{"interp.vm_compile_us", "us"},
	{"cparser.parse_us", "us"},
	{"cparser.mb_per_s", "MB/s"},
	{"cast.print_us", "us"},
	{"cast.clone_us", "us"},
	{"cast.clone_scoped_us", "us"},
	{"cast.fingerprint_us", "us"},
	{"cast.fingerprint_full_us", "us"},
	{"stylecheck.run_us", "us"},
	{"stylecheck.reject_share", "share"},
	{"check.run_us", "us"},
	{"sim.estimate_us", "us"},
	{"difftest.runner_us", "us"},
	{"difftest.run_us", "us"},
	{"repair.candidates", "count"},
	{"repair.hls_invocations", "count"},
	{"repair.accept_share", "share"},
	{"repair.cand_per_s", "1/s"},
	{"evalcache.check_hit_share", "share"},
	{"evalcache.difftest_hit_share", "share"},
	{"evalcache.fuzz_hit_share", "share"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_wait_p95_ms", "ms"},
	{"serve.run_ms.check", "ms"},
	{"serve.run_ms.repair", "ms"},
	{"serve.run_ms.transpile", "ms"},
	{"serve.rejected", "count"},
	{"serve.backlog_max", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.poll_ms", "ms"},
	{"trace.overhead_share", "share"},
}

// outcome is what one workload run measured.
type outcome struct {
	// attempted counts job executions; failed counts those that errored,
	// were refused, or produced an output the correctness gate rejects;
	// known counts outputs that match a recorded defect (see knownMiss),
	// which are listed but not failed.
	attempted, failed, known int
	// metrics holds the e2e values (untraced run) or the per-layer values
	// (traced run), by name.
	metrics map[string]float64
	// notes are human-readable findings printed before the result line
	// (gate failures, validity warnings).
	notes []string
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail records one failed job with its reason.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.notes) < 50 {
		o.note("FAIL "+format, args...)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the human-readable table and then the result line. Every
// metric in defs must be present in o.metrics and finite.
func report(w io.Writer, workload string, o outcome, defs []metricDef) (result, error) {
	res := result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintf(w, "# %s: attempted=%d failed=%d known_misses=%d\n", workload, o.attempted, o.failed, o.known)
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			return res, fmt.Errorf("%s: metric %s was not measured", workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("%s: metric %s is not finite (%v)", workload, d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-30s %14.6g %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return res, nil
}
