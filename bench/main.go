// Command hgbench is the repository benchmark. It runs one workload per
// process, checks every output with its own correctness gate, and prints
// each metric with its unit, ending with one JSON result line:
//
//	bash bench/run.sh --workload transpile_suite --seed 1 --seconds 20 --trace 0
//
// Workloads: transpile_suite (the paper's subjects end to end),
// repair_cold (a stream of generated kernels through the repair stage),
// serve_mixed (an open-loop job mix against the HTTP daemon). -trace 1
// re-runs the workload with a benchmark-owned observer, replays each
// layer's public calls on a sample of its jobs, prints the per-layer
// metrics and writes the spans to -spans.
//
// Other modes:
//
//	hgbench -record out.json -base-seed 1 -runs 10   # runs every workload, one process each
//	hgbench -compare a.json b.json                  # per-metric verdicts against BENCHMARK.json bounds
//	hgbench -workload serve_mixed -calibrate        # saturated capacity of the serve mix
//
// See bench/README.md for the workloads, the metrics and how to read them.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// procStart approximates the process start: span times count from here.
var procStart = time.Now()

// config is what a workload run needs to know.
type config struct {
	seed    int64
	window  time.Duration // how long the run measures
	rec     *recorder     // non-nil for the traced run
	probe   *hostProbe    // host-speed probe; nil reads as the reference host
	workdir string        // where temporary directories and span files go
	tiny    bool          // smoke-test sizes (tests only)
}

var workloads = map[string]func(config) (outcome, error){
	"transpile_suite": runTranspileSuite,
	"repair_cold":     runRepairCold,
	"serve_mixed":     runServeMixed,
}

func main() {
	if os.Getenv(probeChildEnv) != "" {
		runProbeChild()
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable arguments and streams. Exit codes: 0 for a
// completed run (whatever the gate found — correctness is reported in the
// result line), 1 when the harness itself broke, 2 for usage errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hgbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: transpile_suite | repair_cold | serve_mixed")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", 20, "how long the run measures")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	spans := fs.String("spans", "", "where the traced run writes its spans (default <workdir>/spans-<workload>-<seed>.json)")
	workdir := fs.String("workdir", ".bench_build", "directory for temporary state and span files")
	compare := fs.Bool("compare", false, "compare two record files given as arguments")
	bounds := fs.String("bounds", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	recordTo := fs.String("record", "", "run every workload -runs times and write the results to this file")
	runs := fs.Int("runs", 10, "runs per workload for -record")
	baseSeed := fs.Int64("base-seed", 1, "-record seeds are base-seed*100 + i")
	calibrate := fs.Bool("calibrate", false, "measure serve_mixed's saturated capacity instead of running it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "hgbench:", err)
		return 1
	}

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "hgbench: -compare needs two record files")
			return 2
		}
		spec, err := readSpec(*bounds)
		if err != nil {
			return fail(err)
		}
		if err := compareRecords(stdout, spec, fs.Arg(0), fs.Arg(1)); err != nil {
			return fail(err)
		}
		return 0
	}
	if *recordTo != "" {
		if err := record(*recordTo, *baseSeed, *runs, *seconds, *workdir, stderr); err != nil {
			return fail(err)
		}
		return 0
	}

	wl, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "hgbench: need -workload transpile_suite|repair_cold|serve_mixed, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return fail(err)
	}
	cfg := config{seed: *seed, window: time.Duration(*seconds) * time.Second, workdir: *workdir}
	if *calibrate {
		if err := calibrateServe(cfg, stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	defs := e2eMetrics
	if *trace == 1 {
		cfg.rec = &recorder{}
		defs = layerMetrics
	}
	probe, err := startProbe()
	if err != nil {
		return fail(err)
	}
	cfg.probe = probe
	o, err := wl(cfg)
	if _, perr := probe.stop(); err == nil { // ends the probe process on every path
		err = perr
	}
	if err != nil {
		return fail(err)
	}
	if cfg.rec != nil {
		path := *spans
		if path == "" {
			path = filepath.Join(*workdir, fmt.Sprintf("spans-%s-%d.json", *workload, *seed))
		}
		if err := cfg.rec.write(path); err != nil {
			return fail(err)
		}
		o.note("spans written to %s", path)
	}
	if _, err := report(stdout, *workload, o, defs); err != nil {
		return fail(err)
	}
	return 0
}

// record runs each workload runs times, every run in its own process with
// seed base*100+i, interleaving workloads so drift in the host's load
// spreads evenly, and rewrites the record file after every run.
func record(path string, base int64, runs, seconds int, workdir string, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rf := recordFile{
		Note: "hgbench -record: one result per run; -compare reads these files",
		Host: fmt.Sprintf("%s/%s, %d CPUs, GOMAXPROCS %d, %s",
			runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()),
		BaseSeed: base,
		Seconds:  seconds,
	}
	names := []string{"transpile_suite", "repair_cold", "serve_mixed"}
	for i := 0; i < runs; i++ {
		for _, wl := range names {
			seed := base*100 + int64(i)
			cmd := exec.Command(exe, "-workload", wl, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", "0", "-workdir", workdir)
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, seed, err)
			}
			res, err := lastResult(out.Bytes())
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, seed, err)
			}
			fmt.Fprintf(stderr, "hgbench: %s seed %d: attempted=%d failed=%d\n", wl, seed, res.Attempted, res.Failed)
			var notes []string
			for _, line := range strings.Split(out.String(), "\n") {
				if n, ok := strings.CutPrefix(line, "# "); ok {
					notes = append(notes, n)
				}
			}
			rf.Runs = append(rf.Runs, recordRun{Workload: wl, Seed: seed, Notes: notes, Result: res})
			data, err := json.MarshalIndent(rf, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// lastResult parses the JSON result line that ends a run's output.
func lastResult(out []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}
