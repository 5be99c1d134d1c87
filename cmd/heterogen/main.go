// Command heterogen transpiles a C program to HLS-C: it generates tests,
// profiles bitwidths, and runs the dependence-guided repair search,
// writing the repaired HLS-C source and a report.
//
// Usage:
//
//	heterogen -kernel <top-function> [-host <fn>] [-out out.c] [-quick] [-workers n] [-trace t.jsonl] [-metrics] [-cache-dir d] [-no-cache] [-backend b] [-device d] [-target b:d ...] input.c
//
// -backend/-device (or one fully-spelled -target backend:device) pick
// the HLS toolchain dialect and device profile the repair targets;
// repeating -target with two or more specs turns on multi-target mode,
// where the search returns a latency/resource Pareto set with a
// per-device verdict table (see internal/hls's backend registry for
// the shipped profiles). No target flags keep the classic
// single-default-target behavior.
//
// -workers bounds how many repair candidates are evaluated concurrently;
// the transpilation result is bit-identical for any value (see
// repair.Options.Workers), so the flag only trades machine load for
// wall-clock.
//
// -trace writes a JSONL structured-event trace of the whole run — one
// event per fuzz execution and repair-candidate trial, byte-identical
// for any -workers value. Feed it to hgstat for Figure 2-style repair
// trajectories, coverage curves, and the virtual-budget breakdown.
// -metrics prints aggregated counters and duration histograms to stderr.
//
// Toolchain verdicts (synthesizability checks, resource estimates,
// differential tests, fuzz campaigns) are memoized in an in-process
// evaluation cache by default; -cache-dir persists it across runs so a
// repeated transpilation is near-instant, and -no-cache disables it.
// The result and trace are byte-identical either way.
//
// Stage calls run inside a failure-containment guard. -stage-deadline
// bounds each call's wall time, -interp-steps bounds interpreter
// executions, -quarantine-dir collects minimized reproducers for
// contained failures, and -chaos/-chaos-seed drive the deterministic
// fault injector for soak testing (see internal/guard, internal/chaos).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"github.com/hetero/heterogen"
	"github.com/hetero/heterogen/internal/cliflag"
)

func main() {
	kernel := flag.String("kernel", "", "top/kernel function to transpile (required)")
	host := flag.String("host", "", "optional host entry point for seed capture")
	out := flag.String("out", "", "output file for the HLS-C source (default stdout)")
	report := flag.String("report", "", "write a markdown transpilation report to this file")
	quick := flag.Bool("quick", false, "small fuzzing budget (fast, lower coverage)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"concurrent candidate evaluations in the repair search (results are identical for any value)")
	verbose := flag.Bool("v", false, "print the edit log and diagnostics")
	var run cliflag.Run
	run.Register(flag.CommandLine)
	var gf cliflag.Guard
	gf.Register(flag.CommandLine)
	var tf cliflag.Target
	tf.Register(flag.CommandLine)
	flag.Parse()

	if *kernel == "" || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: heterogen -kernel <fn> [-host <fn>] [-out file] [-quick] [-workers n] [-trace t.jsonl] [-metrics] [-cache-dir d] [-no-cache] [-backend b] [-device d] [-target b:d ...] input.c")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	targets, err := tf.Targets()
	if err != nil {
		fatal(err)
	}

	opts := heterogen.Options{Kernel: *kernel, HostMain: *host, Workers: *workers, Targets: targets}
	if *quick {
		opts.Fuzz.Seed = 1
		opts.Fuzz.MaxExecs = 250
		opts.Fuzz.Plateau = 100
		opts.Fuzz.TypedMutation = true
	}
	sess, err := cliflag.Open("heterogen", &run, &gf, targets)
	if err != nil {
		fatal(err)
	}
	opts.Obs, opts.Guard, opts.Cache = sess.Obs, sess.Guard, sess.Cache

	res, err := heterogen.Transpile(string(src), opts)
	if err != nil {
		sess.Fatal(err)
	}
	if res.Campaign.Plateaued {
		fmt.Fprintf(os.Stderr, "heterogen: warning: fuzz campaign plateaued at %d executions before its budget; coverage may be low (%.0f%%)\n",
			res.Campaign.Execs, 100*res.Campaign.Coverage)
	}
	sess.Close()

	fmt.Fprintf(os.Stderr, "heterogen: %s\n", res.Summary())
	for _, v := range res.PerTarget {
		verdict := "ok"
		switch {
		case !v.Compatible:
			verdict = fmt.Sprintf("incompatible (%d diagnostics)", v.Errors)
		case !v.BehaviorOK:
			verdict = "behavior divergence"
		}
		fmt.Fprintf(os.Stderr, "heterogen: target %s: %s, %.4f ms, %s\n",
			v.Target, verdict, v.LatencyMS, v.Utilization)
	}
	if len(res.PerTarget) > 1 {
		fmt.Fprintf(os.Stderr, "heterogen: pareto set: %d non-dominated version(s)\n", len(res.Pareto))
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "tests: %s\n", res.Campaign.Summary())
		for _, e := range res.Repair.Stats.EditLog {
			fmt.Fprintf(os.Stderr, "edit: %s\n", e)
		}
		for _, d := range res.Repair.Remaining {
			fmt.Fprintf(os.Stderr, "remaining: %s\n", d.Error())
		}
	}
	if !res.Compatible || !res.BehaviorOK {
		fmt.Fprintln(os.Stderr, "heterogen: repair incomplete; emitting best-effort version")
	}
	if *report != "" {
		if err := os.WriteFile(*report, []byte(res.Markdown(*kernel)), 0o644); err != nil {
			sess.Fatal(err)
		}
	}

	if *out == "" {
		fmt.Print(res.Source)
		return
	}
	if err := os.WriteFile(*out, []byte(res.Source), 0o644); err != nil {
		sess.Fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "heterogen:", err)
	os.Exit(1)
}
