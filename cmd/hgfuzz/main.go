// Command hgfuzz runs HeteroGen's coverage-guided test generator against
// a kernel function and reports the campaign: tests retained, branch
// coverage, and a sample of the generated inputs.
//
// Usage:
//
//	hgfuzz -kernel <fn> [-host <fn>] [-execs N] [-trace t.jsonl] [-metrics] [-cache-dir d] [-no-cache] file.c
//
// -trace writes one JSONL event per execution (read it with hgstat for
// the coverage-over-iterations curve); -metrics prints aggregated
// counters to stderr. A campaign that plateaus — no new coverage for the
// plateau window before the execution budget is spent — is flagged in
// the output.
//
// Whole campaigns are memoized in the evaluation cache: with -cache-dir
// a repeated run over the same kernel, seed, and budget replays the
// recorded campaign (identical tests, coverage, and trace) instead of
// re-executing; -no-cache disables the cache.
//
// Executions run inside a failure-containment guard: -interp-steps
// bounds each execution's step count, -stage-deadline its wall time,
// -quarantine-dir collects minimized reproducers for contained
// failures, and -chaos/-chaos-seed drive the deterministic fault
// injector (see internal/guard, internal/chaos).
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/hetero/heterogen"
	"github.com/hetero/heterogen/internal/cliflag"
)

func main() {
	kernel := flag.String("kernel", "", "kernel function (required)")
	host := flag.String("host", "", "host entry point for seed capture")
	execs := flag.Int("execs", 2000, "maximum kernel executions")
	seed := flag.Int64("seed", 1, "mutation RNG seed")
	var run cliflag.Run
	run.Register(flag.CommandLine)
	var gf cliflag.Guard
	gf.Register(flag.CommandLine)
	var tf cliflag.Target
	tf.Register(flag.CommandLine)
	flag.Parse()
	if *kernel == "" || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hgfuzz -kernel <fn> [-execs N] [-trace t.jsonl] [-metrics] [-cache-dir d] [-no-cache] file.c")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	// Test generation is target-independent; the flags are accepted for
	// a uniform CLI surface, validated, and stamped on the trace.
	targets, err := tf.Targets()
	if err != nil {
		fatal(err)
	}
	sess, err := cliflag.Open("hgfuzz", &run, &gf, targets)
	if err != nil {
		fatal(err)
	}
	opts := heterogen.FuzzOptions{
		Seed:          *seed,
		MaxExecs:      *execs,
		Plateau:       *execs / 5,
		TypedMutation: true,
		HostMain:      *host,
		Obs:           sess.Obs,
		Guard:         sess.Guard,
		Cache:         sess.Cache,
	}
	camp, err := heterogen.GenerateTests(string(src), *kernel, opts)
	if err != nil {
		sess.Fatal(err)
	}
	fmt.Printf("campaign: %s\n", camp.Summary())
	fmt.Printf("executions: %d, retained corpus: %d, outcomes: %d/%d\n",
		camp.Execs, len(camp.Tests), camp.CoveredOutcomes, camp.TotalOutcomes)
	if camp.Plateaued {
		fmt.Printf("warning: campaign plateaued — no new coverage for %d consecutive executions, stopped at %d/%d execs\n",
			opts.Plateau, camp.Execs, opts.MaxExecs)
	}
	if camp.SeededFromHost {
		fmt.Println("seeded from host-program kernel-entry capture")
	}
	max := len(camp.Tests)
	if max > 8 {
		max = 8
	}
	for i := 0; i < max; i++ {
		fmt.Printf("test[%d] = %s\n", i, camp.Tests[i])
	}
	sess.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hgfuzz:", err)
	os.Exit(1)
}
