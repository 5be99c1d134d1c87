// Command hgconform runs the seeded program-generation conformance
// harness: it generates a batch of random C kernels with known planted
// HLS violations (internal/progen) and asserts, per program, that the
// synthesizability checker flags every planted violation class, the
// repair search converges, the repaired HLS-C differentially matches
// the CPU interpreter, and cache/trace parity invariants hold.
//
// Usage:
//
//	hgconform [-seed s] [-n count] [-check-only] [-parity-every k]
//	          [-fuzz-execs n] [-max-iterations n] [-out dir]
//	          [-trace-dir d] [-v]
//
// The run is fully deterministic: the same flags produce a
// byte-identical summary line. Any failed assertion is delta-debugged
// to a minimal reproducer and, with -out, written as
// `seed<N>_<stage>.c` for committing under testdata/conform/. Exit
// status is 0 on a clean batch, 1 on conformance failures, 2 on usage
// errors.
//
// Pipeline stages run inside a failure-containment guard;
// -stage-deadline, -interp-steps, -quarantine-dir, and
// -chaos/-chaos-seed configure the budgets and the deterministic fault
// injector (see internal/guard).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"github.com/hetero/heterogen"
	"github.com/hetero/heterogen/internal/cliflag"
)

func main() {
	seed := flag.Int64("seed", 1, "first generator seed")
	n := flag.Int("n", 100, "number of consecutive seeds to check")
	checkOnly := flag.Bool("check-only", false, "stop after the checker-oracle stage (no repair, difftest, or parity)")
	maxViolations := flag.Int("max-violations", 0, "max planted violation kinds per program (0 = generator default)")
	parityEvery := flag.Int("parity-every", 10, "run the cache/trace parity stage on every k-th seed (0 = default, <0 disables)")
	fuzzExecs := flag.Int("fuzz-execs", 0, "fuzzing budget per program (0 = harness default)")
	maxIter := flag.Int("max-iterations", 0, "repair iteration budget per program (0 = harness default)")
	out := flag.String("out", "", "write minimized reproducers for failures into this directory")
	traceDir := flag.String("trace-dir", "", "retain each seed's pipeline trace as seed-<n>.jsonl in this directory (hgstat ingests it)")
	verbose := flag.Bool("v", false, "print each failure's minimized source")
	var gf cliflag.Guard
	gf.Register(flag.CommandLine)
	var tf cliflag.Target
	tf.Register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: hgconform [-seed s] [-n count] [-check-only] [-parity-every k] [-fuzz-execs n] [-max-iterations n] [-out dir] [-v]")
		os.Exit(2)
	}
	targets, err := tf.Targets()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hgconform:", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	rep, err := heterogen.ConformContext(ctx, heterogen.ConformOptions{
		Seed:          *seed,
		Count:         *n,
		CheckOnly:     *checkOnly,
		MaxViolations: *maxViolations,
		ParityEvery:   *parityEvery,
		FuzzExecs:     *fuzzExecs,
		MaxIterations: *maxIter,
		OutDir:        *out,
		TraceDir:      *traceDir,
		Targets:       targets,
		Guard: gf.Build(nil, func(msg string) {
			fmt.Fprintln(os.Stderr, "hgconform:", msg)
		}),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hgconform:", err)
	}
	fmt.Println(rep.Summary())
	for _, f := range rep.Failures {
		fmt.Printf("FAIL seed=%d stage=%s", f.Seed, f.Stage)
		if f.Kind != "" {
			fmt.Printf(" kind=%s subject=%s", f.Kind, f.Subject)
		}
		fmt.Printf(" nodes=%d/%d: %s\n", f.ReducedNodes, f.OriginalNodes, f.Detail)
		if f.Path != "" {
			fmt.Printf("  reproducer: %s\n", f.Path)
		}
		if *verbose && f.Source != "" {
			fmt.Println("  minimized source:")
			fmt.Println(indent(f.Source))
		}
	}
	if err != nil || !rep.OK() {
		os.Exit(1)
	}
}

func indent(s string) string {
	out := "    "
	for _, r := range s {
		out += string(r)
		if r == '\n' {
			out += "    "
		}
	}
	return out
}
