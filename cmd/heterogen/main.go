// Command heterogen transpiles a C program to HLS-C: it generates tests,
// profiles bitwidths, and runs the dependence-guided repair search,
// writing the repaired HLS-C source and a report. Two subcommands run
// one stage of that pipeline on its own: fuzz, the test generator, and
// check, the synthesizability checker.
//
// Usage:
//
//	heterogen -kernel <top-function> [-host <fn>] [-out out.c] [-quick] [-workers n] [-trace t.jsonl] [-metrics] [-cache-dir d] [-no-cache] [-backend b] [-device d] [-target b:d ...] input.c
//	heterogen fuzz -kernel <fn> [-host <fn>] [-execs N] [-seed n] [-trace t.jsonl] [-metrics] [-cache-dir d] [-no-cache] input.c
//	heterogen check -kernel <fn> [-cache-dir d] [-no-cache] [-backend b] [-device d] [-target b:d ...] input.c
//
// -backend/-device (or one fully-spelled -target backend:device) pick
// the HLS toolchain dialect and device profile the repair targets;
// repeating -target with two or more specs turns on multi-target mode,
// where the search returns a latency/resource Pareto set with a
// per-device verdict table (see internal/hls's backend registry for
// the shipped profiles). No target flags keep the classic
// single-default-target behavior. check prints its diagnostics once
// per target, grouped by the six error classes of the paper's §5.1,
// and exits 1 if any target reports one. fuzz accepts the target flags
// and stamps them on the trace; test generation is target-independent.
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
// fuzz reports the campaign: tests retained, branch coverage, a sample
// of the generated inputs, and whether it plateaued (no new coverage
// for a fifth of -execs) before spending its budget.
//
// Toolchain verdicts (synthesizability checks, resource estimates,
// differential tests, fuzz campaigns) are memoized in an in-process
// evaluation cache by default; -cache-dir persists it across runs so a
// repeated transpilation, campaign or check is near-instant, and
// -no-cache disables it. The output and trace are byte-identical
// either way.
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
	mode, args := "", os.Args[1:]
	if len(args) > 0 && (args[0] == "fuzz" || args[0] == "check") {
		mode, args = args[0], args[1:]
	}
	c := newCommand(mode)
	switch mode {
	case "fuzz":
		fuzz(c, args)
	case "check":
		check(c, args)
	default:
		transpile(c, args)
	}
}

// The usage line of each mode; a transpile without -kernel prints all
// three.
const (
	transpileUsage = "heterogen -kernel <fn> [-host <fn>] [-out file] [-quick] [-workers n] [-trace t.jsonl] [-metrics] [-cache-dir d] [-no-cache] [-backend b] [-device d] [-target b:d ...] input.c"
	fuzzUsage      = "heterogen fuzz -kernel <fn> [-host <fn>] [-execs N] [-seed n] [-trace t.jsonl] [-metrics] [-cache-dir d] [-no-cache] input.c"
	checkUsage     = "heterogen check -kernel <fn> [-cache-dir d] [-no-cache] [-backend b] [-device d] [-target b:d ...] input.c"
)

// command holds the flags every mode shares.
type command struct {
	fs     *flag.FlagSet
	kernel string
	host   string
	run    cliflag.Run
	guard  cliflag.Guard
	target cliflag.Target
}

// newCommand registers the shared flags on the mode's flag set: -kernel
// and the guard and target families for every mode; -host and the run
// family for the modes that fuzz; only the run family's cache flags for
// check, which emits no events.
func newCommand(mode string) *command {
	name := os.Args[0]
	if mode != "" {
		name += " " + mode
	}
	c := &command{fs: flag.NewFlagSet(name, flag.ExitOnError)}
	c.fs.StringVar(&c.kernel, "kernel", "", "top/kernel function (required)")
	if mode == "check" {
		c.run.RegisterCache(c.fs)
	} else {
		c.fs.StringVar(&c.host, "host", "", "optional host entry point for fuzzer seed capture")
		c.run.Register(c.fs)
	}
	c.guard.Register(c.fs)
	c.target.Register(c.fs)
	return c
}

// open parses args, reads the one input file, resolves the targets and
// opens the session. A missing -kernel or input prints usage and exits
// 2; any other error exits 1.
func (c *command) open(args []string, usage string) (string, []heterogen.Target, *cliflag.Session) {
	_ = c.fs.Parse(args) // ExitOnError: a bad flag has already exited 2
	if c.kernel == "" || c.fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: "+usage)
		os.Exit(2)
	}
	src, err := os.ReadFile(c.fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	targets, err := c.target.Targets()
	if err != nil {
		fatal(err)
	}
	sess, err := cliflag.Open("heterogen", &c.run, &c.guard, targets)
	if err != nil {
		fatal(err)
	}
	return string(src), targets, sess
}

func transpile(c *command, args []string) {
	out := c.fs.String("out", "", "output file for the HLS-C source (default stdout)")
	report := c.fs.String("report", "", "write a markdown transpilation report to this file")
	quick := c.fs.Bool("quick", false, "small fuzzing budget (fast, lower coverage)")
	workers := c.fs.Int("workers", runtime.GOMAXPROCS(0),
		"concurrent candidate evaluations in the repair search (results are identical for any value)")
	verbose := c.fs.Bool("v", false, "print the edit log and diagnostics")
	src, targets, sess := c.open(args, transpileUsage+"\n       "+fuzzUsage+"\n       "+checkUsage)

	opts := heterogen.Options{Kernel: c.kernel, HostMain: c.host, Workers: *workers, Targets: targets,
		Obs: sess.Obs, Guard: sess.Guard, Cache: sess.Cache}
	if *quick {
		opts.Fuzz.Seed = 1
		opts.Fuzz.MaxExecs = 250
		opts.Fuzz.Plateau = 100
		opts.Fuzz.TypedMutation = true
	}
	res, err := heterogen.Transpile(src, opts)
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
		if err := os.WriteFile(*report, []byte(res.Markdown(c.kernel)), 0o644); err != nil {
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

func fuzz(c *command, args []string) {
	execs := c.fs.Int("execs", 2000, "maximum kernel executions")
	seed := c.fs.Int64("seed", 1, "mutation RNG seed")
	src, _, sess := c.open(args, fuzzUsage)

	opts := heterogen.FuzzOptions{
		Seed:          *seed,
		MaxExecs:      *execs,
		Plateau:       *execs / 5,
		TypedMutation: true,
	}
	camp, err := heterogen.GenerateTests(src, heterogen.Options{
		Kernel: c.kernel, HostMain: c.host, Fuzz: opts,
		Obs: sess.Obs, Guard: sess.Guard, Cache: sess.Cache,
	})
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
	for i := 0; i < len(camp.Tests) && i < 8; i++ {
		fmt.Printf("test[%d] = %s\n", i, camp.Tests[i])
	}
	sess.Close()
}

func check(c *command, args []string) {
	src, targets, sess := c.open(args, checkUsage)

	reps, err := heterogen.Check(src, heterogen.Options{Kernel: c.kernel, Targets: targets, Guard: sess.Guard, Cache: sess.Cache})
	if err != nil {
		sess.Fatal(err)
	}
	sess.Close()
	code := 0
	for _, tr := range reps {
		// Only a multi-target run names the target of each report.
		prefix := ""
		if len(reps) > 1 {
			prefix = "[" + tr.Target + "] "
		}
		if tr.Report.OK {
			fmt.Println(prefix + "Synthesizability check passed.")
			continue
		}
		code = 1
		if prefix != "" {
			fmt.Printf("%s%d diagnostic(s)\n", prefix, len(tr.Report.Diags))
		}
		printDiags(tr.Report)
	}
	os.Exit(code)
}

// printDiags renders one report's diagnostics grouped by error class.
func printDiags(rep heterogen.Report) {
	by := rep.ByClass()
	for _, class := range []heterogen.ErrorClass{
		heterogen.ClassDynamicData, heterogen.ClassUnsupportedType,
		heterogen.ClassDataflow, heterogen.ClassLoopParallel,
		heterogen.ClassStructUnion, heterogen.ClassTopFunction,
	} {
		diags := by[class]
		if len(diags) == 0 {
			continue
		}
		fmt.Printf("-- %s (%d)\n", class, len(diags))
		for _, d := range diags {
			fmt.Println("  " + d.Error())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "heterogen:", err)
	os.Exit(1)
}
