// Command hlscheck runs the simulated HLS synthesizability checker over a
// C/HLS-C source file and prints Vivado-style diagnostics, grouped by the
// six error classes of the paper's §5.1.
//
// Usage:
//
//	hlscheck -top <function> [-cache-dir d] [-no-cache] [-backend b] [-device d] [-target b:d ...] file.c
//
// -backend/-device/-target select which HLS toolchain dialect(s) the
// diagnostics are reported in; with two or more targets the report is
// printed once per target. No target flags keep the classic
// vivado_hls:xcvu9p behavior, byte-identical to earlier releases.
//
// With -cache-dir the checker verdict is memoized on the unit's content
// fingerprint, so re-checking an unchanged file (a CI gate's common
// case) is a cache hit; -no-cache disables the cache. Diagnostics are
// identical either way.
//
// The check runs inside a failure-containment guard; -stage-deadline,
// -quarantine-dir, and -chaos/-chaos-seed configure its budget and the
// deterministic fault injector (see internal/guard).
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/hetero/heterogen"
	"github.com/hetero/heterogen/internal/cliflag"
)

func main() {
	top := flag.String("top", "", "top function of the design (required)")
	var run cliflag.Run
	run.RegisterCache(flag.CommandLine)
	var gf cliflag.Guard
	gf.Register(flag.CommandLine)
	var tf cliflag.Target
	tf.Register(flag.CommandLine)
	flag.Parse()
	if *top == "" || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hlscheck -top <fn> [-cache-dir d] [-no-cache] [-backend b] [-device d] [-target b:d ...] file.c")
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
	sess, err := cliflag.Open("hlscheck", &run, &gf, targets)
	if err != nil {
		fatal(err)
	}
	opts := heterogen.Options{Kernel: *top, Targets: targets, Guard: sess.Guard, Cache: sess.Cache}
	if len(targets) > 1 {
		reps, err := heterogen.CheckTargets(string(src), opts)
		if err != nil {
			sess.Fatal(err)
		}
		sess.Close()
		code := 0
		for _, tr := range reps {
			if tr.Report.OK {
				fmt.Printf("[%s] Synthesizability check passed.\n", tr.Target)
				continue
			}
			code = 1
			fmt.Printf("[%s] %d diagnostic(s)\n", tr.Target, len(tr.Report.Diags))
			printDiags(tr.Report)
		}
		os.Exit(code)
	}
	rep, err := heterogen.Check(string(src), opts)
	if err != nil {
		sess.Fatal(err)
	}
	sess.Close()
	if rep.OK {
		fmt.Println("Synthesizability check passed.")
		return
	}
	printDiags(rep)
	os.Exit(1)
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
	fmt.Fprintln(os.Stderr, "hlscheck:", err)
	os.Exit(1)
}
