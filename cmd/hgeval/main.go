// Command hgeval regenerates the paper's evaluation: Table 3 (conversion
// effectiveness), Table 4 (test generation), Table 5 (manual /
// HeteroRefactor comparison), Figure 9 (ablations) followed by the
// reproduction's extra ablations (typed mutation, seed capture and
// bitwidth profiling, at fixed budgets whatever -quick or -subject), and
// Figure 3 (the forum study), plus the §6 headline summary.
//
// Usage:
//
//	hgeval [-quick] [-workers n] [-subject P3] [-table3] [-table4] [-table5] [-fig9] [-fig3] [-summary] [-trace t.jsonl] [-metrics] [-cache-dir d] [-no-cache]
//
// With no selection flags, everything runs.
//
// Toolchain verdicts are memoized in an evaluation cache shared across
// subjects; -cache-dir persists it so a repeated sweep over P1-P10 is
// near-instant, and -no-cache disables it. All reported numbers are
// bit-identical either way.
//
// -trace writes a JSONL structured-event trace of every subject's
// fuzzing campaign and repair search, each event tagged with its subject
// id (read it with hgstat). Single-subject traces (-subject) are
// byte-deterministic; full runs interleave subjects in scheduler order.
// -metrics prints aggregated counters and histograms to stderr.
//
// Stage calls run inside a failure-containment guard; -stage-deadline,
// -interp-steps, -quarantine-dir, and -chaos/-chaos-seed configure the
// budgets and the deterministic fault injector (see internal/guard).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"github.com/hetero/heterogen/internal/cliflag"
	"github.com/hetero/heterogen/internal/eval"
	"github.com/hetero/heterogen/internal/repair"
	"github.com/hetero/heterogen/internal/subjects"
)

func main() {
	quick := flag.Bool("quick", false, "CI-sized budgets")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"concurrent candidate evaluations per repair search (all numbers are identical for any value)")
	subject := flag.String("subject", "", "run a single subject (e.g. P3)")
	t3 := flag.Bool("table3", false, "Table 3: conversion effectiveness")
	t4 := flag.Bool("table4", false, "Table 4: test generation")
	t5 := flag.Bool("table5", false, "Table 5: manual/HR comparison")
	f9 := flag.Bool("fig9", false, "Figure 9: ablation study")
	f3 := flag.Bool("fig3", false, "Figure 3: forum study")
	summary := flag.Bool("summary", false, "§6 headline summary")
	deps := flag.Bool("deps", false, "print the Table 2 template catalog with its Figure 7c dependences")
	var run cliflag.Run
	run.Register(flag.CommandLine)
	var gf cliflag.Guard
	gf.Register(flag.CommandLine)
	var tf cliflag.Target
	tf.Register(flag.CommandLine)
	flag.Parse()

	if *deps {
		fmt.Print(repair.DescribeRegistry())
		return
	}

	targets, err := tf.Targets()
	if err != nil {
		fatal(err)
	}

	cfg := eval.DefaultConfig()
	if *quick {
		cfg = eval.QuickConfig()
	}
	cfg.Workers = *workers
	cfg.Targets = targets

	sess, err := cliflag.Open("hgeval", &run, &gf, targets)
	if err != nil {
		fatal(err)
	}
	defer sess.Close()
	cfg.Obs, cfg.Guard, cfg.Cache = sess.Obs, sess.Guard, sess.Cache

	all := !*t3 && !*t4 && !*t5 && !*f9 && !*f3 && !*summary

	if *f3 || all {
		fmt.Print(eval.FormatFigure3(eval.Figure3(cfg)))
		fmt.Println()
	}

	subs := subjects.All()
	if *subject != "" {
		s, err := subjects.ByID(*subject)
		if err != nil {
			sess.Fatal(err)
		}
		subs = []subjects.Subject{s}
	}

	var runs []eval.SubjectRun
	if *t3 || *t4 || *t5 || *summary || all {
		runs, err = eval.Each(subs, cfg, eval.RunSubject)
		if err != nil {
			sess.Fatal(err)
		}
	}
	if *t3 || all {
		fmt.Print(eval.FormatTable3(runs))
		fmt.Println()
	}
	if *t4 || all {
		fmt.Print(eval.FormatTable4(runs))
		fmt.Println()
	}
	if *t5 || all {
		fmt.Print(eval.FormatTable5(runs))
		fmt.Println()
	}
	if *summary || all {
		printSummary(runs)
		fmt.Println()
	}
	if *f9 || all {
		abls, err := eval.Each(subs, cfg, eval.RunAblation)
		if err != nil {
			sess.Fatal(err)
		}
		fmt.Print(eval.FormatFigure9(abls))
		extra, err := eval.RunExtraAblations()
		if err != nil {
			sess.Fatal(err)
		}
		fmt.Println()
		fmt.Print(eval.FormatExtraAblations(extra))
	}
}

func printSummary(runs []eval.SubjectRun) {
	compat, improved := 0, 0
	var deltaSum int
	var speedup float64
	var covSum float64
	nPerf := 0
	for _, r := range runs {
		if r.Compatible && r.BehaviorOK {
			compat++
		}
		if r.Improved {
			improved++
		}
		deltaSum += r.DeltaLOC
		covSum += r.Coverage
		if r.RuntimeHGMS > 0 && r.RuntimeOriginMS > 0 {
			speedup += r.RuntimeOriginMS / r.RuntimeHGMS
			nPerf++
		}
	}
	n := len(runs)
	if n == 0 {
		return
	}
	fmt.Printf("§6 headline: %d/%d HLS-compatible, %d/%d faster than the original;\n",
		compat, n, improved, n)
	if nPerf > 0 {
		fmt.Printf("mean simulated speedup %.2fx; mean ΔLOC %d; mean branch coverage %.0f%%\n",
			speedup/float64(nPerf), deltaSum/n, 100*covSum/float64(n))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hgeval:", err)
	os.Exit(1)
}
