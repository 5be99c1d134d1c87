package eval

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"github.com/hetero/heterogen/internal/baselines"
	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/profile"
	"github.com/hetero/heterogen/internal/repair"
	"github.com/hetero/heterogen/internal/subjects"
)

// ---------------------------------------------------------------------------
// Table 3 — subjects and overall results

// FormatTable3 renders Table 3.
func FormatTable3(runs []SubjectRun) string {
	var sb strings.Builder
	sb.WriteString("Table 3: Subjects and overall results\n")
	sb.WriteString(fmt.Sprintf("%-4s %-24s %-14s %s\n", "ID", "Subject", "HLS Compat.", "Improved Perf?"))
	for _, r := range runs {
		comp := mark(r.Compatible && r.BehaviorOK)
		perf := mark(r.Improved)
		sb.WriteString(fmt.Sprintf("%-4s %-24s %-14s %s\n", r.ID, r.Name, comp, perf))
	}
	return sb.String()
}

func mark(b bool) string {
	if b {
		return "✓"
	}
	return "✗"
}

// ---------------------------------------------------------------------------
// Table 4 — generated tests

// FormatTable4 renders Table 4.
func FormatTable4(runs []SubjectRun) string {
	var sb strings.Builder
	sb.WriteString("Table 4: Generated tests (HG) vs existing tests\n")
	sb.WriteString(fmt.Sprintf("%-4s %10s %8s %7s | %8s %7s\n",
		"ID", "# Tests", "Time(m)", "Cov.", "# Exist", "Cov."))
	var sumTests int
	var sumCov float64
	for _, r := range runs {
		exN, exC := "N/A", "N/A"
		if r.ExistingCoverage >= 0 {
			exN = fmt.Sprintf("%d", r.ExistingCount)
			exC = fmt.Sprintf("%.0f%%", 100*r.ExistingCoverage)
		}
		sb.WriteString(fmt.Sprintf("%-4s %10d %8.0f %6.0f%% | %8s %7s\n",
			r.ID, r.TestsGenerated, r.GenMinutes, 100*r.Coverage, exN, exC))
		sumTests += r.TestsGenerated
		sumCov += r.Coverage
	}
	if len(runs) > 0 {
		sb.WriteString(fmt.Sprintf("avg  %10d %*s %6.0f%%\n",
			sumTests/len(runs), 8, "", 100*sumCov/float64(len(runs))))
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Table 5 — comparison against manual edits and HeteroRefactor

// FormatTable5 renders Table 5.
func FormatTable5(runs []SubjectRun) string {
	var sb strings.Builder
	sb.WriteString("Table 5: Comparison against manual edits and HeteroRefactor\n")
	sb.WriteString(fmt.Sprintf("%-4s %6s | %7s %6s %6s | %9s %9s %9s %9s\n",
		"ID", "LOC", "ΔManual", "ΔHR", "ΔHG", "Origin ms", "Manual ms", "HR ms", "HG ms"))
	var speedupHG, speedupManual float64
	var nPerf int
	for _, r := range runs {
		hrD, hrMS := "✗", "✗"
		if r.HRSucceeded {
			hrD = fmt.Sprintf("%d", r.HRDeltaLOC)
			hrMS = fmt.Sprintf("%.4f", r.RuntimeHRMS)
		}
		sb.WriteString(fmt.Sprintf("%-4s %6d | %7d %6s %6d | %9.4f %9.4f %9s %9.4f\n",
			r.ID, r.OriginalLOC, r.ManualDeltaLOC, hrD, r.DeltaLOC,
			r.RuntimeOriginMS, r.RuntimeManualMS, hrMS, r.RuntimeHGMS))
		if r.RuntimeHGMS > 0 && r.RuntimeOriginMS > 0 {
			speedupHG += r.RuntimeOriginMS / r.RuntimeHGMS
			nPerf++
		}
		if r.RuntimeManualMS > 0 && r.RuntimeOriginMS > 0 {
			speedupManual += r.RuntimeOriginMS / r.RuntimeManualMS
		}
	}
	if nPerf > 0 {
		sb.WriteString(fmt.Sprintf("mean speedup vs origin: HG %.2fx, Manual %.2fx\n",
			speedupHG/float64(nPerf), speedupManual/float64(nPerf)))
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Figure 9 — ablation study

// AblationRun compares HeteroGen with the two downgraded configurations
// on one subject.
type AblationRun struct {
	ID string
	// Wall-clock (virtual minutes) for the same repair task.
	HGMinutes         float64
	WithoutDepMinutes float64
	WithoutDepOK      bool // false = failed to reach compatibility in 12h
	// Percentage of repair attempts that invoked the full HLS toolchain.
	HGInvokePct          float64
	WithoutCheckerPct    float64
	WithoutCheckerMin    float64
	HGCompatible         bool
	WithoutCheckerCompat bool
}

// RunAblation executes the Figure 9 comparison for one subject.
func RunAblation(s subjects.Subject, cfg Config) (AblationRun, error) {
	out := AblationRun{ID: s.ID}
	orig := s.MustParse()
	fopts := cfg.fuzzOptions()
	fopts.Cache = cfg.Cache
	fopts.Guard = cfg.Guard
	camp, err := fuzz.RunContext(context.Background(), orig, s.Kernel, fopts)
	if err != nil {
		return out, err
	}
	valSuite := capSuite(camp.Tests, cfg.ValidationCap)
	initialOf := func() *cast.Unit {
		u := cast.CloneUnit(orig)
		if prof, err := profile.Generate(orig, s.Kernel, valSuite); err == nil {
			u = prof.Unit
		}
		return u
	}

	withWorkers := func(o repair.Options) repair.Options {
		o.Workers = cfg.Workers
		o.Cache = cfg.Cache
		o.Guard = cfg.Guard
		return o
	}
	hg := repair.SearchContext(context.Background(), orig, initialOf(), s.Kernel, valSuite, withWorkers(repair.DefaultOptions()))
	out.HGMinutes = hg.Stats.SecondsToCompatible / 60
	out.HGCompatible = hg.Compatible && hg.BehaviorOK
	if !out.HGCompatible {
		out.HGMinutes = hg.Stats.VirtualMinutes()
	}
	if hg.Stats.CandidatesTried > 0 {
		out.HGInvokePct = 100 * float64(hg.Stats.HLSInvocations-1) / float64(hg.Stats.CandidatesTried)
	}

	wd := repair.SearchContext(context.Background(), orig, initialOf(), s.Kernel, valSuite, withWorkers(baselines.WithoutDependenceOptions()))
	out.WithoutDepOK = wd.Compatible && wd.BehaviorOK
	out.WithoutDepMinutes = wd.Stats.SecondsToCompatible / 60
	if !out.WithoutDepOK {
		out.WithoutDepMinutes = wd.Stats.VirtualMinutes()
	}

	wc := repair.SearchContext(context.Background(), orig, initialOf(), s.Kernel, valSuite, withWorkers(baselines.WithoutCheckerOptions()))
	out.WithoutCheckerCompat = wc.Compatible && wc.BehaviorOK
	out.WithoutCheckerMin = wc.Stats.VirtualMinutes()
	if wc.Stats.CandidatesTried > 0 {
		out.WithoutCheckerPct = 100 * float64(wc.Stats.HLSInvocations-1) / float64(wc.Stats.CandidatesTried)
	}
	return out, nil
}

// RunAllAblations covers all ten subjects, in parallel.
func RunAllAblations(cfg Config) ([]AblationRun, error) {
	subs := subjects.All()
	runs := make([]AblationRun, len(subs))
	errs := make([]error, len(subs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, s := range subs {
		wg.Add(1)
		go func(i int, s subjects.Subject) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			runs[i], errs[i] = RunAblation(s, cfg)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return runs, err
		}
	}
	return runs, nil
}

// FormatFigure9 renders the ablation data.
func FormatFigure9(runs []AblationRun) string {
	var sb strings.Builder
	sb.WriteString("Figure 9: Repair time and HLS invocations\n")
	sb.WriteString(fmt.Sprintf("%-4s %10s %14s %8s | %11s %13s\n",
		"ID", "HG (min)", "WithoutDep(m)", "speedup", "HG invoke%", "NoChecker %"))
	for _, r := range runs {
		wd := fmt.Sprintf("%.0f", r.WithoutDepMinutes)
		sp := "-"
		if !r.WithoutDepOK {
			wd = ">720 (fail)"
		} else if r.HGMinutes > 0 {
			sp = fmt.Sprintf("%.0fx", r.WithoutDepMinutes/r.HGMinutes)
		}
		sb.WriteString(fmt.Sprintf("%-4s %10.0f %14s %8s | %10.0f%% %12.0f%%\n",
			r.ID, r.HGMinutes, wd, sp, r.HGInvokePct, r.WithoutCheckerPct))
	}
	return sb.String()
}
