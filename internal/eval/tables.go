package eval

import (
	"context"
	"fmt"
	"strings"

	"github.com/hetero/heterogen/internal/baselines"
	"github.com/hetero/heterogen/internal/core"
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

// RunAblation executes the Figure 9 comparison for one subject: one
// fuzzing campaign, then the repair stage under HeteroGen's default
// search and under each downgraded configuration, all on the same
// suite.
func RunAblation(s subjects.Subject, cfg Config) (AblationRun, error) {
	out := AblationRun{ID: s.ID}
	opts := cfg.options(s, nil, nil)
	camp, err := core.FuzzStage(context.Background(), s.Source, opts)
	if err != nil {
		return out, fmt.Errorf("%s: %w", s.ID, err)
	}
	opts.ExtraTests = capSuite(camp.Tests, cfg.validationCap())
	var rr [3]repair.Result
	for i, r := range []repair.Options{{},
		baselines.WithoutDependenceOptions(), baselines.WithoutCheckerOptions()} {
		opts.Repair = r
		if rr[i], err = core.RepairStage(s.Source, opts); err != nil {
			return out, fmt.Errorf("%s: %w", s.ID, err)
		}
	}
	hg, wd, wc := rr[0], rr[1], rr[2]

	out.HGMinutes = hg.Stats.SecondsToCompatible / 60
	out.HGCompatible = hg.Compatible && hg.BehaviorOK
	if !out.HGCompatible {
		out.HGMinutes = hg.Stats.VirtualMinutes()
	}
	if hg.Stats.CandidatesTried > 0 {
		out.HGInvokePct = 100 * float64(hg.Stats.HLSInvocations-1) / float64(hg.Stats.CandidatesTried)
	}

	out.WithoutDepOK = wd.Compatible && wd.BehaviorOK
	out.WithoutDepMinutes = wd.Stats.SecondsToCompatible / 60
	if !out.WithoutDepOK {
		out.WithoutDepMinutes = wd.Stats.VirtualMinutes()
	}

	out.WithoutCheckerCompat = wc.Compatible && wc.BehaviorOK
	out.WithoutCheckerMin = wc.Stats.VirtualMinutes()
	if wc.Stats.CandidatesTried > 0 {
		out.WithoutCheckerPct = 100 * float64(wc.Stats.HLSInvocations-1) / float64(wc.Stats.CandidatesTried)
	}
	return out, nil
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
