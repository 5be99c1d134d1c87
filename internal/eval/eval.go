// Package eval is the benchmark harness that regenerates every table and
// figure of the paper's evaluation (§6): Table 3 (conversion
// effectiveness), Table 4 (test generation), Figure 9 (ablations), Table 5
// (manual / HeteroRefactor comparison), and Figure 3 (the forum study).
//
// Absolute numbers come from the simulated toolchain (virtual compile
// latency, modelled FPGA cycles), so they will not match the paper's
// testbed; the shapes — who wins, where performance improves, where the
// ablations blow up — are the reproduction targets.
package eval

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"github.com/hetero/heterogen/internal/baselines"
	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/core"
	"github.com/hetero/heterogen/internal/difftest"
	"github.com/hetero/heterogen/internal/evalcache"
	"github.com/hetero/heterogen/internal/forum"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/guard"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/obs"
	"github.com/hetero/heterogen/internal/repair"
	"github.com/hetero/heterogen/internal/subjects"
)

// Config tunes harness effort.
type Config struct {
	// Quick shrinks fuzzing budgets for fast CI runs; the full
	// configuration approximates the paper's campaign sizes.
	Quick bool
	Seed  int64
	// Workers bounds concurrent candidate evaluation inside each repair
	// search (repair.Options.Workers). All reported numbers are
	// bit-identical for any value — it only changes real wall-clock.
	Workers int
	// Obs receives structured events from every subject's fuzzing
	// campaign and repair search, tagged with the subject id so
	// concurrently-run subjects stay separable in one trace (see
	// internal/obs.Tag). Single-subject runs produce byte-deterministic
	// traces; RunAll interleaves subjects in scheduler order.
	Obs obs.Observer
	// Cache, when non-nil, memoizes toolchain verdicts across subjects
	// and — with a persistent directory — across harness runs, so a
	// repeated sweep over P1-P10 is near-instant. Reported numbers are
	// bit-identical with or without it. Safe to share across the
	// concurrent subjects of RunAll.
	Cache *evalcache.Cache
	// Guard, when non-nil, contains stage failures (panics, deadline
	// overruns) inside each subject's fuzzing campaign and repair
	// search instead of crashing the harness. With injection disabled,
	// reported numbers are bit-identical with or without it. Safe to
	// share across the concurrent subjects of RunAll.
	Guard *guard.Guard
	// Targets, when set, runs every subject's repair search against this
	// HLS target set (repair.Options.Targets): fitness becomes a
	// per-device vector and the search keeps a latency/resource Pareto
	// archive. Empty keeps the classic single-default-target numbers.
	Targets []hls.Target
}

// DefaultConfig is the full-effort harness configuration.
func DefaultConfig() Config { return Config{Seed: 1} }

// QuickConfig is the CI-sized configuration.
func QuickConfig() Config { return Config{Quick: true, Seed: 1} }

// validationCap bounds the number of tests used for repair fitness
// evaluation (the virtual-time accounting still reflects the full
// suite; this bounds real execution).
func (c Config) validationCap() int {
	if c.Quick {
		return 12
	}
	return 24
}

func (c Config) fuzzOptions() fuzz.Options {
	o := fuzz.DefaultOptions()
	o.Seed = c.Seed
	if c.Quick {
		o.MaxExecs = 220
		o.Plateau = 90
	} else {
		o.MaxExecs = 2600
		o.Plateau = 450
	}
	return o
}

// options is the one core.Options a subject's stages run under: the
// harness's fuzzing budget, the default repair search under its seed,
// and the shared workers, cache and guard. o observes the run and
// targets are the repair search's target set; the ablations pass
// neither.
func (c Config) options(s subjects.Subject, o obs.Observer, targets []hls.Target) core.Options {
	r := repair.DefaultOptions()
	r.Seed = c.Seed
	return core.Options{
		Kernel:  s.Kernel,
		Fuzz:    c.fuzzOptions(),
		Repair:  r,
		Workers: c.Workers,
		Obs:     o,
		Cache:   c.Cache,
		Guard:   c.Guard,
		Targets: targets,
	}
}

// SubjectRun aggregates everything the per-subject tables need.
type SubjectRun struct {
	ID, Name    string
	OriginalLOC int

	// Table 3.
	Compatible bool
	BehaviorOK bool
	Improved   bool

	// Table 4.
	TestsGenerated   int
	GenMinutes       float64
	Coverage         float64
	ExistingCount    int
	ExistingCoverage float64 // -1 when the subject ships without tests

	// Table 5.
	DeltaLOC        int
	ManualDeltaLOC  int
	HRSucceeded     bool
	HRDeltaLOC      int
	RuntimeOriginMS float64
	RuntimeManualMS float64
	RuntimeHRMS     float64 // -1 when HR failed
	RuntimeHGMS     float64

	// Figure 9 inputs for the main configuration.
	HGMinutes        float64
	HGInvocations    int
	HGCandidates     int
	HGStyleRejects   int
	EditLog          []string
	ValidationsTotal int
}

// RunSubject executes the full HeteroGen pipeline through core's stage
// entry points, plus the Table 5 comparisons, for one subject.
func RunSubject(s subjects.Subject, cfg Config) (SubjectRun, error) {
	run := SubjectRun{ID: s.ID, Name: s.Name}
	orig := s.MustParse()
	run.OriginalLOC = cast.CountLines(orig)
	opts := cfg.options(s, obs.Tag(cfg.Obs, s.ID), cfg.Targets)

	// --- Test generation (Table 4) -------------------------------------
	camp, err := core.FuzzStage(context.Background(), s.Source, opts)
	if err != nil {
		return run, fmt.Errorf("%s: %w", s.ID, err)
	}
	run.TestsGenerated = camp.Execs
	run.GenMinutes = camp.VirtualMinutes()
	run.Coverage = camp.Coverage
	run.ExistingCoverage = -1
	if s.ExistingTests != nil {
		existing := s.ExistingTests()
		run.ExistingCount = len(existing)
		cov, err := fuzz.Replay(orig, s.Kernel, existing)
		if err == nil {
			run.ExistingCoverage = cov
		}
	}

	valSuite := validationSuite(orig, s.Kernel, camp.Tests, cfg.validationCap())

	// --- Initial version + repair (Table 3) ----------------------------
	opts.ExtraTests = valSuite
	rr, err := core.RepairStage(s.Source, opts)
	if err != nil {
		return run, fmt.Errorf("%s: %w", s.ID, err)
	}
	// One counter serves every ΔLOC render of this run: the original is
	// printed and line-indexed once instead of per metric.
	origLines := repair.NewLineCounter(orig)
	run.Compatible = rr.Compatible
	run.BehaviorOK = rr.BehaviorOK
	run.Improved = rr.Improved
	run.DeltaLOC = origLines.EditedLines(rr.Unit)
	run.HGMinutes = rr.Stats.VirtualMinutes()
	run.HGInvocations = rr.Stats.HLSInvocations
	run.HGCandidates = rr.Stats.CandidatesTried
	run.HGStyleRejects = rr.Stats.StyleRejections
	run.EditLog = rr.Stats.EditLog
	run.ValidationsTotal = len(valSuite)

	cfgHLS := hls.DefaultConfig(s.Kernel)
	run.RuntimeOriginMS = rr.Report.CPUMeanMS()
	run.RuntimeHGMS = rr.Report.FPGAMeanMS()

	// --- Manual version (Table 5) --------------------------------------
	manual := s.MustParseManual()
	mrep := difftest.Run(orig, manual, s.Kernel, cfgHLS, valSuite)
	run.ManualDeltaLOC = origLines.EditedLines(manual)
	if mrep.Total > 0 && mrep.AllPass() {
		run.RuntimeManualMS = mrep.FPGAMeanMS()
		if run.RuntimeOriginMS == 0 {
			run.RuntimeOriginMS = mrep.CPUMeanMS()
		}
	}

	// --- HeteroRefactor (Table 5) --------------------------------------
	var hrTests []fuzz.TestCase
	if s.ExistingTests != nil {
		hrTests = s.ExistingTests()
	}
	hrRes, err := baselines.HeteroRefactor(s.Source, s.Kernel, capSuite(hrTests, cfg.validationCap()))
	if err != nil {
		return run, fmt.Errorf("%s: HeteroRefactor: %w", s.ID, err)
	}
	run.HRSucceeded = hrRes.Compatible && hrRes.BehaviorOK && s.HRSupported
	run.RuntimeHRMS = -1
	run.HRDeltaLOC = -1
	if run.HRSucceeded {
		hrRep := difftest.Run(orig, hrRes.Unit, s.Kernel, cfgHLS, valSuite)
		if hrRep.AllPass() {
			run.RuntimeHRMS = hrRep.FPGAMeanMS()
			run.HRDeltaLOC = origLines.EditedLines(hrRes.Unit)
		} else {
			run.HRSucceeded = false
		}
	}
	return run, nil
}

// validationSuite builds the repair-fitness suite: the corpus minimized
// to a coverage set cover (so every behaviour class keeps a witness),
// topped up with an even spread of the remainder to cap.
func validationSuite(orig *cast.Unit, kernel string, tests []fuzz.TestCase, cap int) []fuzz.TestCase {
	min, err := fuzz.Minimize(orig, kernel, tests)
	if err != nil || len(min) == 0 {
		return capSuite(tests, cap)
	}
	if len(min) >= cap && cap > 0 {
		return capSuite(min, cap)
	}
	// Top up with spread extras for value diversity beyond pure coverage.
	extra := capSuite(tests, cap-len(min))
	return append(min, extra...)
}

// capSuite bounds a test suite, keeping an even spread.
func capSuite(tests []fuzz.TestCase, cap int) []fuzz.TestCase {
	if cap <= 0 || len(tests) <= cap {
		return tests
	}
	out := make([]fuzz.TestCase, 0, cap)
	step := float64(len(tests)) / float64(cap)
	for i := 0; i < cap; i++ {
		out = append(out, tests[int(float64(i)*step)])
	}
	return out
}

// Each runs run over subs, fanning out across CPUs (each subject's
// stages are independent and deterministic for a given seed), and
// returns the results in subs' order with the first subject's error,
// if any. RunSubject and RunAblation are its two runs: the tables and
// Figure 9.
func Each[T any](subs []subjects.Subject, cfg Config, run func(subjects.Subject, Config) (T, error)) ([]T, error) {
	out := make([]T, len(subs))
	errs := make([]error, len(subs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, s := range subs {
		wg.Add(1)
		go func(i int, s subjects.Subject) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i], errs[i] = run(s, cfg)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 3

// Figure3 synthesizes the forum corpus and reports the measured error-type
// distribution.
func Figure3(cfg Config) forum.StudyResult {
	n := 1000
	if cfg.Quick {
		n = 300
	}
	return forum.Study(forum.Corpus(n, cfg.Seed))
}

// FormatFigure3 renders the pie-chart data as text.
func FormatFigure3(res forum.StudyResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 3: HLS compatibility error types (%d posts, %.0f%% classifier agreement)\n",
		res.Total, 100*res.Accuracy)
	type row struct {
		c   hls.ErrorClass
		pct float64
	}
	var rows []row
	for c, p := range res.Percent {
		rows = append(rows, row{c, p})
	}
	// Equal shares keep Table 1's class order, so the text is the same
	// on every run whatever the map's iteration order.
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].pct != rows[j].pct {
			return rows[i].pct > rows[j].pct
		}
		return rows[i].c < rows[j].c
	})
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-26s %5.1f%%  %s\n", r.c, r.pct, bar(r.pct))
	}
	return sb.String()
}

func bar(pct float64) string {
	n := int(pct / 2)
	return strings.Repeat("#", n)
}
