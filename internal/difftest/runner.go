package difftest

import (
	"sync"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/hls/sim"
	"github.com/hetero/heterogen/internal/interp"
)

// Runner differential-tests candidates against a fixed (original,
// kernel, config, tests) quadruple, amortizing the work over the many
// candidates of one repair search. Three costs disappear relative to a
// one-shot Run per candidate:
//
//   - the CPU reference outcomes are computed once, lazily, and reused —
//     they depend only on the original program and the suite, never on
//     the candidate;
//   - the FPGA side runs with a shared compiled-code cache, so
//     candidates that share unedited function declarations (by pointer,
//     via structure-sharing clones) execute pre-compiled bodies, and
//     with content fingerprints as code keys even a regenerated
//     identical candidate reuses its edited function's compiled body;
//   - whole Reports are memoized by candidate fingerprint: outcomes are
//     deterministic, so a content-identical candidate revisited in a
//     later search iteration is served its memoized verdict outright.
//
// A Runner's Report does not depend on its caches: outcomes are
// deterministic, the reference outcomes are immutable once computed
// (Agree and the describers only read them), and the compiled fast path
// reproduces tree-walker results exactly. Safe for concurrent use by
// evaluation workers.
type Runner struct {
	original *cast.Unit
	kernel   string
	cfg      hls.Config
	tests    []fuzz.TestCase
	code     *interp.Codebase
	fps      *cast.Fingerprints

	refOnce sync.Once
	refs    []Outcome

	mu      sync.Mutex
	reports map[string]Report
}

// reportMemoCap bounds the per-search report memo (a Report is a few
// ints and short strings; the cap is generous for any real candidate
// space and resets harmlessly if exceeded).
const reportMemoCap = 4096

// NewRunner prepares a reusable differential tester. code may be nil
// (the FPGA side then walks trees). fps may be nil; when
// both code and fps are set, each candidate's content fingerprint keys
// the compiled-code cache, so a candidate regenerated with identical
// content in a later search iteration reuses compiled bodies instead of
// recompiling its edited functions (the fingerprint memo is shared with
// the search's cache-key computation, so the fingerprint is effectively
// free here).
func NewRunner(original *cast.Unit, kernel string, cfg hls.Config, tests []fuzz.TestCase, code *interp.Codebase, fps *cast.Fingerprints) *Runner {
	return &Runner{original: original, kernel: kernel, cfg: cfg, tests: tests, code: code, fps: fps}
}

// references computes the per-test CPU reference outcomes once.
func (r *Runner) references() []Outcome {
	r.refOnce.Do(func() {
		r.refs = make([]Outcome, len(r.tests))
		for i, tc := range r.tests {
			r.refs[i] = runCPU(r.original, r.kernel, tc, r.cfg.InterpSteps)
		}
	})
	return r.refs
}

// runFPGA executes the candidate's kernel on the FPGA simulator with the
// shared compiled-code cache.
func (r *Runner) runFPGA(candidate *cast.Unit, tc fuzz.TestCase, codeKey string) Outcome {
	s, err := sim.NewWithCode(candidate, r.cfg, r.code, codeKey)
	if err != nil {
		return Outcome{Err: err}
	}
	return runWith(tc, func(args []interp.Value) (interp.Value, int64, string, error) {
		res, err := s.Run(args)
		return res.Ret, res.Cycles, res.Output, err
	})
}

// Run differential-tests candidate against the runner's original over
// its suite.
func (r *Runner) Run(candidate *cast.Unit) Report {
	refs := r.references()
	var codeKey string
	if r.code != nil && r.fps != nil {
		codeKey = r.fps.Unit(candidate)
		// Outcomes are deterministic functions of (original, candidate,
		// config, tests), so a candidate regenerated with identical
		// content — the dominant pattern in random-mode search, which
		// re-instantiates the same template set every iteration — can be
		// served its memoized Report without running anything. Callers
		// treat Reports as read-only values.
		r.mu.Lock()
		if rep, ok := r.reports[codeKey]; ok {
			r.mu.Unlock()
			return rep
		}
		r.mu.Unlock()
	}
	rep := Report{Total: len(r.tests)}
	var cpuSum, fpgaSum float64
	measured := 0
	for i, tc := range r.tests {
		ref := refs[i]
		got := r.runFPGA(candidate, tc, codeKey)
		if interp.IsBudget(ref.Err) || interp.IsBudget(got.Err) {
			// A step-budget exhaustion is a verdict about the budget, not
			// the behaviour: the run was cut short, so agreement is
			// unknowable. Never report it as a mismatch.
			rep.Inconclusive++
			if len(rep.Timeouts) < 16 {
				rep.Timeouts = append(rep.Timeouts, i)
			}
			if rep.FirstDiff == "" {
				side := "CPU"
				if !interp.IsBudget(ref.Err) {
					side = "FPGA"
				}
				rep.FirstDiff = timeoutDiff(i, side)
			}
			continue
		}
		if Agree(ref, got) {
			rep.Passed++
			if ref.Err == nil && got.Err == nil {
				cpuSum += float64(ref.Cost)
				fpgaSum += float64(got.Cost)
				measured++
			}
			continue
		}
		if len(rep.Mismatches) < 16 {
			rep.Mismatches = append(rep.Mismatches, i)
		}
		if rep.FirstDiff == "" || len(rep.Mismatches) == 1 {
			rep.FirstDiff = describeDiff(i, ref, got)
		}
	}
	if measured > 0 {
		rep.CPUMeanCost = cpuSum / float64(measured)
		rep.FPGAMeanCycles = fpgaSum / float64(measured)
	}
	if codeKey != "" {
		r.mu.Lock()
		if r.reports == nil || len(r.reports) >= reportMemoCap {
			r.reports = make(map[string]Report)
		}
		r.reports[codeKey] = rep
		r.mu.Unlock()
	}
	return rep
}
