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
// candidates of one repair search. Two costs disappear relative to a
// one-shot Run per candidate:
//
//   - the CPU reference outcomes are computed once, lazily, and reused —
//     they depend only on the original program and the suite, never on
//     the candidate;
//   - both sides run with one shared compiled-code cache, so
//     candidates that share unedited function declarations (by pointer,
//     via structure-sharing clones) execute pre-compiled bodies, and
//     with content fingerprints as code keys even a regenerated
//     identical candidate reuses its edited function's compiled body.
//
// A Runner does not memoize Reports: every Run executes the suite. The
// repair search's evaluation cache (evalcache.StageDifftest) is the one
// place a verdict is remembered. A Runner's Report does not depend on
// its caches: outcomes are deterministic, the reference outcomes are
// immutable once computed (Agree and the describers only read them),
// and compiled code behaves the same whichever unit compiled it.
// Safe for concurrent use by evaluation workers.
type Runner struct {
	original *cast.Unit
	kernel   string
	cfg      hls.Config
	tests    []fuzz.TestCase
	code     *interp.Codebase
	fps      *cast.Fingerprints

	refOnce sync.Once
	refs    []Outcome
}

// NewRunner prepares a reusable differential tester. code may be nil
// (the Runner then uses a private cache). fps may be nil; when set, each
// candidate's content fingerprint keys the compiled-code cache, so a
// candidate regenerated with identical content in a later search
// iteration reuses compiled bodies instead of recompiling its edited
// functions (the fingerprint memo is shared with the search's cache-key
// computation, so the fingerprint is effectively free here).
func NewRunner(original *cast.Unit, kernel string, cfg hls.Config, tests []fuzz.TestCase, code *interp.Codebase, fps *cast.Fingerprints) *Runner {
	if code == nil {
		code = interp.NewCodebase()
	}
	return &Runner{original: original, kernel: kernel, cfg: cfg, tests: tests, code: code, fps: fps}
}

// references computes the per-test CPU reference outcomes once.
func (r *Runner) references() []Outcome {
	r.refOnce.Do(func() {
		r.refs = make([]Outcome, len(r.tests))
		for i, tc := range r.tests {
			r.refs[i] = runCPU(r.original, r.kernel, tc, r.cfg.InterpSteps, r.code)
		}
	})
	return r.refs
}

// runFPGA executes the candidate's kernel on the FPGA simulator with the
// shared compiled-code cache.
func (r *Runner) runFPGA(candidate *cast.Unit, tc fuzz.TestCase, codeKey string) Outcome {
	s, err := sim.New(candidate, r.cfg, r.code, codeKey)
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
	if r.fps != nil {
		codeKey = r.fps.Unit(candidate)
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
	return rep
}
