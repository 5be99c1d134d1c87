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
//   - both sides run with one shared compiled-code cache, so
//     candidates that share unedited function declarations (by pointer,
//     via structure-sharing clones) execute pre-compiled bodies, and
//     with content fingerprints as code keys even a regenerated
//     identical candidate reuses its edited function's compiled body;
//   - each side runs a whole suite on one interpreter (one simulator
//     per candidate), reset between tests: a reset refills the global
//     arrays in place, and every test still starts from the state a
//     fresh interpreter gives it. Within one Run the simulator side also
//     builds each test's argument arrays into the previous test's, once
//     their comparison is done. Nothing outlives a Run: the guard may
//     abandon a timed-out Run that is still executing and retry it.
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

// references computes the per-test CPU reference outcomes once. Each
// test's arguments are built afresh, so the outcomes keep their arrays
// for as long as the Runner lives.
func (r *Runner) references() []Outcome {
	r.refOnce.Do(func() {
		r.refs = make([]Outcome, len(r.tests))
		cpu := cpuSession(r.original, r.kernel, r.cfg.InterpSteps, r.code)
		for i, tc := range r.tests {
			r.refs[i] = cpu.run(tc.Values())
		}
	})
	return r.refs
}

// session runs one suite's tests in order on one interpreter or
// simulator. Every test but the first resets it first, so each test
// starts from the state a freshly built one gives it. When building it
// failed (err), every test reports that error as its outcome.
type session struct {
	err   error
	reset func() error
	call  func(args []interp.Value) (interp.Value, int64, string, error)
	ran   bool
}

// cpuSession builds the CPU interpreter that the reference outcomes
// run on.
func cpuSession(u *cast.Unit, kernel string, maxSteps int64, code *interp.Codebase) session {
	in, err := interp.New(u, interp.Options{MaxSteps: maxSteps, Code: code})
	if err != nil {
		return session{err: err}
	}
	return session{reset: in.Reset, call: func(args []interp.Value) (interp.Value, int64, string, error) {
		res, err := in.CallKernel(kernel, args)
		return res.Ret, res.Cost, res.Output, err
	}}
}

// fpgaSession builds the simulator that one candidate's tests run on.
func fpgaSession(u *cast.Unit, cfg hls.Config, code *interp.Codebase, codeKey string) session {
	s, err := sim.New(u, cfg, code, codeKey)
	if err != nil {
		return session{err: err}
	}
	return session{reset: s.Reset, call: func(args []interp.Value) (interp.Value, int64, string, error) {
		res, err := s.Run(args)
		return res.Ret, res.Cycles, res.Output, err
	}}
}

// run executes the next test on args.
func (s *session) run(args []interp.Value) Outcome {
	if s.err != nil {
		return Outcome{Err: s.err}
	}
	if s.ran {
		if err := s.reset(); err != nil {
			return Outcome{Err: err}
		}
	}
	s.ran = true
	return outcome(args, s.call)
}

// argBuffers holds the argument slice and the array backings of the
// previous test of one Run, for the next test to build its arguments
// into.
type argBuffers struct {
	args   []interp.Value
	arrays [][]interp.Value
}

// values builds tc's arguments into the previous test's buffers. The
// caller must be done with the previous test's outcome.
func (b *argBuffers) values(tc fuzz.TestCase) []interp.Value {
	n := len(tc.Args)
	if len(b.arrays) < n {
		b.arrays = append(b.arrays, make([][]interp.Value, n-len(b.arrays))...)
	}
	b.args = b.args[:0]
	for i, a := range tc.Args {
		v := a.ValueIn(b.arrays[i])
		if v.Obj != nil {
			b.arrays[i] = v.Obj.Elems
		}
		b.args = append(b.args, v)
	}
	return b.args
}

// Run differential-tests candidate against the runner's original over
// its suite.
func (r *Runner) Run(candidate *cast.Unit) Report {
	refs := r.references()
	var codeKey string
	if r.fps != nil {
		codeKey = r.fps.Unit(candidate)
	}
	fpga := fpgaSession(candidate, r.cfg, r.code, codeKey)
	var bufs argBuffers
	rep := Report{Total: len(r.tests)}
	var cpuSum, fpgaSum float64
	measured := 0
	for i, tc := range r.tests {
		ref := refs[i]
		got := fpga.run(bufs.values(tc))
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
