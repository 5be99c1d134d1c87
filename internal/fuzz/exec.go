// Kernel execution for the fuzzer. One path runs every test: the
// campaign (seed corpus and mutants) goes through guardedRun, and
// Replay and Minimize through collectHits; both run the test with
// runOnce, which resets the interpreter and returns the test's own hit
// set. Callers merge hit sets into their coverage by set union.
package fuzz

import (
	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/guard"
	"github.com/hetero/heterogen/internal/interp"
)

// execResult is one kernel execution: the coverage bit indexes it hit
// and whether it crashed. failed carries the label of a contained stage
// failure ("interp/panic") — such a result has no hits and is never
// retained.
type execResult struct {
	hits    []int
	crashed bool
	failed  string
}

// newCoverageInterp is the interpreter every campaign execution runs
// on: coverage on, the per-execution step budget, and the campaign's
// compiled-code cache.
func newCoverageInterp(u *cast.Unit, code *interp.Codebase, maxSteps int64) (*interp.Interp, error) {
	return interp.New(u, interp.Options{Coverage: true, MaxSteps: maxSteps, Code: code})
}

// guardedRun is runOnce under the guard. discard reports that in
// actually ran a contained execution and must be replaced (injected
// faults never run it). err is runOnce's Reset error, which aborts the
// campaign.
func guardedRun(g *guard.Guard, u *cast.Unit, in *interp.Interp, kernel string, maxSteps int64, tc TestCase) (res execResult, discard bool, err error) {
	var key string
	if g.Injecting() {
		key = execKey(tc)
	}
	res, err = guard.Do(g,
		guard.Invocation{Stage: guard.StageInterp, Key: key, Unit: u},
		func(cu *cast.Unit) (execResult, error) {
			if cu != u {
				// Quarantine replay on a reduced clone: use a private
				// interpreter so the campaign's stays untouched.
				rin, rerr := newCoverageInterp(cu, nil, maxSteps)
				if rerr != nil {
					return execResult{}, rerr
				}
				return runOnce(rin, kernel, tc)
			}
			return runOnce(in, kernel, tc)
		})
	if sf := guard.AsFailure(err); sf != nil {
		return execResult{failed: sf.Label()}, !sf.Injected, nil
	}
	return res, false, err
}

// execKey names one execution for fault injection by the test's
// content. TestCase.String renders an array as its type and length
// only, so a case with an array argument also carries a digest of its
// payload; an all-scalar case's key is its rendering alone.
func execKey(tc TestCase) string {
	key := "exec|" + tc.String()
	for _, a := range tc.Args {
		if !a.Scalar {
			return key + "|" + CorpusFingerprint([]TestCase{tc})[:16]
		}
	}
	return key
}

// runOnce executes one test on fresh globals and extracts its hit set.
func runOnce(in *interp.Interp, kernel string, tc TestCase) (execResult, error) {
	if err := in.Reset(); err != nil {
		return execResult{}, err
	}
	_, runErr := in.CallKernel(kernel, tc.Values())
	res := execResult{crashed: runErr != nil}
	for idx, hit := range in.CoverageBits {
		if hit {
			res.hits = append(res.hits, idx)
		}
	}
	return res, nil
}

// collectHits runs every test on one interpreter and returns each
// test's hit set in input order. Used by Replay and Minimize, whose
// aggregations are unions over these sets.
func collectHits(u *cast.Unit, kernel string, tests []TestCase) ([]execResult, error) {
	in, err := newCoverageInterp(u, nil, 0)
	if err != nil {
		return nil, err
	}
	out := make([]execResult, len(tests))
	for i, tc := range tests {
		if out[i], err = runOnce(in, kernel, tc); err != nil {
			return nil, err
		}
	}
	return out, nil
}
