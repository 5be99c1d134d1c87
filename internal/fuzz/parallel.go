// Concurrent corpus evaluation for the fuzzer.
//
// Kernel executions over distinct test inputs are independent: each runs
// on its own interpreter against the same immutable program, and the only
// shared artifacts — coverage bits — merge by set union, which is
// order-insensitive. The campaign's *decisions* (which children are
// retained, when the plateau rule fires) stay on the calling goroutine
// and are committed in mutation order, so a campaign with Workers=N is
// bit-identical to the sequential one for the same Options.Seed: the
// same pattern the repair search's parallel engine uses (see
// internal/repair/parallel.go).
package fuzz

import (
	"sync"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/guard"
	"github.com/hetero/heterogen/internal/interp"
)

// execResult is one speculative kernel execution: the coverage bit
// indexes it hit and whether it crashed. failed carries the label of a
// contained stage failure ("interp/panic") — such a result has no hits
// and is never retained.
type execResult struct {
	hits    []int
	crashed bool
	failed  string
}

// execPool executes test cases on a bounded set of workers, each owning
// one interpreter over the campaign's program.
type execPool struct {
	jobs chan execJob
	wg   sync.WaitGroup
}

type execJob struct {
	tc  TestCase
	out *execResult
	wg  *sync.WaitGroup
}

// newCoverageInterp is the interpreter every campaign execution runs
// on: coverage on, the per-execution step budget, and the campaign's
// compiled-code cache (safe to share across workers).
func newCoverageInterp(u *cast.Unit, code *interp.Codebase, maxSteps int64) (*interp.Interp, error) {
	return interp.New(u, interp.Options{Coverage: true, MaxSteps: maxSteps, Code: code})
}

// newExecPool starts workers interpreter-owning goroutines. The unit and
// the compiled code are shared read-only; every worker gets its own
// interpreter (and thus its own globals, coverage bits, and step
// budget).
func newExecPool(u *cast.Unit, kernel string, workers int, maxSteps int64, g *guard.Guard, code *interp.Codebase) (*execPool, error) {
	// Fail construction eagerly if the program cannot initialize, like
	// the sequential path's interp.New call.
	if _, err := newCoverageInterp(u, code, maxSteps); err != nil {
		return nil, err
	}
	p := &execPool{jobs: make(chan execJob, workers)}
	for i := 0; i < workers; i++ {
		go p.worker(u, kernel, maxSteps, g, code)
	}
	return p, nil
}

func (p *execPool) worker(u *cast.Unit, kernel string, maxSteps int64, g *guard.Guard, code *interp.Codebase) {
	in, err := newCoverageInterp(u, code, maxSteps)
	for job := range p.jobs {
		if err == nil {
			res, discard := guardedRun(g, u, in, kernel, maxSteps, job.tc)
			*job.out = res
			if discard {
				// A contained execution may have left the private
				// interpreter dirty (or a deadline-abandoned goroutine
				// still writing to it): replace it before the next job.
				in, err = newCoverageInterp(u, code, maxSteps)
			}
		} else {
			job.out.crashed = true
		}
		job.wg.Done()
	}
}

// guardedRun is runOnce under the guard. discard reports that the
// worker's interpreter actually ran the contained execution and must be
// replaced (injected faults never run it).
func guardedRun(g *guard.Guard, u *cast.Unit, in *interp.Interp, kernel string, maxSteps int64, tc TestCase) (execResult, bool) {
	res, err := guard.Do(g,
		guard.Invocation{Stage: guard.StageInterp, Key: "exec|" + tc.String(), Unit: u},
		func(cu *cast.Unit) (execResult, error) {
			if cu != u {
				// Quarantine replay on a reduced clone: use a private
				// interpreter so the worker's stays untouched.
				rin, rerr := newCoverageInterp(cu, nil, maxSteps)
				if rerr != nil {
					return execResult{}, rerr
				}
				return runOnce(rin, kernel, tc), nil
			}
			return runOnce(in, kernel, tc), nil
		})
	if sf := guard.AsFailure(err); sf != nil {
		return execResult{failed: sf.Label()}, !sf.Injected
	}
	return res, false
}

func (p *execPool) close() { close(p.jobs) }

// runOnce executes one test on a private interpreter and extracts its
// hit set.
func runOnce(in *interp.Interp, kernel string, tc TestCase) execResult {
	if err := in.Reset(); err != nil {
		return execResult{crashed: true}
	}
	_, runErr := in.CallKernel(kernel, tc.Values())
	res := execResult{crashed: runErr != nil}
	for idx, hit := range in.CoverageBits {
		if hit {
			res.hits = append(res.hits, idx)
		}
	}
	return res
}

// runBatch executes the scheduled children concurrently, in any order;
// results land at the child's index. Children with schedule[i] == false
// (type-invalid inputs the campaign never executes) are skipped.
func (p *execPool) runBatch(children []TestCase, schedule []bool) []execResult {
	results := make([]execResult, len(children))
	var wg sync.WaitGroup
	for i := range children {
		if !schedule[i] {
			continue
		}
		wg.Add(1)
		p.jobs <- execJob{tc: children[i], out: &results[i], wg: &wg}
	}
	wg.Wait()
	return results
}

// collectHits runs every test on the pool (or, with workers <= 1,
// sequentially on one interpreter) and returns each test's hit set in
// input order. Used by Replay and Minimize, whose aggregations are
// order-insensitive unions over these sets.
func collectHits(u *cast.Unit, kernel string, tests []TestCase, workers int) ([]execResult, error) {
	code := interp.NewCodebase()
	if workers <= 1 {
		in, err := newCoverageInterp(u, code, 0)
		if err != nil {
			return nil, err
		}
		out := make([]execResult, len(tests))
		for i, tc := range tests {
			out[i] = runOnce(in, kernel, tc)
		}
		return out, nil
	}
	pool, err := newExecPool(u, kernel, workers, 0, nil, code)
	if err != nil {
		return nil, err
	}
	defer pool.close()
	schedule := make([]bool, len(tests))
	for i := range schedule {
		schedule[i] = true
	}
	return pool.runBatch(tests, schedule), nil
}
