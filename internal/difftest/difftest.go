// Package difftest implements HeteroGen's behaviour-preservation oracle:
// differential testing between the original C program executing with CPU
// semantics and a candidate HLS version executing on the FPGA simulator.
//
// A test passes when the kernel return value and the post-call contents
// of every output array agree (floats within tolerance — HLS type
// conversion legitimately narrows precision). The pass ratio is the hard
// component of the repair fitness function; the latency comparison is the
// soft (performance) component.
package difftest

import (
	"fmt"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/interp"
)

// FloatTolerance is the relative tolerance for float comparison.
const FloatTolerance = 1e-4

// Outcome is one kernel execution's observable behaviour.
type Outcome struct {
	Ret    interp.Value
	Arrays [][]interp.Value // post-call contents of array arguments
	Output string           // printf output, compared verbatim
	Err    error
	Cost   int64
}

// outcome runs call on args and records what it observed. The outcome
// keeps args' arrays as its Arrays: they hold the post-call contents
// and belong to this run alone.
func outcome(args []interp.Value, call func([]interp.Value) (interp.Value, int64, string, error)) Outcome {
	ret, cost, text, err := call(args)
	out := Outcome{Ret: ret, Err: err, Cost: cost, Output: text}
	for _, a := range args {
		if a.Kind == interp.VPtr && a.Obj != nil {
			out.Arrays = append(out.Arrays, a.Obj.Elems)
		}
	}
	return out
}

// Agree reports whether two outcomes are behaviourally identical.
func Agree(a, b Outcome) bool {
	if (a.Err == nil) != (b.Err == nil) {
		return false
	}
	if a.Err != nil {
		return true // both failed: neither produced observable behaviour
	}
	if !interp.Equal(a.Ret, b.Ret, FloatTolerance) {
		return false
	}
	if a.Output != b.Output {
		return false
	}
	if len(a.Arrays) != len(b.Arrays) {
		return false
	}
	for i := range a.Arrays {
		if len(a.Arrays[i]) != len(b.Arrays[i]) {
			return false
		}
		for j := range a.Arrays[i] {
			if !interp.Equal(a.Arrays[i][j], b.Arrays[i][j], FloatTolerance) {
				return false
			}
		}
	}
	return true
}

// Report is the outcome of differential testing a candidate against the
// original over a test suite.
type Report struct {
	Total, Passed int
	// Mismatches lists the indexes of disagreeing tests (capped).
	Mismatches []int
	// Inconclusive counts tests where either side exhausted its
	// interpreter step budget. A budget exhaustion says nothing about
	// behavioural agreement, so these are neither passes nor mismatches.
	Inconclusive int
	// Timeouts lists the indexes of inconclusive tests (capped).
	Timeouts []int
	// FirstDiff explains the first mismatch (or, when there are no
	// mismatches, the first inconclusive test).
	FirstDiff string
	// CPUMeanCost / FPGAMeanCycles average the per-test execution costs
	// over tests where both sides succeeded.
	CPUMeanCost    float64
	FPGAMeanCycles float64
}

// PassRatio is Passed/Total (1.0 for an empty suite).
func (r Report) PassRatio() float64 {
	if r.Total == 0 {
		return 1
	}
	return float64(r.Passed) / float64(r.Total)
}

// AllPass reports whether every test agreed.
func (r Report) AllPass() bool { return r.Passed == r.Total }

// CPUMeanMS / FPGAMeanMS convert mean costs to milliseconds.
func (r Report) CPUMeanMS() float64  { return interp.CPUTimeMS(int64(r.CPUMeanCost)) }
func (r Report) FPGAMeanMS() float64 { return interp.FPGATimeMS(int64(r.FPGAMeanCycles)) }

// Run differential-tests candidate against original over the suite: a
// one-shot Runner with its own compiled-code cache.
func Run(original, candidate *cast.Unit, kernel string, cfg hls.Config, tests []fuzz.TestCase) Report {
	return NewRunner(original, kernel, cfg, tests, nil, nil).Run(candidate)
}

func timeoutDiff(i int, side string) string {
	return fmt.Sprintf("inconclusive(timeout): test %d: %s side exhausted its step budget", i, side)
}

func describeDiff(i int, ref, got Outcome) string {
	switch {
	case ref.Err == nil && got.Err != nil:
		return fmt.Sprintf("test %d: FPGA faulted: %v", i, got.Err)
	case ref.Err != nil && got.Err == nil:
		return fmt.Sprintf("test %d: CPU faulted but FPGA did not: %v", i, ref.Err)
	case !interp.Equal(ref.Ret, got.Ret, FloatTolerance):
		return fmt.Sprintf("test %d: return %s (CPU) vs %s (FPGA)", i, ref.Ret, got.Ret)
	default:
		return fmt.Sprintf("test %d: output arrays differ", i)
	}
}
