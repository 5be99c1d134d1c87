package fuzz

import (
	"github.com/hetero/heterogen/internal/cast"
)

// Minimize reduces a test suite to a greedy set cover of its branch
// outcomes (afl-cmin's job): every covered outcome keeps at least one
// witness, so downstream differential testing loses no behaviour class
// while paying for far fewer executions. Tests that fail to execute are
// dropped. Order: tests are considered in their original order, so
// earlier (seed) tests are preferred witnesses.
func Minimize(u *cast.Unit, kernel string, tests []TestCase) ([]TestCase, error) {
	if len(tests) <= 1 {
		return tests, nil
	}
	results, err := collectHits(u, kernel, tests)
	if err != nil {
		return nil, err
	}
	type witness struct {
		tc   TestCase
		bits []int
	}
	var witnesses []witness
	for i, tc := range tests {
		if results[i].crashed {
			continue
		}
		witnesses = append(witnesses, witness{tc: tc, bits: results[i].hits})
	}
	covered := map[int]bool{}
	var out []TestCase
	// Greedy: repeatedly take the test adding the most new outcomes.
	remaining := witnesses
	for {
		bestIdx, bestGain := -1, 0
		for i, w := range remaining {
			gain := 0
			for _, b := range w.bits {
				if !covered[b] {
					gain++
				}
			}
			if gain > bestGain {
				bestIdx, bestGain = i, gain
			}
		}
		if bestIdx < 0 {
			break
		}
		w := remaining[bestIdx]
		out = append(out, w.tc)
		for _, b := range w.bits {
			covered[b] = true
		}
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	if len(out) == 0 {
		// Branchless kernels have no outcomes to cover; keep one clean
		// witness so differential testing still observes behaviour.
		if len(witnesses) > 0 {
			out = []TestCase{witnesses[0].tc}
		} else if len(tests) > 0 {
			out = tests[:1]
		}
	}
	return out, nil
}
