// Package baselines implements the three comparison systems of §6.3/§6.4:
//
//   - HeteroRefactor: the prior-work transpiler whose scope is limited to
//     dynamic data structures (recursion, malloc/free, pointers) and which
//     generates no tests of its own — it validates only against whatever
//     tests the subject ships with.
//   - WithoutChecker: HeteroGen with the lightweight style checker
//     disabled, paying a full HLS compilation for every candidate.
//   - WithoutDependence: HeteroGen choosing candidate edits in a random
//     order with no dependence structure.
package baselines

import (
	"github.com/hetero/heterogen/internal/core"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/repair"
)

// HeteroRefactorOptions returns the repair configuration modelling the
// HeteroRefactor baseline: dynamic-data templates only, no performance
// exploration, standard budget.
func HeteroRefactorOptions() repair.Options {
	return repair.Options{
		WithoutPerfExploration: true,
		ClassFilter:            map[hls.ErrorClass]bool{hls.ClassDynamicData: true},
	}
}

// WithoutCheckerOptions disables the style checker (every candidate pays
// a full compile).
func WithoutCheckerOptions() repair.Options {
	return repair.Options{WithoutChecker: true}
}

// WithoutDependenceOptions disables dependence-guided enumeration and
// extends the budget to the paper's twelve-hour failure threshold.
func WithoutDependenceOptions() repair.Options {
	return repair.Options{WithoutDependence: true, Budget: 12 * 3600, MaxIterations: 512}
}

// HeteroRefactor runs the HR baseline over the C source src: the
// repair stage with dynamic-data edits only and no bitwidth profiling,
// validated only against the provided (pre-existing) tests. Success
// mirrors Table 5: the output must compile error-free and agree on the
// supplied tests. The error is the stage's (a source that does not
// parse or lacks the kernel).
func HeteroRefactor(src, kernel string, existingTests []fuzz.TestCase) (repair.Result, error) {
	return core.RepairStage(src, core.Options{
		Kernel:      kernel,
		Repair:      HeteroRefactorOptions(),
		SkipProfile: true,
		ExtraTests:  existingTests,
	})
}
