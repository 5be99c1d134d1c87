// Package stage declares what core shares with the pipeline stages it
// runs: one run's observer, evaluation cache and failure guard. The
// stages' own options (fuzz.Options, repair.Options) hold only the
// settings one stage reads; these three are read by every stage, so
// they travel beside the options as a parameter instead.
package stage

import (
	"github.com/hetero/heterogen/internal/evalcache"
	"github.com/hetero/heterogen/internal/guard"
	"github.com/hetero/heterogen/internal/obs"
)

// Env is one run's shared environment, handed to fuzz.RunContext and
// repair.SearchContext. The zero value observes nothing, caches
// nothing and guards with no deadline, injection or quarantine (a nil
// guard still contains panics).
type Env struct {
	// Obs receives the stage's structured events; nil disables
	// observation.
	Obs obs.Observer
	// Cache memoizes the stage's expensive verdicts; nil disables
	// memoization. Hits charge identical virtual costs in identical
	// order, so results and traces do not depend on it.
	Cache *evalcache.Cache
	// Guard contains stage failures. Its step budget
	// (guard.Options.InterpSteps), when set, bounds every fuzz
	// execution and both sides of every differential test.
	Guard *guard.Guard
}
