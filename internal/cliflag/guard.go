package cliflag

import (
	"flag"
	"time"

	"github.com/hetero/heterogen/internal/chaos"
	"github.com/hetero/heterogen/internal/guard"
	"github.com/hetero/heterogen/internal/obs"
)

// Guard is the guard family: the failure-containment budgets and the
// deterministic fault injector (see internal/guard, internal/chaos).
type Guard struct {
	StageDeadline time.Duration
	InterpSteps   int64
	QuarantineDir string
	Rate          float64
	Seed          int64
}

// Register installs the guard flags on fs.
func (f *Guard) Register(fs *flag.FlagSet) {
	fs.DurationVar(&f.StageDeadline, "stage-deadline", 0,
		"wall-clock deadline per guarded stage invocation (0 disables)")
	fs.Int64Var(&f.InterpSteps, "interp-steps", 0,
		"interpreter step budget for execution stages (0 = package defaults)")
	fs.StringVar(&f.QuarantineDir, "quarantine-dir", "",
		"directory for minimized reproducers of contained stage failures (empty disables)")
	fs.Float64Var(&f.Rate, "chaos", 0,
		"deterministic fault-injection rate in [0,1] (0 disables; testing only)")
	fs.Int64Var(&f.Seed, "chaos-seed", 1,
		"seed for the chaos injection schedule")
}

// Build assembles the guard the flags describe, or nil when every knob
// is off (a nil guard still contains panics at the built-in backstops).
func (f *Guard) Build(metrics *obs.Registry, warn func(string)) *guard.Guard {
	if f.StageDeadline == 0 && f.InterpSteps == 0 && f.QuarantineDir == "" && f.Rate == 0 {
		return nil
	}
	opts := guard.Options{
		StageDeadline: f.StageDeadline,
		InterpSteps:   f.InterpSteps,
		QuarantineDir: f.QuarantineDir,
		Metrics:       metrics,
		Warn:          warn,
	}
	if f.Rate > 0 {
		opts.Injector = chaos.New(chaos.Options{Seed: f.Seed, Rate: f.Rate})
	}
	return guard.New(opts)
}
