package fuzz

import (
	"testing"

	"github.com/hetero/heterogen/internal/chaos"
	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/guard"
)

// TestCampaignAllExecsCrashingStillReturns pins the worst case: every
// execution panics, yet the campaign terminates with a structured
// result (the seed corpus, zero coverage) instead of a process panic.
func TestCampaignAllExecsCrashingStillReturns(t *testing.T) {
	opts := Options{
		Seed: 1, MaxExecs: 60, Plateau: 30, TypedMutation: true,
		Guard: guard.New(guard.Options{Injector: chaos.Always(guard.StageInterp, guard.ClassPanic)}),
	}
	camp, err := Run(cparser.MustParse(branchy), "kernel", opts)
	if err != nil {
		t.Fatal(err)
	}
	if camp.StageFailures == 0 {
		t.Fatal("no stage failures recorded")
	}
	if camp.Coverage != 0 {
		t.Errorf("coverage %v from executions that never ran", camp.Coverage)
	}
}
