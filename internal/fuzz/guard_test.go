package fuzz

import (
	"context"
	"testing"

	"github.com/hetero/heterogen/internal/chaos"
	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/guard"
	"github.com/hetero/heterogen/internal/stage"
)

// TestCampaignAllExecsCrashingStillReturns pins the worst case: every
// execution panics, yet the campaign terminates with a structured
// result (the seed corpus, zero coverage) instead of a process panic.
func TestCampaignAllExecsCrashingStillReturns(t *testing.T) {
	g := guard.New(guard.Options{Injector: chaos.Always(guard.StageInterp, guard.ClassPanic)})
	camp, err := RunContext(context.Background(), stage.Env{Guard: g}, cparser.MustParse(branchy), "kernel", "",
		Options{MaxExecs: 60, Plateau: 30})
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
