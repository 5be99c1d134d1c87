package repair

import (
	"context"
	"testing"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/chaos"
	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/guard"
)

// TestSearchSurvivesCrashingCandidates is the degraded-mode contract: a
// candidate whose stage evaluation crashes (here: probabilistic chaos
// panics and deadline faults in the checker and differential test) must
// become a rejected candidate with a recorded reason — the search runs
// to completion, and because failure decisions are content-keyed, the
// Result and trace stay bit-identical for any Workers value.
func TestSearchSurvivesCrashingCandidates(t *testing.T) {
	newGuard := func() *guard.Guard {
		return guard.New(guard.Options{
			Injector: chaos.New(chaos.Options{
				Seed:   5,
				Rate:   0.3,
				Stages: []guard.Stage{guard.StageCheck, guard.StageDifftest},
				Kinds:  []guard.Class{guard.ClassPanic, guard.ClassDeadline},
			}),
		})
	}
	orig := cparser.MustParse(treeKernel)
	run := func(workers int) (Result, []byte) {
		opts := DefaultOptions()
		opts.Workers = workers
		// One guard per run: its once-per-(stage,class) bookkeeping is
		// instance state, and sharing it across runs would be fine but
		// makes failure attribution in this test murkier.
		opts.Guard = newGuard()
		return tracedSearch(orig, cparser.MustParse(treeKernel), "kernel", treeTests(), opts)
	}

	seq, seqTrace := run(1)
	if seq.Stats.StageFailures == 0 {
		t.Fatal("chaos at rate 0.3 contained no stage failures — the test exercises nothing")
	}
	for _, workers := range []int{4, 8} {
		par, parTrace := run(workers)
		assertIdentical(t, "chaos/workers", seq, par)
		assertTracesIdentical(t, "chaos/workers", seqTrace, parTrace)
		if par.Stats.StageFailures != seq.Stats.StageFailures {
			t.Errorf("workers=%d: %d stage failures vs %d sequential",
				workers, par.Stats.StageFailures, seq.Stats.StageFailures)
		}
	}
}

// TestSearchAllCandidatesCrashingStillReturns pins the worst case: with
// every checker invocation panicking, the search must finish, reject
// everything with a stage-failure reason, and hand back the initial
// version rather than abort.
func TestSearchAllCandidatesCrashingStillReturns(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxIterations = 6
	opts.Guard = guard.New(guard.Options{Injector: chaos.Always(guard.StageCheck, guard.ClassPanic)})
	orig := cparser.MustParse(treeKernel)
	initial := cparser.MustParse(treeKernel)
	res := SearchContext(context.Background(), orig, initial, "kernel", treeTests(), opts)
	if res.Compatible {
		t.Error("nothing can pass a crashing checker")
	}
	if res.Stats.StageFailures == 0 {
		t.Error("no stage failures recorded")
	}
	if res.Stats.AcceptedCandidates != 0 {
		t.Errorf("%d candidates accepted under a crashing checker", res.Stats.AcceptedCandidates)
	}
	if cast.Print(res.Unit) != cast.Print(initial) {
		t.Error("best version should remain the initial program")
	}
}
