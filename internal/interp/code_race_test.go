package interp_test

// Concurrency belt for the shared compiled-code cache: a single
// Codebase is pounded from many goroutines executing many programs in
// both modes at once, and every execution must still hash to its
// recorded belt outcome. Run under `go test -race` (the
// interp-diff-smoke CI job does) this doubles as the data-race proof
// for structure-sharing candidates evaluating concurrently against one
// compiled-code cache.

import (
	"sync"
	"testing"

	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/interp"
	"github.com/hetero/heterogen/internal/progen"
)

func TestCodebaseSharedConcurrently(t *testing.T) {
	const programs = 24
	const goroutines = 8

	type job struct {
		prog progen.Program
		tc   fuzz.TestCase
		opts interp.Options
		want string
	}
	belt := readBelt(t)
	var jobs []job
	for seed := 0; seed < programs; seed++ {
		prog, tc := beltProgram(t, seed)
		for i, r := range beltRuns {
			if r.maxSteps == 0 {
				jobs = append(jobs, job{prog, tc, beltOptions(r.mode, 0), belt[seed][i]})
			}
		}
	}

	code := interp.NewCodebase()
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine walks the job list from a different offset so
			// compilations of the same function race from the first round.
			for i := 0; i < len(jobs); i++ {
				j := jobs[(i+g*5)%len(jobs)]
				opts := j.opts
				opts.Code = code
				if got := diffOutcome(j.prog.Unit, j.prog.Kernel, j.tc.Values(), opts); outcomeHash(got) != j.want {
					select {
					case errs <- j.prog.Kernel + ": outcome under contention no longer hashes to the recorded " + j.want + ":\n" + got:
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if code.Size() == 0 {
		t.Fatal("shared codebase compiled nothing")
	}
	t.Logf("shared codebase: %d compiled functions across %d jobs x %d goroutines",
		code.Size(), len(jobs), goroutines)
}
