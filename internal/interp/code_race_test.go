package interp_test

// Concurrency belt for the shared compiled-code cache: a single
// Codebase is pounded from many goroutines executing many programs in
// both modes at once, and every execution must still match the
// tree-walker outcome computed up front. Run under `go test -race`
// (the interp-diff-smoke CI job does) this doubles as the data-race
// proof for structure-sharing candidates evaluating concurrently
// against one compiled-code cache.

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
		prog *progen.Program
		tc   fuzz.TestCase
		mode interp.Mode
		want string
	}
	var jobs []job
	for seed := 0; seed < programs; seed++ {
		prog, err := progen.Generate(progen.Options{Seed: int64(seed), Clean: seed%2 == 0})
		if err != nil {
			continue
		}
		sp, err := fuzz.SpecOf(prog.Unit, prog.Kernel)
		if err != nil {
			continue
		}
		tc := diffCase(sp, int64(seed))
		p := &prog
		for _, mode := range []interp.Mode{interp.CPU, interp.FPGA} {
			opts := interp.Options{Mode: mode, Coverage: true, Profile: true}
			jobs = append(jobs, job{p, tc.Clone(), mode, diffOutcome(p.Unit, p.Kernel, tc.Values(), opts)})
		}
	}
	if len(jobs) < programs {
		t.Fatalf("only %d jobs generated", len(jobs))
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
				opts := interp.Options{Mode: j.mode, Coverage: true, Profile: true, Code: code}
				if got := diffOutcome(j.prog.Unit, j.prog.Kernel, j.tc.Values(), opts); got != j.want {
					select {
					case errs <- j.prog.Kernel + ": compiled outcome diverged under contention:\n--- tree ---\n" + j.want + "\n--- vm ---\n" + got:
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
	t.Logf("shared codebase: %d compiled functions (%d fallbacks) across %d jobs x %d goroutines",
		code.Size(), code.Fallbacks(), len(jobs), goroutines)
}
