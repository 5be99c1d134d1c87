package repair

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/evalcache"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/obs"
)

// candCanceller cancels a context after the Nth committed candidate
// event — a deterministic interrupt at a real commit point, exactly
// where cooperative cancellation (and a drain) stops a search.
type candCanceller struct {
	remaining int
	cancel    context.CancelFunc
}

func (c *candCanceller) Emit(e obs.Event) {
	if e.Type != obs.EvCandidate {
		return
	}
	c.remaining--
	if c.remaining == 0 {
		c.cancel()
	}
}

// tracedSearchCtx is tracedSearch with a caller context.
func tracedSearchCtx(ctx context.Context, orig, initial *cast.Unit, kernel string, tests []fuzz.TestCase, opts searchOpts, extra obs.Observer) (Result, []byte) {
	var buf bytes.Buffer
	tw := obs.NewTraceWriter(&buf)
	if extra != nil {
		opts.env.Obs = obs.Multi(tw, extra)
	} else {
		opts.env.Obs = tw
	}
	res := search(ctx, orig, initial, kernel, tests, opts)
	if err := tw.Flush(); err != nil {
		panic(err)
	}
	return res, buf.Bytes()
}

// assertRemainingIdentical extends assertIdentical to the Remaining
// diagnostics, which ride through checkpoint serialization.
func assertRemainingIdentical(t *testing.T, name string, want, got Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Remaining, got.Remaining) {
		t.Errorf("%s: remaining diagnostics diverge:\n  want: %+v\n  got:  %+v", name, want.Remaining, got.Remaining)
	}
	if !reflect.DeepEqual(want.PerTarget, got.PerTarget) {
		t.Errorf("%s: verdict tables diverge:\n  want: %+v\n  got:  %+v", name, want.PerTarget, got.PerTarget)
	}
	if !reflect.DeepEqual(want.Pareto, got.Pareto) {
		t.Errorf("%s: pareto sets diverge: %d vs %d points", name, len(want.Pareto), len(got.Pareto))
	}
	if !reflect.DeepEqual(want.Report, got.Report) {
		t.Errorf("%s: reports diverge:\n  want: %+v\n  got:  %+v", name, want.Report, got.Report)
	}
}

// TestCheckpointColdParity: turning checkpointing on against a fresh
// log changes nothing — the run that *writes* a checkpoint is
// byte-identical to a run without one, sequential and parallel.
func TestCheckpointColdParity(t *testing.T) {
	for _, id := range paritySubjects() {
		t.Run(id, func(t *testing.T) {
			orig, initial, kernel, tests := subjectInputs(t, id)
			plain, plainTrace := tracedSearch(orig, cast.CloneUnit(initial), kernel, tests, searchOpts{})

			for _, workers := range []int{1, 4} {
				var opts searchOpts
				opts.Workers = workers
				opts.CheckpointPath = filepath.Join(t.TempDir(), "search.ckpt")
				ck, ckTrace := tracedSearch(orig, cast.CloneUnit(initial), kernel, tests, opts)
				name := fmt.Sprintf("%s/workers=%d", id, workers)
				assertIdentical(t, name, plain, ck)
				assertTracesIdentical(t, name, plainTrace, ckTrace)
				assertRemainingIdentical(t, name, plain, ck)
			}
		})
	}
}

// TestCheckpointResumeParity is the crash-recovery contract: interrupt
// a checkpointed search after N committed candidates, then resume it
// from the log with a fresh context — the resumed run's Result AND
// trace must be byte-identical to an uninterrupted run's, across
// worker counts and interrupt depths.
func TestCheckpointResumeParity(t *testing.T) {
	stops := []int{1, 3, 7}
	for _, id := range paritySubjects() {
		t.Run(id, func(t *testing.T) {
			orig, initial, kernel, tests := subjectInputs(t, id)
			control, controlTrace := tracedSearch(orig, cast.CloneUnit(initial), kernel, tests, searchOpts{})

			for _, workers := range []int{1, 4} {
				for _, stop := range stops {
					name := fmt.Sprintf("workers=%d/stop=%d", workers, stop)
					var opts searchOpts
					opts.Workers = workers
					opts.CheckpointPath = filepath.Join(t.TempDir(), "search.ckpt")

					ctx, cancel := context.WithCancel(context.Background())
					interrupted, _ := tracedSearchCtx(ctx, orig, cast.CloneUnit(initial), kernel, tests, opts,
						&candCanceller{remaining: stop, cancel: cancel})
					cancel()
					if interrupted.Stats.CandidatesTried >= control.Stats.CandidatesTried &&
						control.Stats.CandidatesTried > stop {
						t.Fatalf("%s: interrupt did not stop the search early (%d vs %d candidates)",
							name, interrupted.Stats.CandidatesTried, control.Stats.CandidatesTried)
					}

					resumed, resumedTrace := tracedSearch(orig, cast.CloneUnit(initial), kernel, tests, opts)
					assertIdentical(t, name, control, resumed)
					assertTracesIdentical(t, name, controlTrace, resumedTrace)
					assertRemainingIdentical(t, name, control, resumed)
				}
			}
		})
	}
}

// TestCheckpointResumeCacheAndTargets extends resume parity to a warm
// shared cache and a multi-device target set — the hgserve deployment
// shape (P2 and P6 are the multi-target parity subjects).
func TestCheckpointResumeCacheAndTargets(t *testing.T) {
	targets := mustTargets(t, "vivado_hls:xcvu9p", "vivado_hls:zc706", "vitis:aws_f1")
	for _, id := range []string{"P2", "P6"} {
		t.Run(id, func(t *testing.T) {
			orig, initial, kernel, tests := subjectInputs(t, id)

			var base searchOpts
			base.targets = targets
			base.Workers = 4
			control, controlTrace := tracedSearch(orig, cast.CloneUnit(initial), kernel, tests, base)

			cache, err := evalcache.New(evalcache.Options{})
			if err != nil {
				t.Fatal(err)
			}
			opts := base
			opts.env.Cache = cache
			opts.CheckpointPath = filepath.Join(t.TempDir(), "search.ckpt")

			ctx, cancel := context.WithCancel(context.Background())
			tracedSearchCtx(ctx, orig, cast.CloneUnit(initial), kernel, tests, opts,
				&candCanceller{remaining: 4, cancel: cancel})
			cancel()

			// Resume under a different worker count than the interrupted
			// run — the log is worker-agnostic by construction.
			opts.Workers = 1
			resumed, resumedTrace := tracedSearch(orig, cast.CloneUnit(initial), kernel, tests, opts)
			assertIdentical(t, id, control, resumed)
			assertTracesIdentical(t, id, controlTrace, resumedTrace)
			assertRemainingIdentical(t, id, control, resumed)
		})
	}
}

// TestCheckpointStaleKeyDiscarded: a log written under different
// search inputs (here: another seed) must be ignored, not replayed —
// the resumed run equals a fresh run of the new configuration.
func TestCheckpointStaleKeyDiscarded(t *testing.T) {
	orig, initial, kernel, tests := subjectInputs(t, "P2")
	path := filepath.Join(t.TempDir(), "search.ckpt")

	var optsA searchOpts
	optsA.WithoutDependence = true // consults the rng, so Seed matters
	optsA.Seed = 1
	optsA.CheckpointPath = path
	tracedSearch(orig, cast.CloneUnit(initial), kernel, tests, optsA)

	optsB := optsA
	optsB.Seed = 2
	optsB.CheckpointPath = ""
	control, controlTrace := tracedSearch(orig, cast.CloneUnit(initial), kernel, tests, optsB)

	optsB.CheckpointPath = path
	got, gotTrace := tracedSearch(orig, cast.CloneUnit(initial), kernel, tests, optsB)
	assertIdentical(t, "seed-mismatch", control, got)
	assertTracesIdentical(t, "seed-mismatch", controlTrace, gotTrace)
}

// TestCheckpointCorruptTail: a torn final line (the shape a kill -9
// mid-append leaves) is dropped on open; the valid prefix still
// replays and the resumed run stays byte-identical.
func TestCheckpointCorruptTail(t *testing.T) {
	orig, initial, kernel, tests := subjectInputs(t, "P2")
	control, controlTrace := tracedSearch(orig, cast.CloneUnit(initial), kernel, tests, searchOpts{})

	var opts searchOpts
	opts.CheckpointPath = filepath.Join(t.TempDir(), "search.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	tracedSearchCtx(ctx, orig, cast.CloneUnit(initial), kernel, tests, opts,
		&candCanceller{remaining: 5, cancel: cancel})
	cancel()

	data, err := os.ReadFile(opts.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 30 {
		t.Fatalf("checkpoint suspiciously small: %d bytes", len(data))
	}
	// Tear the last line in half (drop the trailing newline and then
	// some) and append garbage for good measure.
	torn := append(data[:len(data)-17], []byte(`{"t":"cand","i":`)...)
	if err := os.WriteFile(opts.CheckpointPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, resumedTrace := tracedSearch(orig, cast.CloneUnit(initial), kernel, tests, opts)
	assertIdentical(t, "torn-tail", control, resumed)
	assertTracesIdentical(t, "torn-tail", controlTrace, resumedTrace)
}

// TestCheckpointResumeSkipsRecomputation proves a resumed run actually
// replays: resuming a *completed* search recomputes no candidate
// evaluations (the style checker and toolchain never run), which is
// the whole point of persisting outcomes.
func TestCheckpointResumeSkipsRecomputation(t *testing.T) {
	orig, initial, kernel, tests := subjectInputs(t, "P2")
	var opts searchOpts
	opts.CheckpointPath = filepath.Join(t.TempDir(), "search.ckpt")
	first, firstTrace := tracedSearch(orig, cast.CloneUnit(initial), kernel, tests, opts)

	// A cache whose misses would count recomputation: on a pure replay
	// the cache is never consulted because computeOutcome never runs.
	cache, err := evalcache.New(evalcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts.env.Cache = cache
	second, secondTrace := tracedSearch(orig, cast.CloneUnit(initial), kernel, tests, opts)
	assertIdentical(t, "full-replay", first, second)
	assertTracesIdentical(t, "full-replay", firstTrace, secondTrace)
	if n := cache.Stats().Misses() + cache.Stats().Hits(); n != 0 {
		t.Errorf("full replay consulted the evaluation cache %d times; want 0 (outcomes must come from the log)", n)
	}
}
