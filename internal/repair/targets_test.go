package repair

import (
	"context"
	"reflect"
	"testing"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/evalcache"
	"github.com/hetero/heterogen/internal/hls"
)

// The target-set determinism suite: multi-target mode must inherit
// every determinism contract the legacy search ships with — explicit
// single default target is byte-identical to no target at all, results
// and traces are Workers-invariant, and the cache changes wall-clock
// only. These are the parity halves of the api_redesign acceptance.

func mustTargets(t *testing.T, specs ...string) []hls.Target {
	t.Helper()
	targets, err := hls.ParseTargets(specs)
	if err != nil {
		t.Fatal(err)
	}
	return targets
}

// paritySubjects mirrors TestParallelSearchDeterminism's coverage:
// a fast subset under -short, all ten evaluation subjects otherwise.
func paritySubjects() []string {
	if testing.Short() {
		return []string{"P1", "P2", "P3", "P6"}
	}
	return []string{"P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10"}
}

// TestSingleDefaultTargetParity: spelling out Options.Targets =
// [default target] is the same search as leaving Targets empty — it
// reproduces the untargeted golden's Result and trace byte for byte.
// The only additions are the one-row verdict table and the Pareto
// archive.
func TestSingleDefaultTargetParity(t *testing.T) {
	for _, id := range paritySubjects() {
		t.Run(id, func(t *testing.T) {
			c := goldenCase{subject: id}
			targeted, trace := runGolden(t, c, func(o *Options) {
				o.Targets = []hls.Target{hls.DefaultTarget()}
			})
			if len(targeted.PerTarget) != 1 {
				t.Fatalf("targeted search has %d verdicts, want 1", len(targeted.PerTarget))
			}
			v := targeted.PerTarget[0]
			if v.Target != hls.DefaultTarget().String() {
				t.Errorf("verdict target = %q, want the default target", v.Target)
			}
			if v.Compatible != targeted.Compatible || v.BehaviorOK != targeted.BehaviorOK {
				t.Errorf("verdict %+v disagrees with the scalar result %v/%v",
					v, targeted.Compatible, targeted.BehaviorOK)
			}
			targeted.PerTarget, targeted.Pareto = nil, nil
			assertGolden(t, c, "explicit default target", targeted, trace)
		})
	}
}

// TestMultiTargetWorkersParity extends the Workers determinism
// contract to multi-target mode: result, verdict table, Pareto set,
// and trace are all bit-identical for any worker count.
func TestMultiTargetWorkersParity(t *testing.T) {
	targets := mustTargets(t, "vivado_hls:xcvu9p", "vivado_hls:zc706", "vitis:aws_f1")
	for _, id := range paritySubjects() {
		t.Run(id, func(t *testing.T) {
			orig, initial, kernel, tests := subjectInputs(t, id)

			seqOpts := DefaultOptions()
			seqOpts.Targets = targets
			seq, seqTrace := tracedSearch(orig, cast.CloneUnit(initial), kernel, tests, seqOpts)

			parOpts := DefaultOptions()
			parOpts.Targets = targets
			parOpts.Workers = 4
			par, parTrace := tracedSearch(orig, cast.CloneUnit(initial), kernel, tests, parOpts)

			assertIdentical(t, id, seq, par)
			assertTracesIdentical(t, id, seqTrace, parTrace)
			if !reflect.DeepEqual(seq.PerTarget, par.PerTarget) {
				t.Errorf("verdict tables diverge:\n  seq: %+v\n  par: %+v", seq.PerTarget, par.PerTarget)
			}
			if !reflect.DeepEqual(seq.Pareto, par.Pareto) {
				t.Errorf("pareto sets diverge: %d vs %d points", len(seq.Pareto), len(par.Pareto))
			}
		})
	}
}

// TestMultiTargetCacheParity: disabled, cold, and warm cache runs of
// the same multi-target search produce bit-identical results and
// traces — the cache can only change wall-clock, never a verdict.
func TestMultiTargetCacheParity(t *testing.T) {
	targets := mustTargets(t, "vivado_hls:xcvu9p", "vitis:aws_f1")
	for _, id := range paritySubjects() {
		t.Run(id, func(t *testing.T) {
			orig, initial, kernel, tests := subjectInputs(t, id)

			base := DefaultOptions()
			base.Targets = targets
			plain, plainTrace := tracedSearch(orig, cast.CloneUnit(initial), kernel, tests, base)

			cache, err := evalcache.New(evalcache.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cached := base
			cached.Cache = cache
			cold, coldTrace := tracedSearch(orig, cast.CloneUnit(initial), kernel, tests, cached)
			before := cache.Stats()
			warm, warmTrace := tracedSearch(orig, cast.CloneUnit(initial), kernel, tests, cached)
			if cache.Stats().Sub(before).Hits() == 0 {
				t.Fatal("warm multi-target run never hit the cache")
			}

			assertIdentical(t, "cold", plain, cold)
			assertIdentical(t, "warm", plain, warm)
			assertTracesIdentical(t, "cold", plainTrace, coldTrace)
			assertTracesIdentical(t, "warm", plainTrace, warmTrace)
			if !reflect.DeepEqual(plain.PerTarget, cold.PerTarget) || !reflect.DeepEqual(plain.PerTarget, warm.PerTarget) {
				t.Error("verdict tables diverge across cache modes")
			}
			if !reflect.DeepEqual(plain.Pareto, cold.Pareto) || !reflect.DeepEqual(plain.Pareto, warm.Pareto) {
				t.Error("pareto sets diverge across cache modes")
			}
		})
	}
}

// TestCrossDeviceCacheKeying: target-keyed verdicts must not leak
// across devices. A search on zc706 against a cache warmed on xcvu9p is
// compared with the same search on a fresh cache (a search also hits
// its own stores when it revisits a candidate, so raw hit counts
// overcount carryover). Only StageSim resource estimates, which are
// target-free by design (evalcache.ResourceKey), may carry over.
func TestCrossDeviceCacheKeying(t *testing.T) {
	orig, initial, kernel, tests := subjectInputs(t, "P3")
	warmup, target := mustTargets(t, "vivado_hls:xcvu9p"), mustTargets(t, "vivado_hls:zc706")
	search := func(warm bool) evalcache.Stats {
		cache, err := evalcache.New(evalcache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Cache = cache
		if warm {
			opts.Targets = warmup
			SearchContext(context.Background(), orig, cast.CloneUnit(initial), kernel, tests, opts)
		}
		opts.Targets = target
		before := cache.Stats()
		SearchContext(context.Background(), orig, cast.CloneUnit(initial), kernel, tests, opts)
		return cache.Stats().Sub(before)
	}
	solo, crossed := search(false), search(true)
	if crossed.Stages[evalcache.StageCheck].Misses == 0 {
		t.Fatal("cross-device search never missed the check stage; device keying is broken")
	}
	for _, stage := range evalcache.Stages() {
		if stage == evalcache.StageSim {
			continue
		}
		if got, want := crossed.Stages[stage].Hits, solo.Stages[stage].Hits; got != want {
			t.Errorf("%s: %d hits after an xcvu9p warm-up, %d on a fresh cache; verdicts leaked across devices",
				stage, got, want)
		}
	}
	if crossed.Stages[evalcache.StageSim].Hits <= solo.Stages[evalcache.StageSim].Hits {
		t.Error("no resource estimate carried over; StageSim keys should be target-free")
	}
}
