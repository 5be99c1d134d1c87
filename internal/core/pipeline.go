// Package core orchestrates the five-stage HeteroGen pipeline of Figure 1:
//
//  1. test input generation (coverage-guided fuzzing of the kernel),
//  2. initial HLS version generation (bitwidth profiling -> P_broken),
//  3. repair localization (HLS diagnostics -> error classes),
//  4. repair-space exploration (dependence-guided edit chains), and
//  5. fitness evaluation (differential testing + simulated latency),
//
// iterating 3-5 under a virtual time budget.
package core

import (
	"context"
	"fmt"
	"time"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/evalcache"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/guard"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/hls/check"
	"github.com/hetero/heterogen/internal/hls/sim"
	"github.com/hetero/heterogen/internal/obs"
	"github.com/hetero/heterogen/internal/profile"
	"github.com/hetero/heterogen/internal/repair"
	"github.com/hetero/heterogen/internal/stage"
)

// Options configures a pipeline run. A setting that more than one
// stage reads lives here; a setting that one stage reads lives in that
// stage's options, where an unset field means the paper's value.
type Options struct {
	// Kernel names the function to transpile (the design's top function).
	Kernel string
	// HostMain optionally names a host entry point used to capture
	// kernel-entry seed inputs.
	HostMain string
	// Fuzz configures test generation (see fuzz.Options).
	Fuzz fuzz.Options
	// Repair configures the search (see repair.Options).
	Repair repair.Options
	// SkipProfile disables bitwidth finitization (ablation).
	SkipProfile bool
	// Targets names the (backend, device) set the design must fit — the
	// target-set API. Empty means the default target (the paper's
	// evaluation platform), capacity gate included. Check/Simulate
	// resolve their config and capacity table from Targets[0]'s profile,
	// and unknown backend or device names fail fast with an explicit
	// error. Naming targets adds the per-device verdict table and Pareto
	// archive to the Result (see repair.SearchContext), and traces of a
	// single named target are byte-identical to untargeted ones.
	Targets []hls.Target
	// Workers bounds concurrent candidate evaluation in the repair
	// search (see repair.Options.Workers). Results are bit-identical
	// for any value; 0 leaves Repair.Workers untouched.
	Workers int
	// ExtraTests are appended to the generated suite (e.g. a subject's
	// pre-existing tests).
	ExtraTests []fuzz.TestCase
	// Obs receives structured events for the whole run: pipeline phase
	// brackets plus everything the fuzzer and the repair search emit
	// (see internal/obs). Nil disables observation.
	Obs obs.Observer
	// Cache, when non-nil, memoizes the expensive toolchain verdicts —
	// fuzz campaigns, synthesizability checks, resource estimates,
	// differential tests — across candidates and across runs (see
	// internal/evalcache). Hits skip real recomputation but charge
	// identical virtual costs in identical order, so Result (bar
	// CacheStats) and traces are byte-identical whether the cache is
	// disabled, cold, or warm. Nil disables caching.
	Cache *evalcache.Cache
	// Guard is the failure-containment layer wrapped around every
	// expensive stage call (parse, final print, synthesizability checks,
	// resource estimation, kernel executions, differential tests). Its
	// InterpSteps budget, when set, bounds every fuzz and difftest
	// execution. Nil still contains panics (guard.Do is nil-safe) but
	// has no deadlines, injection, or quarantine.
	Guard *guard.Guard
}

// env is the environment every stage of a run shares.
func (o Options) env() stage.Env {
	return stage.Env{Obs: o.Obs, Cache: o.Cache, Guard: o.Guard}
}

// Result is the full pipeline outcome.
type Result struct {
	// Original is the parsed input program.
	Original *cast.Unit
	// Initial is the bitwidth-profiled starting version (P_broken).
	Initial *cast.Unit
	// Final is the repaired HLS-C version.
	Final *cast.Unit
	// HLS source text of the final version.
	Source string

	Campaign fuzz.Campaign
	Profiled profile.Result
	Repair   repair.Result

	// Compatible / BehaviorOK / Improved summarize §6.1's three criteria.
	Compatible bool
	BehaviorOK bool
	Improved   bool
	// DeltaLOC is the paper's edit-size metric.
	DeltaLOC int
	// OriginalLOC counts the input program.
	OriginalLOC int
	// CPUMeanMS / FPGAMeanMS are the Table 5 runtime columns.
	CPUMeanMS  float64
	FPGAMeanMS float64
	// Resources estimates fabric utilization of the final design.
	Resources sim.Resources
	// PerTarget is the final design's per-device verdict table and
	// Pareto the search's latency/resource archive (runs that named
	// their targets only; both nil on untargeted runs).
	PerTarget []repair.TargetVerdict
	Pareto    []repair.ParetoPoint
	// CacheStats is the evaluation-cache activity attributable to this
	// run (all zero when Options.Cache was nil). It is reported out of
	// band — never in traces, and excluded from the cache-parity
	// contract: hit counts legitimately vary with Workers because
	// speculative evaluations consult the cache too.
	CacheStats evalcache.Stats
}

// Run executes the pipeline over C source text.
func Run(src string, opts Options) (Result, error) {
	return RunContext(context.Background(), src, opts)
}

// RunContext is Run with cooperative cancellation — see RunUnitContext
// for the partial-result semantics.
func RunContext(ctx context.Context, src string, opts Options) (Result, error) {
	orig, err := parse(src, opts.Guard)
	if err != nil {
		return Result{}, err
	}
	return RunUnitContext(ctx, orig, opts)
}

// RunUnitContext executes the pipeline over a parsed unit with
// cooperative cancellation. The context is checked at phase boundaries
// here and at commit points inside the fuzzer and the repair search
// (between executions and candidate evaluations, never mid-verdict). On
// cancellation the returned Result is the best-so-far partial outcome —
// the corpus gathered, the most advanced program version reached, its
// repair log — alongside an error wrapping ctx.Err(), so
// errors.Is(err, context.Canceled) distinguishes cancellation from real
// failures.
func RunUnitContext(ctx context.Context, orig *cast.Unit, opts Options) (Result, error) {
	targets, err := validate(orig, opts)
	if err != nil {
		return Result{}, err
	}
	res := Result{Original: orig, OriginalLOC: cast.CountLines(orig)}
	cacheStart := opts.Cache.Stats()
	finish := func() { res.CacheStats = opts.Cache.Stats().Sub(cacheStart) }
	o := obs.OrNop(opts.Obs)
	tracing := obs.Enabled(opts.Obs)
	pipelineVirtual := 0.0
	phase := func(name string) func(virtualDelta float64) {
		if !tracing {
			return func(float64) {}
		}
		o.Emit(obs.Event{Type: obs.EvPhaseStart, Virtual: pipelineVirtual,
			Phase: &obs.PhaseEvent{Name: name}})
		t0 := time.Now()
		return func(virtualDelta float64) {
			pipelineVirtual += virtualDelta
			o.Emit(obs.Event{Type: obs.EvPhaseEnd, Virtual: pipelineVirtual,
				Phase: &obs.PhaseEvent{Name: name, VirtualDelta: virtualDelta,
					WallNS: time.Since(t0).Nanoseconds()}})
		}
	}

	// Stage 1: test input generation.
	endFuzz := phase("fuzz")
	camp, err := fuzz.RunContext(ctx, opts.env(), orig, opts.Kernel, opts.HostMain, opts.Fuzz)
	if err != nil {
		finish()
		return res, fmt.Errorf("heterogen: test generation: %w", err)
	}
	endFuzz(camp.VirtualSeconds)
	res.Campaign = camp
	tests := append([]fuzz.TestCase{}, camp.Tests...)
	tests = append(tests, opts.ExtraTests...)
	if err := ctx.Err(); err != nil {
		res.Final = orig
		res.Source = cast.Print(orig)
		finish()
		return res, fmt.Errorf("heterogen: cancelled during test generation: %w", err)
	}

	// Stage 2: initial HLS version with estimated types.
	endProfile := phase("profile")
	initial, prof := initialVersion(orig, tests, opts)
	endProfile(0) // bitwidth profiling is free in the virtual-cost model
	res.Profiled = prof
	res.Initial = initial
	if err := ctx.Err(); err != nil {
		res.Final = initial
		res.Source = cast.Print(initial)
		finish()
		return res, fmt.Errorf("heterogen: cancelled before repair: %w", err)
	}

	// Stages 3-5: iterative repair.
	endRepair := phase("repair")
	rr := repair.SearchContext(ctx, opts.env(), orig, initial, opts.Kernel, tests, targets, repairOptions(opts))
	endRepair(rr.Stats.VirtualSeconds)
	res.Repair = rr
	res.Final = rr.Unit
	res.Compatible = rr.Compatible
	res.BehaviorOK = rr.BehaviorOK
	res.Improved = rr.Improved
	res.PerTarget = rr.PerTarget
	res.Pareto = rr.Pareto
	res.DeltaLOC = repair.EditedLines(orig, rr.Unit)
	res.CPUMeanMS = rr.Report.CPUMeanMS()
	res.FPGAMeanMS = rr.Report.FPGAMeanMS()
	// The final print is guarded: a printer panic on the repaired design
	// is a hard failure (there is no HLS source to hand back), reported
	// as a typed error instead of a crash.
	src, perr := guard.Do(opts.Guard,
		guard.Invocation{Stage: guard.StagePrint, Key: "print|" + opts.Kernel, Unit: rr.Unit},
		func(cu *cast.Unit) (string, error) {
			return cast.Print(cu), nil
		})
	if perr != nil {
		finish()
		return res, fmt.Errorf("heterogen: print: %w", perr)
	}
	res.Source = src
	est, eerr := estimateResources(opts.Cache, opts.Guard, rr.Unit)
	if eerr != nil {
		// Estimation is reporting-only at this point: degrade to a zero
		// estimate with a warning instead of discarding the repair.
		if tracing {
			o.Emit(obs.Event{Type: obs.EvWarning, Virtual: pipelineVirtual,
				Warn: fmt.Sprintf("resource estimation failed: %v", eerr)})
		}
	}
	res.Resources = est
	finish()
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("heterogen: cancelled during repair: %w", err)
	}
	return res, nil
}

// initialVersion is stage 2, the repair search's starting version:
// orig bitwidth-profiled on tests, with the profile that produced it,
// or a plain clone of orig (and a zero profile) under SkipProfile or
// when profiling fails.
func initialVersion(orig *cast.Unit, tests []fuzz.TestCase, opts Options) (*cast.Unit, profile.Result) {
	if !opts.SkipProfile {
		if prof, err := profile.Generate(orig, opts.Kernel, tests); err == nil {
			return prof.Unit, prof
		}
	}
	return cast.CloneUnit(orig), profile.Result{}
}

// parse is the guarded parse every entry point starts with. The parser
// is guarded on the source text itself (there is no unit yet to
// quarantine): a contained parser panic or an injected fault surfaces
// as a typed *guard.StageFailure error instead of killing the process.
func parse(src string, g *guard.Guard) (*cast.Unit, error) {
	u, err := guard.Do(g, guard.Invocation{Stage: guard.StageParse, Key: src},
		func(*cast.Unit) (*cast.Unit, error) {
			return cparser.Parse(src)
		})
	if err != nil {
		return nil, fmt.Errorf("heterogen: parse: %w", err)
	}
	return u, nil
}

// validate checks what every kernel-driven entry point needs before it
// runs: a kernel that u defines and targets that all resolve. It
// returns the resolved target set, nil for an untargeted call.
func validate(u *cast.Unit, opts Options) ([]hls.ResolvedTarget, error) {
	if opts.Kernel == "" {
		return nil, fmt.Errorf("heterogen: no kernel specified")
	}
	if u.Func(opts.Kernel) == nil {
		return nil, fmt.Errorf("heterogen: kernel %q not found", opts.Kernel)
	}
	if len(opts.Targets) == 0 {
		return nil, nil
	}
	targets, err := hls.ResolveTargets(opts.Targets)
	if err != nil {
		return nil, fmt.Errorf("heterogen: %w", err)
	}
	return targets, nil
}

// repairOptions is opts.Repair with Workers overridden when set.
func repairOptions(opts Options) repair.Options {
	ropts := opts.Repair
	if opts.Workers != 0 {
		ropts.Workers = opts.Workers
	}
	return ropts
}

// estimateResources is sim.Estimate through the cache and the guard.
// It keys by fingerprint exactly as the repair search's device-capacity
// gate does, so the final design's estimate is usually already present.
// The only possible error is a contained *guard.StageFailure.
func estimateResources(c *evalcache.Cache, g *guard.Guard, u *cast.Unit) (sim.Resources, error) {
	return evalcache.Memo(c, evalcache.StageSim,
		func() string { return evalcache.ResourceKey(cast.FingerprintUnit(u)) },
		func(key string) (sim.Resources, error) {
			return guard.Do(g, guard.Invocation{Stage: guard.StageEstimate, Key: key, Unit: u},
				func(cu *cast.Unit) (sim.Resources, error) {
					return sim.Estimate(cu), nil
				})
		})
}

// TargetReport pairs one target with its checker verdict.
type TargetReport struct {
	Target string
	Report hls.Report
}

// Check runs only the synthesizability-checker stage, once per target in
// opts.Targets (the default target when empty), each under its own
// config, diagnostic dialect, and cache key. It takes the same option
// struct as the other entry points: Kernel names the top function, Obs
// receives one hls_check event per target, Cache memoizes the verdicts,
// Guard contains checker failures; the remaining fields are ignored. A
// cache hit emits the identical event a fresh check would. Unknown
// target names fail with an explicit error.
func Check(src string, opts Options) ([]TargetReport, error) {
	u, err := parse(src, opts.Guard)
	if err != nil {
		return nil, err
	}
	targets, err := hls.ResolveTargets(opts.Targets)
	if err != nil {
		return nil, fmt.Errorf("heterogen: %w", err)
	}
	out := make([]TargetReport, len(targets))
	for i, t := range targets {
		rep, err := checkOne(u, t, opts)
		if err != nil {
			return nil, err
		}
		out[i] = TargetReport{Target: t.Name(), Report: rep}
	}
	return out, nil
}

// checkOne is the cached, guarded, observed checker stage for one
// target: its profile provides the config, its backend translates the
// diagnostics before they are reported. The cache holds the
// untranslated report under the repair search's key, so a check finds
// the verdicts a repair already paid for; source positions are not
// content, so a hit reports those of the unit that first produced the
// verdict.
func checkOne(u *cast.Unit, t hls.ResolvedTarget, opts Options) (hls.Report, error) {
	cfg := hls.ConfigFor(opts.Kernel, t.Profile)
	rep, err := evalcache.Memo(opts.Cache, evalcache.StageCheck,
		func() string {
			salt := evalcache.CheckSalt(t.Backend.Name(), cfg.Top, cfg.Device, cfg.ClockMHz)
			return evalcache.CheckKey(salt, cast.FingerprintUnit(u))
		},
		func(string) (hls.Report, error) {
			return guard.Do(opts.Guard, guard.Invocation{Stage: guard.StageCheck, Unit: u},
				func(cu *cast.Unit) (hls.Report, error) {
					return check.Run(cu, cfg), nil
				})
		})
	if err != nil {
		return hls.Report{}, err
	}
	for i := range rep.Diags {
		rep.Diags[i] = t.Backend.Translate(rep.Diags[i])
	}
	check.Observe(opts.Obs, cfg, rep)
	return rep, nil
}

// SimReport is the outcome of the standalone simulation stage: the
// design's resource estimate and its fit on every requested target's
// device. Estimates are meaningful even for non-synthesizable designs;
// Check gives the verdict. Latency is not reported here because
// simulating it requires a test suite — use the differential-test stage
// or the full pipeline for that.
type SimReport struct {
	// Resources estimates fabric utilization.
	Resources sim.Resources
	// PerTarget is the capacity verdict for every requested target.
	PerTarget []TargetFit
}

// TargetFit is one target's capacity verdict in a SimReport.
type TargetFit struct {
	// Target is the canonical "backend:device" name.
	Target string
	// Device is the target's registered profile.
	Device hls.DeviceProfile
	// Fits / Over is the gate outcome; Utilization renders the estimate
	// against this device.
	Fits        bool
	Over        []string
	Utilization string
}

// Simulate runs only the FPGA-simulator stage: estimate the design's
// fabric resources and gate them against every requested target's
// device profile (the default evaluation part when opts.Targets is
// empty). The capacity table comes from the named profile — an unknown
// backend or device name is an explicit error, never a silent fall-back
// to the default part. Targets, Cache, and Guard are honoured from
// opts; the remaining fields are ignored.
func Simulate(src string, opts Options) (SimReport, error) {
	u, err := parse(src, opts.Guard)
	if err != nil {
		return SimReport{}, err
	}
	targets, err := hls.ResolveTargets(opts.Targets)
	if err != nil {
		return SimReport{}, fmt.Errorf("heterogen: %w", err)
	}
	res, err := estimateResources(opts.Cache, opts.Guard, u)
	if err != nil {
		return SimReport{}, err
	}
	out := SimReport{Resources: res}
	for _, t := range targets {
		fits, over := sim.CheckCapacity(res, t.Profile.Cap)
		out.PerTarget = append(out.PerTarget, TargetFit{
			Target:      t.Name(),
			Device:      t.Profile,
			Fits:        fits,
			Over:        over,
			Utilization: sim.Utilization(res, t.Profile.Cap),
		})
	}
	return out, nil
}

// RepairStage runs only the repair stage: bitwidth-profile the parsed
// program (unless SkipProfile) and search for a compatible HLS version
// against the original as behaviour oracle, with opts.ExtraTests as
// the test suite — the pipeline minus test generation, for callers
// that bring their own tests (an empty suite still repairs toward
// synthesizability; there is just no behaviour signal). Kernel,
// Repair, Workers, Targets, Obs, Cache and Guard are honoured; Fuzz
// and HostMain are ignored.
func RepairStage(src string, opts Options) (repair.Result, error) {
	return RepairStageContext(context.Background(), src, opts)
}

// RepairStageContext is RepairStage with cooperative cancellation. The
// context is checked between candidate evaluations, never mid-verdict;
// a cancelled search returns the best version reached so far (the
// repair.Result is always valid) alongside an error wrapping ctx.Err().
func RepairStageContext(ctx context.Context, src string, opts Options) (repair.Result, error) {
	orig, err := parse(src, opts.Guard)
	if err != nil {
		return repair.Result{}, err
	}
	targets, err := validate(orig, opts)
	if err != nil {
		return repair.Result{}, err
	}
	tests := opts.ExtraTests
	initial, _ := initialVersion(orig, tests, opts)
	rr := repair.SearchContext(ctx, opts.env(), orig, initial, opts.Kernel, tests, targets, repairOptions(opts))
	if err := ctx.Err(); err != nil {
		return rr, fmt.Errorf("heterogen: cancelled during repair: %w", err)
	}
	return rr, nil
}

// FuzzStage runs only the test-generation stage (Algorithm 1): a
// coverage-guided campaign against opts.Kernel, configured by
// opts.Fuzz, with HostMain, Obs, Cache and Guard honoured; the
// remaining fields are ignored bar the target names, which are
// validated as everywhere else. It emits no phase events. The context is checked between
// executions, never mid-run; a cancelled campaign returns the corpus
// gathered so far with a nil error (a partial campaign is still a
// usable test suite), so callers that must distinguish inspect
// ctx.Err.
func FuzzStage(ctx context.Context, src string, opts Options) (fuzz.Campaign, error) {
	u, err := parse(src, opts.Guard)
	if err != nil {
		return fuzz.Campaign{}, err
	}
	if _, err := validate(u, opts); err != nil {
		return fuzz.Campaign{}, err
	}
	camp, err := fuzz.RunContext(ctx, opts.env(), u, opts.Kernel, opts.HostMain, opts.Fuzz)
	if err != nil {
		return camp, fmt.Errorf("heterogen: test generation: %w", err)
	}
	return camp, nil
}

// Summary renders the §6.1-style one-line verdict.
func (r Result) Summary() string {
	comp := "✗"
	if r.Compatible && r.BehaviorOK {
		comp = "✓"
	}
	perf := "✗"
	if r.Improved {
		perf = "✓"
	}
	s := fmt.Sprintf("compat=%s perf=%s tests=%d cov=%.0f%% ΔLOC=%d cpu=%.3fms fpga=%.3fms",
		comp, perf, len(r.Campaign.Tests), 100*r.Campaign.Coverage,
		r.DeltaLOC, r.CPUMeanMS, r.FPGAMeanMS)
	// Cache activity is appended only when a cache was actually
	// consulted, so summaries of uncached runs are unchanged.
	if h, m := r.CacheStats.Hits(), r.CacheStats.Misses(); h+m > 0 {
		s += fmt.Sprintf(" cache=%dh/%dm", h, m)
	}
	return s
}
