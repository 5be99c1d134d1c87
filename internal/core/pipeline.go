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
	"github.com/hetero/heterogen/internal/difftest"
	"github.com/hetero/heterogen/internal/evalcache"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/guard"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/hls/check"
	"github.com/hetero/heterogen/internal/hls/sim"
	"github.com/hetero/heterogen/internal/obs"
	"github.com/hetero/heterogen/internal/profile"
	"github.com/hetero/heterogen/internal/repair"
)

// Options configures a pipeline run.
type Options struct {
	// Kernel names the function to transpile (the design's top function).
	Kernel string
	// HostMain optionally names a host entry point used to capture
	// kernel-entry seed inputs.
	HostMain string
	// Fuzz configures test generation; zero means fuzz.DefaultOptions.
	Fuzz fuzz.Options
	// Repair configures the search; zero means repair.DefaultOptions.
	Repair repair.Options
	// SkipProfile disables bitwidth finitization (ablation).
	SkipProfile bool
	// Targets names the (backend, device) set the design must fit — the
	// target-set API. Empty means the default target (the paper's
	// evaluation platform), capacity gate included. Check/Simulate
	// resolve their config and capacity table from Targets[0]'s profile,
	// and unknown backend or device names fail fast with an explicit
	// error. It is passed down to Repair.Targets unless that is already
	// set; naming targets adds the per-device verdict table and Pareto
	// archive to the Result (see repair.Options.Targets), and traces of
	// a single named target are byte-identical to untargeted ones.
	Targets []hls.Target
	// Workers bounds concurrent candidate evaluation in the repair
	// search (see repair.Options.Workers). Results are bit-identical
	// for any value; 0 leaves the Repair configuration untouched.
	Workers int
	// ExtraTests are appended to the generated suite (e.g. a subject's
	// pre-existing tests).
	ExtraTests []fuzz.TestCase
	// Obs receives structured events for the whole run: pipeline phase
	// brackets plus everything the fuzzer and the repair search emit
	// (see internal/obs). It is passed down to Fuzz.Obs / Repair.Obs
	// unless those are already set. Nil disables observation.
	Obs obs.Observer
	// Cache, when non-nil, memoizes the expensive toolchain verdicts —
	// fuzz campaigns, synthesizability checks, resource estimates,
	// differential tests — across candidates and across runs (see
	// internal/evalcache). It is passed down to Fuzz.Cache /
	// Repair.Cache unless those are already set. Hits skip real
	// recomputation but charge identical virtual costs in identical
	// order, so Result (bar CacheStats) and traces are byte-identical
	// whether the cache is disabled, cold, or warm. Nil disables
	// caching.
	Cache *evalcache.Cache
	// Guard is the failure-containment layer wrapped around every
	// expensive stage call (parse, final print, synthesizability checks,
	// resource estimation, kernel executions, differential tests). It is
	// passed down to Fuzz.Guard / Repair.Guard unless those are already
	// set, and its InterpSteps budget seeds the fuzzer's per-exec step
	// bound and the repair search's difftest budget when the caller left
	// them unset. Nil still contains panics (guard.Do is nil-safe) but
	// has no deadlines, injection, or quarantine.
	Guard *guard.Guard
	// RepairCheckpoint, when non-empty, names the repair search's
	// write-ahead outcome log (see repair.Options.CheckpointPath): an
	// interrupted run resumed against the same file yields a Result and
	// trace byte-identical to an uninterrupted run. It is passed down to
	// Repair.CheckpointPath unless that is already set. Empty disables
	// checkpointing.
	RepairCheckpoint string
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
	// The parser is guarded on the source text itself (there is no unit
	// yet to quarantine; a contained parser panic surfaces as a typed
	// *guard.StageFailure error instead of killing the process).
	orig, err := guard.Do(opts.Guard, guard.Invocation{Stage: guard.StageParse, Key: src},
		func(*cast.Unit) (*cast.Unit, error) {
			return cparser.Parse(src)
		})
	if err != nil {
		return Result{}, fmt.Errorf("heterogen: parse: %w", err)
	}
	return RunUnitContext(ctx, orig, opts)
}

// RunUnit executes the pipeline over a parsed unit.
func RunUnit(orig *cast.Unit, opts Options) (Result, error) {
	return RunUnitContext(context.Background(), orig, opts)
}

// RunUnitContext is RunUnit with cooperative cancellation. The context
// is checked at phase boundaries here and at commit points inside the
// fuzzer and the repair search (between executions and candidate
// evaluations, never mid-verdict). On cancellation the returned Result
// is the best-so-far partial outcome — the corpus gathered, the most
// advanced program version reached, its repair log — alongside an
// error wrapping ctx.Err(), so errors.Is(err, context.Canceled)
// distinguishes cancellation from real failures.
func RunUnitContext(ctx context.Context, orig *cast.Unit, opts Options) (Result, error) {
	if opts.Kernel == "" {
		return Result{}, fmt.Errorf("heterogen: no kernel specified")
	}
	if orig.Func(opts.Kernel) == nil {
		return Result{}, fmt.Errorf("heterogen: kernel %q not found", opts.Kernel)
	}
	if err := hls.ResolveTargets(opts.Targets); err != nil {
		return Result{}, fmt.Errorf("heterogen: %w", err)
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
	userSteps := opts.Fuzz.MaxStepsPerExec != 0
	fopts := opts.Fuzz
	if fopts.MaxExecs == 0 {
		fopts = fuzz.DefaultOptions()
	}
	if opts.HostMain != "" {
		fopts.HostMain = opts.HostMain
	}
	if fopts.Obs == nil {
		fopts.Obs = opts.Obs
	}
	if fopts.Cache == nil {
		fopts.Cache = opts.Cache
	}
	if fopts.Guard == nil {
		fopts.Guard = opts.Guard
	}
	if steps := opts.Guard.InterpSteps(); steps != 0 && !userSteps {
		fopts.MaxStepsPerExec = steps
	}
	endFuzz := phase("fuzz")
	camp, err := fuzz.RunContext(ctx, orig, opts.Kernel, fopts)
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
	initial := cast.CloneUnit(orig)
	endProfile := phase("profile")
	if !opts.SkipProfile {
		prof, err := profile.Generate(orig, opts.Kernel, tests)
		if err == nil {
			res.Profiled = prof
			initial = prof.Unit
		}
	}
	endProfile(0) // bitwidth profiling is free in the virtual-cost model
	res.Initial = initial
	if err := ctx.Err(); err != nil {
		res.Final = initial
		res.Source = cast.Print(initial)
		finish()
		return res, fmt.Errorf("heterogen: cancelled before repair: %w", err)
	}

	// Stages 3-5: iterative repair.
	ropts := opts.Repair
	if ropts.Budget == 0 && ropts.MaxIterations == 0 {
		ropts = repair.DefaultOptions()
	}
	if opts.Workers != 0 {
		ropts.Workers = opts.Workers
	}
	if ropts.Obs == nil {
		ropts.Obs = opts.Obs
	}
	if ropts.Cache == nil {
		ropts.Cache = opts.Cache
	}
	if ropts.Guard == nil {
		ropts.Guard = opts.Guard
	}
	if ropts.InterpSteps == 0 {
		ropts.InterpSteps = opts.Guard.InterpSteps()
	}
	if ropts.Targets == nil {
		ropts.Targets = opts.Targets
	}
	if ropts.CheckpointPath == "" {
		ropts.CheckpointPath = opts.RepairCheckpoint
	}
	endRepair := phase("repair")
	rr := repair.SearchContext(ctx, orig, initial, opts.Kernel, tests, ropts)
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

// estimateResources is sim.Estimate through the cache and the guard.
// The key scheme is shared with the repair search's device-capacity
// gate, so the final design's estimate is often already present. The
// only possible error is a contained *guard.StageFailure.
func estimateResources(c *evalcache.Cache, g *guard.Guard, u *cast.Unit) (sim.Resources, error) {
	var key string
	if c != nil {
		key = evalcache.ResourceKey(cast.Print(u))
		var r sim.Resources
		if c.Get(evalcache.StageSim, key, &r) {
			return r, nil
		}
	}
	r, err := guard.Do(g, guard.Invocation{Stage: guard.StageEstimate, Key: key, Unit: u},
		func(cu *cast.Unit) (sim.Resources, error) {
			return sim.Estimate(cu), nil
		})
	if err != nil {
		return sim.Resources{}, err
	}
	if c != nil {
		c.Put(evalcache.StageSim, key, r)
	}
	return r, nil
}

// Check exposes the full synthesizability checker for a source text.
func Check(src, top string) (hls.Report, error) {
	return CheckWith(src, Options{Kernel: top})
}

// CheckObserved is Check with a structured hls_check event emitted to o
// (nil disables observation).
func CheckObserved(src, top string, o obs.Observer) (hls.Report, error) {
	return CheckWith(src, Options{Kernel: top, Obs: o})
}

// CheckWith runs only the synthesizability-checker stage, taking the
// same option struct as the other entry points: Kernel names the top
// function, Obs receives the hls_check event, Cache memoizes the
// verdict, Guard contains checker failures; the remaining fields are
// ignored. A cache hit emits the identical event a fresh check would.
// The primary target (Targets[0], or the default target when Targets
// is empty) provides the config and the diagnostic dialect, and the
// verdict is cached under a target-aware key; unknown target names
// fail with an explicit error. Use CheckSet for the full per-target
// report vector.
func CheckWith(src string, opts Options) (hls.Report, error) {
	u, err := cparser.Parse(src)
	if err != nil {
		return hls.Report{}, err
	}
	t := hls.DefaultTarget()
	if len(opts.Targets) > 0 {
		t = opts.Targets[0]
	}
	rep, _, err := checkOne(u, t, opts)
	return rep, err
}

// checkOne is the cached, guarded, observed checker stage for one
// target: its profile provides the config, its backend translates the
// diagnostics before they are cached and reported. It also returns the
// target's canonical form.
func checkOne(u *cast.Unit, t hls.Target, opts Options) (hls.Report, hls.Target, error) {
	backend, profile, err := hls.ResolveTarget(t)
	if err != nil {
		return hls.Report{}, t, fmt.Errorf("heterogen: %w", err)
	}
	t = hls.Target{Backend: backend.Name(), Device: profile.Name}
	cfg := hls.ConfigFor(opts.Kernel, profile)
	var key string
	var rep hls.Report
	cached := false
	if opts.Cache != nil {
		salt := evalcache.CheckSalt(backend.Name(), cfg.Top, cfg.Device, cfg.ClockMHz)
		key = evalcache.CheckKey(salt, cast.Print(u))
		cached = opts.Cache.Get(evalcache.StageCheck, key, &rep)
	}
	if !cached {
		rep, err = guard.Do(opts.Guard, guard.Invocation{Stage: guard.StageCheck, Unit: u},
			func(cu *cast.Unit) (hls.Report, error) {
				r := check.Run(cu, cfg)
				for i := range r.Diags {
					r.Diags[i] = backend.Translate(r.Diags[i])
				}
				return r, nil
			})
		if err != nil {
			return hls.Report{}, t, err
		}
		if opts.Cache != nil {
			opts.Cache.Put(evalcache.StageCheck, key, rep)
		}
	}
	check.Observe(opts.Obs, cfg, rep)
	return rep, t, nil
}

// TargetReport pairs one target with its checker verdict.
type TargetReport struct {
	Target string
	Report hls.Report
}

// CheckSet runs the synthesizability checker once per target in
// opts.Targets (the full set when empty resolves to the default
// target), each under its own config, dialect, and cache key.
func CheckSet(src string, opts Options) ([]TargetReport, error) {
	targets := opts.Targets
	if len(targets) == 0 {
		targets = []hls.Target{hls.DefaultTarget()}
	}
	u, err := cparser.Parse(src)
	if err != nil {
		return nil, err
	}
	out := make([]TargetReport, len(targets))
	for i, t := range targets {
		rep, canon, err := checkOne(u, t, opts)
		if err != nil {
			return nil, err
		}
		out[i] = TargetReport{Target: canon.String(), Report: rep}
	}
	return out, nil
}

// SimReport is the outcome of the standalone simulation stage: the
// design's resource estimate and whether it fits the evaluation
// device, alongside the checker verdict for context (estimates are
// meaningful even for non-synthesizable designs; latency is not
// reported here because simulating it requires a test suite — use the
// differential-test stage or the full pipeline for that).
type SimReport struct {
	// Report is the synthesizability verdict of the same design.
	Report hls.Report
	// Resources estimates fabric utilization.
	Resources sim.Resources
	// Device is the capacity profile the estimate was gated against:
	// the primary target's part (the paper's evaluation part when no
	// targets were set).
	Device sim.Device
	// Fits reports the estimate within device capacity; Over lists the
	// over-utilized resources otherwise. Both mirror PerTarget[0].
	Fits bool
	Over []string
	// PerTarget is the capacity verdict for every requested target.
	PerTarget []TargetFit
}

// TargetFit is one target's capacity verdict in a SimReport.
type TargetFit struct {
	// Target is the canonical "backend:device" name.
	Target string
	// Device is the profile's capacity table.
	Device sim.Device
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
// to the default part. Kernel, Targets, Obs, and Cache are honoured
// from opts; the remaining fields are ignored.
func Simulate(src string, opts Options) (SimReport, error) {
	targets := opts.Targets
	if len(targets) == 0 {
		targets = []hls.Target{hls.DefaultTarget()}
	}
	u, err := cparser.Parse(src)
	if err != nil {
		return SimReport{}, err
	}
	rep, err := CheckWith(src, opts)
	if err != nil {
		return SimReport{}, err
	}
	out := SimReport{Report: rep}
	out.Resources, err = estimateResources(opts.Cache, opts.Guard, u)
	if err != nil {
		return SimReport{}, err
	}
	for _, t := range targets {
		backend, profile, rerr := hls.ResolveTarget(t)
		if rerr != nil {
			return SimReport{}, fmt.Errorf("heterogen: %w", rerr)
		}
		dev := sim.DeviceFor(profile)
		fits, over := sim.CheckCapacity(out.Resources, dev)
		out.PerTarget = append(out.PerTarget, TargetFit{
			Target:      hls.Target{Backend: backend.Name(), Device: profile.Name}.String(),
			Device:      dev,
			Fits:        fits,
			Over:        over,
			Utilization: sim.Utilization(out.Resources, dev),
		})
	}
	out.Device = out.PerTarget[0].Device
	out.Fits = out.PerTarget[0].Fits
	out.Over = out.PerTarget[0].Over
	return out, nil
}

// RepairStage runs only the repair stage: bitwidth-profile the parsed
// program (unless SkipProfile) and search for a compatible HLS version
// against the original as behaviour oracle, with opts.ExtraTests as
// the test suite — the pipeline minus test generation, for callers
// that bring their own tests (an empty suite still repairs toward
// synthesizability; there is just no behaviour signal). Kernel,
// Repair, Workers, Obs, and Cache are honoured; Fuzz and HostMain are
// ignored.
func RepairStage(src string, opts Options) (repair.Result, error) {
	return RepairStageContext(context.Background(), src, opts)
}

// RepairStageContext is RepairStage with cooperative cancellation. The
// context is checked between candidate evaluations, never mid-verdict;
// a cancelled search returns the best version reached so far (the
// repair.Result is always valid) alongside an error wrapping ctx.Err().
func RepairStageContext(ctx context.Context, src string, opts Options) (repair.Result, error) {
	orig, err := guard.Do(opts.Guard, guard.Invocation{Stage: guard.StageParse, Key: src},
		func(*cast.Unit) (*cast.Unit, error) {
			return cparser.Parse(src)
		})
	if err != nil {
		return repair.Result{}, fmt.Errorf("heterogen: parse: %w", err)
	}
	if opts.Kernel == "" {
		return repair.Result{}, fmt.Errorf("heterogen: no kernel specified")
	}
	if orig.Func(opts.Kernel) == nil {
		return repair.Result{}, fmt.Errorf("heterogen: kernel %q not found", opts.Kernel)
	}
	if err := hls.ResolveTargets(opts.Targets); err != nil {
		return repair.Result{}, fmt.Errorf("heterogen: %w", err)
	}
	tests := opts.ExtraTests
	initial := cast.CloneUnit(orig)
	if !opts.SkipProfile {
		if prof, err := profile.Generate(orig, opts.Kernel, tests); err == nil {
			initial = prof.Unit
		}
	}
	ropts := opts.Repair
	if ropts.Budget == 0 && ropts.MaxIterations == 0 {
		ropts = repair.DefaultOptions()
	}
	if opts.Workers != 0 {
		ropts.Workers = opts.Workers
	}
	if ropts.Obs == nil {
		ropts.Obs = opts.Obs
	}
	if ropts.Cache == nil {
		ropts.Cache = opts.Cache
	}
	if ropts.Guard == nil {
		ropts.Guard = opts.Guard
	}
	if ropts.InterpSteps == 0 {
		ropts.InterpSteps = opts.Guard.InterpSteps()
	}
	if ropts.Targets == nil {
		ropts.Targets = opts.Targets
	}
	if ropts.CheckpointPath == "" {
		ropts.CheckpointPath = opts.RepairCheckpoint
	}
	rr := repair.SearchContext(ctx, orig, initial, opts.Kernel, tests, ropts)
	if err := ctx.Err(); err != nil {
		return rr, fmt.Errorf("heterogen: cancelled during repair: %w", err)
	}
	return rr, nil
}

// Validate differential-tests an already-produced HLS version against the
// original over a test suite.
func Validate(original, candidate *cast.Unit, kernel string, tests []fuzz.TestCase) difftest.Report {
	return difftest.Run(original, candidate, kernel, hls.DefaultConfig(kernel), tests)
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
