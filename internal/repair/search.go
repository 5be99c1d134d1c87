package repair

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/difftest"
	"github.com/hetero/heterogen/internal/evalcache"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/guard"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/hls/check"
	"github.com/hetero/heterogen/internal/hls/sim"
	"github.com/hetero/heterogen/internal/hls/stylecheck"
	"github.com/hetero/heterogen/internal/interp"
	"github.com/hetero/heterogen/internal/obs"
	"github.com/hetero/heterogen/internal/stage"
)

// Options configures the repair search. An unset field means the
// paper's value, so the zero value is the full HeteroGen search.
type Options struct {
	// Budget is the virtual wall-clock limit in seconds (0 means the
	// paper's three hours; WithoutDependence gets twelve before it is
	// declared failed).
	Budget hls.VirtualCost
	// WithoutChecker disables early rejection via the lightweight
	// frontend (§5.3): the WithoutChecker ablation.
	WithoutChecker bool
	// WithoutDependence replaces dependence-ordered chain enumeration
	// with a random order: the WithoutDependence ablation.
	WithoutDependence bool
	// WithoutPerfExploration stops the search once all compatibility
	// errors are fixed instead of searching on for performance edits.
	WithoutPerfExploration bool
	// Seed seeds all randomness in the search (0 means 1), so a run is
	// bit-for-bit reproducible for a given (options, program, tests)
	// triple.
	//
	// The dependence-guided path consults no randomness at all: chains
	// are enumerated in registry order, so its results depend only on
	// the inputs. The WithoutDependence ablation draws its candidate
	// picks from a rand.Rand seeded here; all draws for one repair step
	// are made up front, so the portion of the stream consumed is a
	// function of the pool size alone, never of where the step stopped
	// (budget exhaustion, early acceptance). This keeps runs with
	// different Workers values — and reruns after behaviour-neutral
	// refactors of the step loop — on the same random sequence.
	Seed int64
	// Workers bounds how many candidate fitness evaluations may run
	// concurrently (§5.4's evaluation step dominates wall-clock; the
	// style check, full compatibility check, latency simulation, and
	// differential test of distinct candidates are independent).
	// 0 or 1 evaluates sequentially. Any value produces bit-identical
	// results for the same Seed: candidates keep their enumeration
	// order, the first improving candidate in that order is accepted,
	// and the virtual clock — which models a single toolchain license —
	// is committed in that same order, so accepted edits, final program,
	// and Stats do not depend on Workers.
	Workers int
	// MaxIterations is a safety bound on accepted edits (0 means 64).
	MaxIterations int
	// ClassFilter, when non-nil, restricts the search to templates of the
	// allowed error classes — how the HeteroRefactor baseline's
	// dynamic-data-only scope is modelled.
	ClassFilter map[hls.ErrorClass]bool
	// CheckpointPath, when non-empty, makes the search durable: every
	// committed candidate outcome is appended to a crash-tolerant JSONL
	// log at this path (see checkpoint.go), and a search started
	// against an existing log whose inputs match re-derives the
	// enumeration from zero while replaying the stored outcomes for the
	// already-committed prefix — skipping their expensive recomputation
	// but re-running every piece of commit-time accounting, so the
	// resumed Result, Stats, and trace are byte-identical to an
	// uninterrupted run's, for any Workers value and cache temperature.
	// A log written under different inputs (seed, budget, program,
	// tests, targets, …) is discarded, never replayed. Empty disables
	// checkpointing and leaves every code path byte-identical to before
	// the feature existed.
	CheckpointPath string
}

// withDefaults resolves every unset field to the paper's value.
func (o Options) withDefaults() Options {
	if o.Budget == 0 {
		o.Budget = 3 * 3600
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 64
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// allows reports whether the options permit templates of class c.
func (o Options) allows(c hls.ErrorClass) bool {
	return o.ClassFilter == nil || o.ClassFilter[c]
}

// DefaultOptions is the full HeteroGen configuration, equal in effect
// to the zero value.
func DefaultOptions() Options { return Options{}.withDefaults() }

// Stats records search effort, in both attempts and virtual time.
type Stats struct {
	VirtualSeconds float64
	// SecondsToCompatible is the virtual time at which the search first
	// reached a compilable, behaviour-preserving version (0 when never) —
	// the repair-task wall-clock Figure 9 compares.
	SecondsToCompatible float64
	HLSInvocations      int // full compile+simulate invocations
	StyleChecks         int
	StyleRejections     int
	CandidatesTried     int
	// AcceptedCandidates / RejectedCandidates partition CandidatesTried
	// by the search decision (style rejections count as rejected and are
	// also broken out in StyleRejections). Both are committed in
	// enumeration order, so sequential and parallel runs agree.
	AcceptedCandidates int
	RejectedCandidates int
	Iterations         int
	// StageFailures counts candidates rejected because a toolchain stage
	// crashed or overran its budget (contained by the guard). They
	// are included in RejectedCandidates.
	StageFailures int
	EditLog       []string
}

// VirtualMinutes converts the virtual time for reporting.
func (s Stats) VirtualMinutes() float64 { return s.VirtualSeconds / 60 }

// Result is the search outcome.
type Result struct {
	Unit *cast.Unit
	// Compatible reports zero HLS errors.
	Compatible bool
	// BehaviorOK reports that all tests agree with the original program.
	BehaviorOK bool
	// Improved reports simulated FPGA latency below the original CPU time.
	Improved bool
	// Report is the final differential-test report (when run).
	Report difftest.Report
	Stats  Stats
	// Remaining lists unfixed diagnostics when the search failed, in the
	// primary target's dialect.
	Remaining []hls.Diagnostic
	// PerTarget is the final program's per-device verdict table (only
	// when the caller named Targets; nil otherwise).
	PerTarget []TargetVerdict
	// Pareto is the latency/resource Pareto archive of every fully
	// evaluated, all-targets-compatible program the search committed, in
	// commit order (only when the caller named Targets; nil otherwise).
	// The final program is not necessarily a member: the scalar
	// objective chases the worst-target latency, while the archive keeps
	// every non-dominated trade-off.
	Pareto []ParetoPoint
}

// EditedLines counts the lines of the repaired program that do not appear
// in the original (a line-multiset difference) — the paper's ΔLOC metric.
// In-place retypings count (the line changed) as well as insertions.
// Callers rendering several ΔLOC figures against one original should use
// a LineCounter, which prints and splits the original once.
func EditedLines(original, repaired *cast.Unit) int {
	return NewLineCounter(original).EditedLines(repaired)
}

// LineCounter precomputes one program's line multiset so repeated ΔLOC
// renders against the same original do not re-print and re-split it per
// call. The base multiset is immutable after construction; EditedLines
// is safe for concurrent use.
type LineCounter struct {
	base map[string]int
}

// NewLineCounter prints the original once and indexes its lines.
func NewLineCounter(original *cast.Unit) *LineCounter {
	base := map[string]int{}
	for _, l := range strings.Split(cast.Print(original), "\n") {
		l = strings.TrimSpace(l)
		if l != "" {
			base[l]++
		}
	}
	return &LineCounter{base: base}
}

// EditedLines counts repaired lines absent from the original multiset.
func (c *LineCounter) EditedLines(repaired *cast.Unit) int {
	used := map[string]int{}
	delta := 0
	for _, l := range strings.Split(cast.Print(repaired), "\n") {
		l = strings.TrimSpace(l)
		if l == "" {
			continue
		}
		if used[l] < c.base[l] {
			used[l]++
			continue
		}
		delta++
	}
	return delta
}

// searcher carries the loop state.
type searcher struct {
	cfg   hls.Config
	tests []fuzz.TestCase
	opts  Options
	rng   *rand.Rand
	stats Stats
	state *State
	// obs is the normalized event sink; tracing gates payload
	// construction on the per-candidate hot path.
	obs     obs.Observer
	tracing bool
	// step labels emitted candidate events: "repair" or "perf".
	step string
	// pool, when non-nil, evaluates candidate batches concurrently.
	// All accounting still happens on the search goroutine, in
	// enumeration order (see parallel.go).
	pool *evalPool
	// triedPerf remembers performance candidates already evaluated and
	// rejected, so successive perfSteps do not pay repeated compilations
	// for the same configuration.
	triedPerf map[string]bool
	// ctx is checked at commit points: the search stops between
	// candidates (never mid-verdict) and returns its best-so-far state.
	ctx context.Context
	// cache memoizes check/sim/difftest verdicts; nil disables. The
	// salts fold in everything a verdict depends on besides the
	// candidate itself, computed once per search (see
	// internal/evalcache key derivation).
	cache     *evalcache.Cache
	checkSalt string
	diffSalt  string
	// guard contains the candidates' stage failures.
	guard *guard.Guard
	// targets is the resolved target set, never empty. named records
	// that the caller spelled it out, which alone decides whether the
	// Pareto archive (and its dedupe set, both on the search goroutine)
	// and the verdict table are produced.
	targets    []hls.ResolvedTarget
	named      bool
	pareto     []paretoEntry
	paretoSeen map[string]bool
	// fps is the per-search fingerprint memo (cache keys and compiled
	// code keys), runner the reference-caching differential tester
	// with its shared compiled-function cache. Both are safe for
	// concurrent worker use.
	fps    *cast.Fingerprints
	runner *difftest.Runner
	// ckpt is the durable commit log (Options.CheckpointPath; nil
	// otherwise) and commitIdx the global commit counter that indexes
	// it. Both live on the search goroutine only.
	ckpt      *checkpoint
	commitIdx int
}

// SearchContext runs HeteroGen's iterative repair from the initial
// version (normally the bitwidth-profiled P_broken) against the
// original program as behaviour oracle, with cooperative cancellation.
// The context is checked at commit points — between candidate evaluations and
// between iterations, never mid-verdict — so cancellation stops the
// search promptly and returns the best version found so far, exactly
// as a budget exhaustion would (nil error semantics: a partial repair
// is still a result; callers that must distinguish inspect ctx.Err).
//
// targets is the resolved (backend, device) set the design must fit;
// empty means the default target. Candidate fitness is a per-device
// vector over the set (see targets.go): the capacity gate runs against
// every profile — a candidate whose resource estimate over-utilizes a
// device fails evaluation like any other diagnostic, so the search
// backs off to cheaper partition factors — and compile cost is charged
// per target. targets[0] is the primary target: it provides the
// toolchain config, the diagnostic dialect of Remaining, and the cache
// salts. A non-empty set adds the per-device verdict table and the
// latency/resource Pareto archive to the Result; apart from those two
// fields, a single default target and an empty set give identical
// results and traces.
//
// env.Obs receives one event per tried candidate plus init/done
// snapshots, emitted on the search goroutine in candidate enumeration
// order, so a trace is byte-identical for any Workers value. env.Cache
// memoizes the per-candidate verdicts on content-addressed
// fingerprints: the synthesizability Report (target config + candidate
// fingerprint), the resource estimate (candidate fingerprint), and the
// differential-test outcome (target config + kernel + oracle
// fingerprint + corpus hash + candidate fingerprint). It is the only
// verdict memo: without it a candidate revisited in a later iteration
// is re-evaluated. A hit skips the recomputation but is charged the
// same virtual toolchain cost in the same commit order as a cold
// evaluation, so Result, Stats, and traces are byte-identical whether
// the cache is disabled, cold, or warm, for any Workers value.
// env.Guard contains stage failures: a candidate whose style check,
// compatibility check, resource estimate, or differential test panics
// (or overruns the guard's deadline) becomes a rejected candidate with
// a recorded reason instead of crashing the search; failure decisions
// are content-keyed, so they are identical for any Workers value. The
// guard's step budget, when set, bounds each interpreter execution
// inside the differential test (exhaustion yields inconclusive(timeout)
// verdicts, never behaviour mismatches).
func SearchContext(ctx context.Context, env stage.Env, original, initial *cast.Unit, kernel string,
	tests []fuzz.TestCase, targets []hls.ResolvedTarget, opts Options) Result {
	opts = opts.withDefaults()
	named := len(targets) > 0
	resolved := targets
	if !named {
		// The default target always resolves.
		resolved, _ = hls.ResolveTargets(nil)
	}
	cfg := hls.ConfigFor(kernel, resolved[0].Profile)
	cfg.InterpSteps = env.Guard.InterpSteps()
	fps := cast.NewFingerprints()
	s := &searcher{
		cfg:       cfg,
		tests:     tests,
		opts:      opts,
		rng:       rand.New(rand.NewSource(opts.Seed)),
		state:     NewState(),
		obs:       obs.OrNop(env.Obs),
		tracing:   obs.Enabled(env.Obs),
		triedPerf: map[string]bool{},
		ctx:       ctx,
		cache:     env.Cache,
		guard:     env.Guard,
		targets:   resolved,
		named:     named,
		fps:       fps,
		runner:    difftest.NewRunner(original, kernel, cfg, tests, interp.NewCodebase(), fps),
	}
	if named {
		s.paretoSeen = map[string]bool{}
	}
	if s.cache != nil {
		// The primary backend name joins the salts so verdicts for
		// different toolchains (dialect translation included) never
		// collide across devices.
		be := resolved[0].Backend.Name()
		s.checkSalt = evalcache.CheckSalt(be, s.cfg.Top, s.cfg.Device, s.cfg.ClockMHz)
		s.diffSalt = evalcache.DifftestSalt(be, s.cfg.Top, s.cfg.Device, s.cfg.ClockMHz,
			s.cfg.InterpSteps, kernel, cast.FingerprintUnit(original), fuzz.CorpusFingerprint(tests))
	}
	s.state.TestCount = len(tests)
	if opts.CheckpointPath != "" {
		// An unopenable log degrades to checkpointing-off: durability is
		// an overlay, never a reason a search cannot run.
		if ck, err := openCheckpoint(opts.CheckpointPath, checkpointKey(opts, cfg.InterpSteps, targets, original, initial, kernel, tests)); err == nil {
			s.ckpt = ck
			defer ck.close()
		}
	}
	if opts.Workers > 1 {
		s.pool = newEvalPool(opts.Workers, float64(opts.Budget))
		defer s.pool.close()
	}

	cur := cast.CloneUnit(initial)
	curScore := s.evaluate(cur)

	for s.stats.VirtualSeconds < float64(opts.Budget) && s.stats.Iterations < opts.MaxIterations {
		if s.ctx.Err() != nil {
			break
		}
		s.stats.Iterations++

		if curScore.errors == 0 && curScore.behaviorOK {
			if s.stats.SecondsToCompatible == 0 {
				s.stats.SecondsToCompatible = s.stats.VirtualSeconds
			}
			if opts.WithoutPerfExploration {
				break
			}
			// Performance phase: accept only strict latency improvements.
			improved := s.perfStep(&cur, &curScore)
			if !improved {
				break
			}
			continue
		}

		accepted := s.repairStep(&cur, &curScore)
		if !accepted {
			break // no candidate improves the current program
		}
	}

	if curScore.errors == 0 && curScore.behaviorOK && s.stats.SecondsToCompatible == 0 {
		s.stats.SecondsToCompatible = s.stats.VirtualSeconds
	}
	res := Result{
		Unit:       cur,
		Compatible: curScore.errors == 0,
		BehaviorOK: curScore.behaviorOK,
		Report:     curScore.report,
		Stats:      s.stats,
		Remaining:  curScore.diags,
	}
	if curScore.errors == 0 && curScore.behaviorOK {
		res.Improved = curScore.report.FPGAMeanMS() < curScore.report.CPUMeanMS()
	}
	if s.named {
		res.PerTarget = s.verdicts(curScore)
		res.Pareto = s.paretoPoints()
	}
	if s.tracing {
		de := &obs.DoneEvent{
			Attempts:            s.stats.CandidatesTried,
			Accepted:            s.stats.AcceptedCandidates,
			Rejected:            s.stats.RejectedCandidates,
			StyleChecks:         s.stats.StyleChecks,
			StyleRejections:     s.stats.StyleRejections,
			HLSInvocations:      s.stats.HLSInvocations,
			Iterations:          s.stats.Iterations,
			VirtualSeconds:      s.stats.VirtualSeconds,
			SecondsToCompatible: s.stats.SecondsToCompatible,
			EditLog:             append([]string(nil), s.stats.EditLog...),
			Compatible:          res.Compatible,
			BehaviorOK:          res.BehaviorOK,
			Improved:            res.Improved,
			StageFailures:       s.stats.StageFailures,
		}
		// The target set rides in the done event only when there is more
		// than one target: a single-target run is the same search whether
		// or not the caller named the target, and its trace is
		// byte-identical either way.
		if len(s.targets) > 1 {
			de.Targets = s.targetNames()
			de.ParetoSize = len(s.pareto)
		}
		s.obs.Emit(obs.Event{Type: obs.EvRepairDone, Virtual: s.stats.VirtualSeconds, Done: de})
	}
	return res
}

// score is the lexicographic fitness of a program version. The scalar
// fields aggregate the per-target vector: errors sum over targets and
// latencyMS is the slowest target.
type score struct {
	errors     int
	behaviorOK bool
	passRatio  float64
	latencyMS  float64
	diags      []hls.Diagnostic
	report     difftest.Report
	// perTarget is the fitness vector.
	perTarget []targetFit
	// res / resOK carry the resource estimate when one was computed,
	// feeding utilization rows and the Pareto archive.
	res   sim.Resources
	resOK bool
}

// better implements the unified objective: compatibility is the hard
// constraint (error count), behaviour preservation next, latency last.
func (a score) better(b score) bool {
	if a.errors != b.errors {
		return a.errors < b.errors
	}
	if a.errors > 0 {
		return false // same error count and still broken: no progress
	}
	if a.passRatio != b.passRatio {
		return a.passRatio > b.passRatio
	}
	if !a.behaviorOK || !b.behaviorOK {
		return false
	}
	return a.latencyMS < b.latencyMS-1e-12
}

// evalOutcome is the side-effect-free result of trying one candidate:
// what the style checker said and, when it passed, the full fitness.
// The deterministic cost inputs (printed line count, whether simulation
// ran) ride along so the accounting can be replayed on the search
// goroutine in enumeration order — see chargeOutcome.
type evalOutcome struct {
	// computed is false when a speculative worker skipped the job
	// (shared virtual budget already exhausted); the commit loop never
	// reaches such a candidate, but recomputes inline if it somehow
	// does.
	computed bool
	// styleRan reports the style checker was consulted.
	styleRan bool
	styleOK  bool
	// evaluated reports the full compile+test evaluation ran.
	evaluated bool
	// lines is the candidate's printed line count (compile-cost input).
	lines int
	// simRan reports the design compiled cleanly and fit the device, so
	// the per-test simulation cost applies.
	simRan bool
	sc     score
	// failure, when non-nil, records a contained stage failure: the
	// candidate never produced a verdict and is rejected with this
	// reason. The score fields are meaningless when set.
	failure *guard.StageFailure
}

// computeOutcome runs the style check and (when it passes) the full
// fitness evaluation of u without touching any searcher state. It is
// safe to call from multiple goroutines concurrently: it reads only the
// immutable search inputs (original program, tests, config) and the
// candidate's own clone.
func (s *searcher) computeOutcome(u *cast.Unit) evalOutcome {
	out := evalOutcome{computed: true}
	if !s.opts.WithoutChecker {
		out.styleRan = true
		ok, err := guard.Do(s.guard, guard.Invocation{Stage: guard.StageStyle, Unit: u},
			func(cu *cast.Unit) (bool, error) {
				return stylecheck.Run(cu, s.cfg).OK, nil
			})
		if out.failure = guard.AsFailure(err); out.failure != nil {
			return out
		}
		out.styleOK = ok
		if !out.styleOK {
			return out
		}
	} else {
		out.styleOK = true
	}
	out.evaluated = true
	out.lines, out.simRan, out.sc, out.failure = s.computeScore(u)
	return out
}

// computeScore is the pure part of a fitness evaluation: a full HLS
// compatibility check, the device-capacity gate, and differential
// testing with latency simulation. It returns the deterministic cost
// inputs alongside the score.
func (s *searcher) computeScore(u *cast.Unit) (lines int, simRan bool, sc score, failure *guard.StageFailure) {
	// The line count and fp, the candidate's content key for cache
	// lookups and guard invocations, are recombined from memoized
	// per-declaration prints in O(edit) for structure-sharing clones.
	lines = s.fps.Lines(u)
	var fp string
	if s.cache != nil {
		fp = s.fps.Unit(u)
	}

	sc = score{latencyMS: 1e18}
	// Cache lookups happen outside the guard (see evalcache.Memo): a hit
	// legitimately skips injection — the stage it would have faulted
	// never runs.
	rep, err := evalcache.Memo(s.cache, evalcache.StageCheck,
		func() string { return evalcache.CheckKey(s.checkSalt, fp) },
		func(string) (hls.Report, error) {
			return guard.Do(s.guard, guard.Invocation{Stage: guard.StageCheck, Key: fp, Unit: u},
				func(cu *cast.Unit) (hls.Report, error) {
					return check.Run(cu, s.cfg), nil
				})
		})
	if sf := guard.AsFailure(err); sf != nil {
		return lines, false, sc, sf
	}
	sc = score{errors: len(rep.Diags), diags: rep.Diags, latencyMS: 1e18}
	// The capacity gate runs per device and the latency model per clock;
	// the differential test below stays shared (behaviour is
	// target-independent).
	runDT, terr := s.scoreTargets(u, fp, &sc)
	if sf := guard.AsFailure(terr); sf != nil {
		return lines, false, sc, sf
	}
	if !runDT {
		return lines, false, sc, nil
	}
	dt, err := evalcache.Memo(s.cache, evalcache.StageDifftest,
		func() string { return evalcache.DifftestKey(s.diffSalt, fp) },
		func(string) (difftest.Report, error) {
			return guard.Do(s.guard, guard.Invocation{Stage: guard.StageDifftest, Key: fp, Unit: u},
				func(cu *cast.Unit) (difftest.Report, error) {
					return s.runner.Run(cu), nil
				})
		})
	if sf := guard.AsFailure(err); sf != nil {
		return lines, false, sc, sf
	}
	sc.report = dt
	sc.passRatio = dt.PassRatio()
	sc.behaviorOK = dt.AllPass()
	sc.latencyMS = dt.FPGAMeanMS()
	s.finishTargets(&sc)
	return lines, true, sc, nil
}

// estimate is the resource-estimation stage with memoization; fp is
// the candidate's fingerprint (empty when the cache is off). The only
// possible error is a contained *guard.StageFailure.
func (s *searcher) estimate(u *cast.Unit, fp string) (sim.Resources, error) {
	return evalcache.Memo(s.cache, evalcache.StageSim,
		func() string { return evalcache.ResourceKey(fp) },
		func(string) (sim.Resources, error) {
			return guard.Do(s.guard, guard.Invocation{Stage: guard.StageEstimate, Key: fp, Unit: u},
				func(cu *cast.Unit) (sim.Resources, error) {
					return sim.Estimate(cu), nil
				})
		})
}

// costBreakdown itemizes the virtual seconds charged for one trial, so
// candidate events (and hgstat's budget breakdown) can attribute spend
// to the style check, the HLS compilation, and the simulation.
type costBreakdown struct {
	style, compile, sim float64
}

func (c costBreakdown) total() float64 { return c.style + c.compile + c.sim }

// compileCost is the virtual cost of one full compilation of a design
// across the target set: each target pays its backend's cost model (one
// compile per device).
func (s *searcher) compileCost(lines int) float64 {
	total := 0.0
	for _, rt := range s.targets {
		total += float64(rt.Backend.CompileCost(lines))
	}
	return total
}

// invocations is how many toolchain invocations one evaluation spends.
func (s *searcher) invocations() int { return len(s.targets) }

// chargeOutcome replays the virtual-cost accounting of one tried
// candidate. The virtual clock models a single HLS toolchain license,
// so costs are summed here — on the search goroutine, in enumeration
// order — regardless of how many workers computed outcomes: the
// floating-point additions happen in exactly the sequence the
// sequential search performs, keeping Stats bit-identical.
func (s *searcher) chargeOutcome(o evalOutcome) costBreakdown {
	var cb costBreakdown
	s.stats.CandidatesTried++
	if o.styleRan {
		s.stats.StyleChecks++
		cb.style = float64(hls.StyleCheckSeconds)
		s.stats.VirtualSeconds += cb.style
		if o.failure != nil && o.failure.Stage == guard.StageStyle {
			// The style check crashed: its cost was spent, but it neither
			// accepted nor rejected, so StyleRejections stays honest.
			return cb
		}
		if !o.styleOK {
			s.stats.StyleRejections++
			return cb
		}
	}
	if !o.evaluated {
		return cb
	}
	if o.failure != nil {
		// A later stage crashed mid-evaluation: the compilation was
		// invoked (and is charged) but simulation never completed.
		cb.compile = s.compileCost(o.lines)
		s.stats.VirtualSeconds += cb.compile
		s.stats.HLSInvocations += s.invocations()
		return cb
	}
	cb.compile = s.compileCost(o.lines)
	s.stats.VirtualSeconds += cb.compile
	s.stats.HLSInvocations += s.invocations()
	if o.simRan {
		cb.sim = float64(hls.SimPerTestSeconds) * float64(len(s.tests))
		s.stats.VirtualSeconds += cb.sim
	}
	return cb
}

// evaluate pays for a full HLS compilation (and simulation when
// compilable) of u and returns its fitness — the sequential compute +
// charge pair, used for the initial program version. It emits the
// repair_init event, the t=0 point of Figure 2's trajectory.
func (s *searcher) evaluate(u *cast.Unit) score {
	var lines int
	var simRan bool
	var sc score
	var failure *guard.StageFailure
	if o, ok := s.ckpt.replayInit(); ok {
		lines, simRan, sc, failure = o.lines, o.simRan, o.sc, o.failure
	} else {
		lines, simRan, sc, failure = s.computeScore(u)
		s.ckpt.recordInit(evalOutcome{computed: true, evaluated: true,
			lines: lines, simRan: simRan, sc: sc, failure: failure})
	}
	if failure != nil {
		// The initial version itself crashed a stage: give it the worst
		// possible fitness so any candidate that evaluates at all is an
		// improvement, and let the search continue instead of aborting.
		sc = score{errors: 1 << 20, latencyMS: 1e18}
		s.stats.StageFailures++
	} else {
		// The unrepaired initial version may already be the cheapest
		// all-targets-compatible design; archive it like any candidate.
		s.considerPareto(u, sc)
	}
	var cb costBreakdown
	cb.compile = s.compileCost(lines)
	s.stats.VirtualSeconds += cb.compile
	s.stats.HLSInvocations += s.invocations()
	if simRan {
		cb.sim = float64(hls.SimPerTestSeconds) * float64(len(s.tests))
		s.stats.VirtualSeconds += cb.sim
	}
	if s.tracing {
		re := &obs.RepairEvent{
			Step: "init", Evaluated: true,
			Errors: sc.errors, PassRatio: sc.passRatio, BehaviorOK: sc.behaviorOK,
			VirtualDelta: cb.total(), CostCompile: cb.compile, CostSim: cb.sim,
		}
		if failure != nil {
			re.Failure = failure.Label()
		}
		if sc.errors == 0 && simRan {
			re.LatencyMS = sc.latencyMS
		}
		s.obs.Emit(obs.Event{Type: obs.EvRepairInit, Virtual: s.stats.VirtualSeconds, Repair: re})
	}
	return sc
}

// repairStep tries candidates for the current diagnostics and accepts the
// first one that improves the score. Returns false when stuck.
func (s *searcher) repairStep(cur **cast.Unit, curScore *score) bool {
	s.step = "repair"
	diags := curScore.diags
	if len(diags) == 0 && !curScore.behaviorOK {
		// Compilable but behaviour-diverging: the finitization sizes are
		// wrong. Synthesize a dynamic-data diagnostic so sizing templates
		// (resize) instantiate.
		diags = []hls.Diagnostic{{
			Code:    "DIFF-1",
			Message: fmt.Sprintf("behavior divergence: %d of %d tests disagree (%s): dynamic memory finitization suspected", curScore.report.Total-curScore.report.Passed, curScore.report.Total, curScore.report.FirstDiff),
			Class:   hls.ClassDynamicData,
		}}
	}

	var candidates []Candidate
	if !s.opts.WithoutDependence {
		// Dependence-guided: chains per diagnostic, in diagnostic order.
		for _, d := range diags {
			candidates = append(candidates, CandidatesFor(*cur, d, s.state)...)
		}
		candidates = dedupeCandidates(candidates)
	} else {
		// WithoutDependence: each attempt picks any applicable edit at
		// random, with replacement — re-trying a configuration pays for
		// its compilation again, which is exactly what the dependence
		// structure exists to avoid (the paper's "naive probability of
		// selecting ➌ given ➊ is 10%" argument). All picks are drawn up
		// front so the rng stream consumed per step depends only on the
		// pool size (see Options.Seed), then evaluated like any other
		// ordered candidate list — budget checks still gate every
		// attempt at commit time.
		pool := s.filterByClass(RandomCandidates(*cur, diags, s.state))
		if len(pool) == 0 {
			return false
		}
		picks := make([]Candidate, 6*len(pool))
		for a := range picks {
			picks[a] = pool[s.rng.Intn(len(pool))]
		}
		return s.evalCandidates(picks, nil, nil, cur, curScore)
	}

	if s.tryCandidates(s.filterByClass(candidates), cur, curScore) {
		return true
	}
	// Cross-class repairs (e.g. a recursion fix blocked until struct
	// pointers become pool indices) are reached by widening to the
	// whole registry once per-class chains are exhausted.
	fallback := s.filterByClass(RandomCandidates(*cur, diags, s.state))
	return s.tryCandidates(fallback, cur, curScore)
}

// filterByClass drops candidates containing edits outside the configured
// class filter.
func (s *searcher) filterByClass(cands []Candidate) []Candidate {
	if s.opts.ClassFilter == nil {
		return cands
	}
	var out []Candidate
	for _, c := range cands {
		ok := true
		for _, e := range c.Edits {
			if !s.opts.allows(e.Class) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, c)
		}
	}
	return out
}

// tryCandidates evaluates candidates in order, accepting the first
// improvement.
func (s *searcher) tryCandidates(candidates []Candidate, cur **cast.Unit, curScore *score) bool {
	return s.evalCandidates(candidates, nil, nil, cur, curScore)
}

// perfStep explores performance edits on an already-correct program.
// Rejected configurations are remembered so each costs one compilation
// over the whole search.
func (s *searcher) perfStep(cur **cast.Unit, curScore *score) bool {
	s.step = "perf"
	cands := PerfCandidates(*cur, s.state)
	// skip consults and updates the real dedupe set; it runs on the
	// search goroutine at commit time, in enumeration order, and stops
	// being called the moment the step accepts or exhausts its budget —
	// exactly like the sequential loop, so triedPerf ends identical.
	skip := func(c Candidate) bool {
		key := c.Describe()
		if s.triedPerf[key] {
			return true
		}
		s.triedPerf[key] = true
		return false
	}
	// predictSkip previews the same decisions against a scratch copy so
	// the worker pool does not schedule duplicate configurations; a
	// misprediction only wastes or saves speculative work, never
	// changes what skip decides.
	predicted := make(map[string]bool, len(s.triedPerf))
	for k := range s.triedPerf {
		predicted[k] = true
	}
	predictSkip := func(c Candidate) bool {
		key := c.Describe()
		if predicted[key] {
			return true
		}
		predicted[key] = true
		return false
	}
	return s.evalCandidates(cands, skip, predictSkip, cur, curScore)
}

func (s *searcher) accept(cand Candidate) {
	for _, e := range cand.Edits {
		s.state.MarkApplied(e)
		if e.OnAccept != nil {
			e.OnAccept(s.state)
		}
		s.stats.EditLog = append(s.stats.EditLog, e.String())
	}
}

// Summary renders a human-readable result line, including how many
// candidates the search rejected on the way (broken out from the same
// commit-ordered counters the metrics layer reports, so sequential and
// parallel runs print the same line).
func (r Result) Summary() string {
	status := "incomplete"
	if r.Compatible && r.BehaviorOK {
		status = "compatible"
	}
	failures := ""
	if r.Stats.StageFailures > 0 {
		failures = fmt.Sprintf(", %d stage failures contained", r.Stats.StageFailures)
	}
	return fmt.Sprintf("%s: %d edits (%d/%d candidates accepted, %d rejected: %d style, %d fitness%s), %d HLS invocations, %.0f virtual min [%s]",
		status, len(r.Stats.EditLog),
		r.Stats.AcceptedCandidates, r.Stats.CandidatesTried,
		r.Stats.RejectedCandidates, r.Stats.StyleRejections,
		r.Stats.RejectedCandidates-r.Stats.StyleRejections,
		failures,
		r.Stats.HLSInvocations,
		r.Stats.VirtualMinutes(), strings.Join(r.Stats.EditLog, "; "))
}
