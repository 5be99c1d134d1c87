package fuzz

import (
	"context"
	"fmt"
	"math/rand"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/evalcache"
	"github.com/hetero/heterogen/internal/guard"
	"github.com/hetero/heterogen/internal/interp"
	"github.com/hetero/heterogen/internal/obs"
)

// Options configures a fuzzing campaign.
type Options struct {
	// Seed fixes the mutation RNG for reproducibility.
	Seed int64
	// MaxExecs bounds total kernel executions (default 4000).
	MaxExecs int
	// Plateau stops the campaign after this many consecutive executions
	// without new coverage (default 600) — the analog of the paper's
	// "30 minutes since the last new path" stopping rule.
	Plateau int
	// HostMain, when set, is executed first to capture kernel-entry seeds
	// (Algorithm 1's getKernelSeed). When empty, seeding is random.
	HostMain string
	// TypedMutation disables the HLS-type-validity filter when false
	// (used by the ablation benchmarks).
	TypedMutation bool
	// MaxStepsPerExec bounds one kernel execution. A guard step budget
	// (guard.Options.InterpSteps), when set, replaces it.
	MaxStepsPerExec int64
	// Obs receives one structured event per execution plus a campaign
	// summary (and a plateau warning when the campaign stalls before
	// MaxExecs). Nil disables observation.
	Obs obs.Observer
	// Cache, when non-nil, memoizes whole campaigns on a fingerprint of
	// (program fingerprint, kernel, Seed, MaxExecs, Plateau, HostMain,
	// TypedMutation, MaxStepsPerExec) — everything that shapes the
	// outcome; observers are excluded. A hit returns the stored
	// campaign, replaying its recorded event stream when tracing, so
	// results and traces are byte-identical to a cold run. An entry
	// stored by an untraced run carries no events and cannot serve a
	// traced run: that lookup misses and the recomputed campaign
	// overwrites the entry. Nil disables memoization.
	Cache *evalcache.Cache
	// Guard contains kernel-execution failures: an input whose execution
	// panics outside the interpreter's own fault model (or overruns the
	// guard deadline) is dropped — it contributes no coverage and is
	// never retained — instead of killing the campaign. A nil guard
	// still contains panics; failure decisions are keyed on the test
	// case's content, so a fault schedule is reproducible. When the guard
	// injects faults, the campaign cache is bypassed entirely and
	// campaigns that contained failures are never memoized.
	Guard *guard.Guard
}

// DefaultOptions returns the standard campaign configuration.
func DefaultOptions() Options {
	return Options{
		Seed:            1,
		MaxExecs:        4000,
		Plateau:         600,
		TypedMutation:   true,
		MaxStepsPerExec: 2_000_000,
	}
}

// Campaign is the result of a fuzzing run.
type Campaign struct {
	Spec  Spec
	Tests []TestCase
	// Coverage is covered branch outcomes / total outcomes over the
	// functions reachable from the kernel, in [0,1].
	Coverage float64
	// CoveredOutcomes / TotalOutcomes detail the fraction.
	CoveredOutcomes int
	TotalOutcomes   int
	Execs           int
	// VirtualSeconds models the wall-clock the paper's Table 4 reports
	// (each execution has a small fixed virtual cost).
	VirtualSeconds float64
	// SeededFromHost reports whether a host run supplied the seed.
	SeededFromHost bool
	// Plateaued reports the campaign stopped on the plateau rule (no new
	// coverage for Options.Plateau consecutive executions) before
	// reaching its MaxExecs budget — the §4 analog of "30 minutes since
	// the last new path". Callers should surface this: the generated
	// suite may under-cover the kernel.
	Plateaued bool
	// StageFailures counts executions contained by Options.Guard (they
	// consumed budget but contributed nothing). A campaign with
	// StageFailures > 0 is never memoized.
	StageFailures int
}

// execVirtualSeconds is the simulated cost of one fuzz execution,
// calibrated so campaigns land in the tens-of-minutes range of Table 4.
const execVirtualSeconds = 0.9

// RunContext executes a fuzzing campaign against the kernel of u, with
// cooperative cancellation. The context is checked at execution commit
// points: when it is cancelled the
// campaign stops where it is and returns the corpus gathered so far
// with a nil error (a partial campaign is still a usable test suite —
// callers that must distinguish inspect ctx.Err themselves). Cancelled
// campaigns are never cached.
func RunContext(ctx context.Context, u *cast.Unit, kernel string, opts Options) (Campaign, error) {
	if opts.MaxExecs == 0 {
		opts.MaxExecs = 4000
	}
	if opts.Plateau == 0 {
		opts.Plateau = 600
	}
	if steps := opts.Guard.InterpSteps(); steps != 0 {
		opts.MaxStepsPerExec = steps
	} else if opts.MaxStepsPerExec == 0 {
		opts.MaxStepsPerExec = 2_000_000
	}
	sp, err := SpecOf(u, kernel)
	if err != nil {
		return Campaign{}, err
	}

	o := obs.OrNop(opts.Obs)
	tracing := obs.Enabled(opts.Obs)

	// Fault injection bypasses the campaign cache in both directions: a
	// memoized clean campaign would skip the very faults the injector
	// plants, and an injected campaign must never be memoized as the
	// verdict for this fingerprint.
	if opts.Guard.Injecting() {
		opts.Cache = nil
	}

	// Cache lookup: a memoized campaign short-circuits the whole run.
	// The acceptance closure rejects (counting a miss) entries that
	// cannot serve this call — no event stream while tracing, or a
	// shape that no longer decodes against the recomputed spec.
	var cacheKey string
	if opts.Cache != nil {
		cacheKey = evalcache.FuzzKey(cast.FingerprintUnit(u), kernel, opts.Seed,
			opts.MaxExecs, opts.Plateau, opts.HostMain, opts.TypedMutation, opts.MaxStepsPerExec)
		var cc cachedCampaign
		var restored Campaign
		hit := opts.Cache.GetIf(evalcache.StageFuzz, cacheKey, &cc, func() bool {
			if tracing && !cc.HasEvents {
				return false
			}
			camp, ok := cc.decode(sp)
			if ok {
				restored = camp
			}
			return ok
		})
		if hit {
			if tracing {
				for _, e := range cc.Events {
					o.Emit(e)
				}
			}
			return restored, nil
		}
	}
	// Traced cold runs record their event stream into the cache entry
	// so a warm replay can reproduce the trace byte-for-byte.
	var rec *eventRecorder
	if opts.Cache != nil && tracing {
		rec = &eventRecorder{inner: o}
		o = rec
	}

	rng := rand.New(rand.NewSource(opts.Seed))

	camp := Campaign{Spec: sp}
	sites := reachableSites(u, kernel)
	camp.TotalOutcomes = 2 * len(sites)
	inSites := map[int]bool{}
	for _, s := range sites {
		inSites[s] = true
	}

	// Every campaign execution, the interpreter that replaces one a
	// contained failure dirtied, and the host run share one
	// compiled-code cache.
	code := interp.NewCodebase()
	in, err := newCoverageInterp(u, code, opts.MaxStepsPerExec)
	if err != nil {
		return Campaign{}, err
	}

	covered := map[int]bool{} // outcome index -> seen
	sinceGain := 0
	var queue []TestCase
	// Observability: one event per execution, emitted after that
	// execution's bookkeeping.
	emitExec := func(gained, crashed, invalid bool, failure string) {
		if !tracing {
			return
		}
		o.Emit(obs.Event{Type: obs.EvFuzzExec, Virtual: camp.VirtualSeconds, Fuzz: &obs.FuzzEvent{
			Exec: camp.Execs, Gained: gained, Crashed: crashed, Invalid: invalid,
			Covered: len(covered), TotalOutcomes: camp.TotalOutcomes,
			BitmapBits: len(in.CoverageBits),
			Corpus:     len(queue), Tests: len(camp.Tests), SinceGain: sinceGain,
			Failure: failure,
		}})
	}

	// commit executes one input and applies Algorithm 1's bookkeeping:
	// merge its hits into covered, retain it when it gained coverage,
	// advance the plateau counter otherwise, then emit its event.
	// Initial corpus entries (seed) always count as tests and never
	// move the plateau counter, even when their execution crashed or
	// was contained. Crashing inputs contribute coverage but are not
	// retained: the repair oracle needs clean reference outputs.
	commit := func(tc TestCase, seed bool) error {
		camp.Execs++
		camp.VirtualSeconds += execVirtualSeconds
		res, discard, err := guardedRun(opts.Guard, u, in, kernel, opts.MaxStepsPerExec, tc)
		if err != nil {
			return err
		}
		if discard {
			// A contained execution may have left the interpreter dirty,
			// or a deadline-abandoned goroutine still writing to it.
			if in, err = newCoverageInterp(u, code, opts.MaxStepsPerExec); err != nil {
				return err
			}
		}
		gained := false
		for _, idx := range res.hits {
			if !covered[idx] && inSites[idx/2] {
				covered[idx] = true
				gained = true
			}
		}
		switch {
		case seed:
			camp.Tests = append(camp.Tests, tc)
		case gained && !res.crashed:
			queue = append(queue, tc)
			camp.Tests = append(camp.Tests, tc)
			sinceGain = 0
		default:
			sinceGain++
		}
		if res.failed != "" {
			camp.StageFailures++
		}
		emitExec(gained, res.crashed, false, res.failed)
		return nil
	}

	// Seed: host capture when available, else type-valid random.
	if opts.HostMain != "" {
		if seed, ok := captureHostSeed(u, kernel, opts.HostMain, sp, code); ok {
			queue = append(queue, seed)
			camp.SeededFromHost = true
		}
	}
	if len(queue) == 0 {
		queue = append(queue, randomCase(sp, rng))
	}
	for _, tc := range queue {
		if ctx.Err() != nil {
			break
		}
		if err := commit(tc, true); err != nil {
			return camp, err
		}
	}

	for camp.Execs < opts.MaxExecs && sinceGain < opts.Plateau && ctx.Err() == nil {
		// Pop a corpus entry (round-robin over the retained queue).
		parent := queue[camp.Execs%len(queue)]
		for _, child := range mutate(parent, sp, rng, opts.TypedMutation) {
			if camp.Execs >= opts.MaxExecs || ctx.Err() != nil {
				break
			}
			if !TypeValid(sp, child) {
				if opts.TypedMutation {
					// The inserted type checker filters these for free.
					continue
				}
				// Untyped ablation: the invalid input is executed, dies
				// at the kernel entry, and contributes nothing.
				camp.Execs++
				camp.VirtualSeconds += execVirtualSeconds
				sinceGain++
				emitExec(false, false, true, "")
				continue
			}
			if err := commit(child, false); err != nil {
				return camp, err
			}
		}
	}

	camp.CoveredOutcomes = len(covered)
	if camp.TotalOutcomes > 0 {
		camp.Coverage = float64(len(covered)) / float64(camp.TotalOutcomes)
	} else {
		camp.Coverage = 1
	}
	if sinceGain >= opts.Plateau && camp.Execs < opts.MaxExecs {
		camp.Plateaued = true
		if tracing {
			o.Emit(obs.Event{Type: obs.EvWarning, Virtual: camp.VirtualSeconds,
				Warn: fmt.Sprintf("fuzz campaign plateaued: no new coverage for %d consecutive executions, stopped at %d/%d execs (%.0f%% branch coverage)",
					opts.Plateau, camp.Execs, opts.MaxExecs, 100*camp.Coverage)})
		}
	}
	if tracing {
		o.Emit(obs.Event{Type: obs.EvFuzzDone, Virtual: camp.VirtualSeconds, Fuzz: &obs.FuzzEvent{
			Exec: camp.Execs, Covered: camp.CoveredOutcomes, TotalOutcomes: camp.TotalOutcomes,
			BitmapBits: len(in.CoverageBits),
			Corpus:     len(queue), Tests: len(camp.Tests), SinceGain: sinceGain,
			Coverage: camp.Coverage, Plateaued: camp.Plateaued,
			StageFailures: camp.StageFailures,
		}})
	}
	// A cancelled campaign is partial, and one that contained failures
	// reflects this run's environment, not the fingerprint's verdict:
	// neither is memoized.
	if opts.Cache != nil && ctx.Err() == nil && camp.StageFailures == 0 {
		opts.Cache.Put(evalcache.StageFuzz, cacheKey, encodeCampaign(camp, rec))
	}
	return camp, nil
}

// Replay measures the coverage of a fixed test suite (used to score
// pre-existing tests for Table 4): the union of the tests' hit sets
// over the branch sites reachable from the kernel.
func Replay(u *cast.Unit, kernel string, tests []TestCase) (float64, error) {
	sites := reachableSites(u, kernel)
	if len(sites) == 0 {
		return 1, nil
	}
	inSites := map[int]bool{}
	for _, s := range sites {
		inSites[s] = true
	}
	results, err := collectHits(u, kernel, tests)
	if err != nil {
		return 0, err
	}
	covered := map[int]bool{}
	for _, r := range results {
		for _, idx := range r.hits {
			if inSites[idx/2] {
				covered[idx] = true
			}
		}
	}
	return float64(len(covered)) / float64(2*len(sites)), nil
}

// captureHostSeed runs the host entry point and snapshots the first
// kernel-call arguments.
func captureHostSeed(u *cast.Unit, kernel, hostMain string, sp Spec, code *interp.Codebase) (TestCase, bool) {
	var captured []interp.Value
	in, err := interp.New(u, interp.Options{
		Code:        code,
		CaptureName: kernel,
		CaptureCall: func(args []interp.Value) {
			if captured == nil {
				captured = args
			}
		},
	})
	if err != nil {
		return TestCase{}, false
	}
	if _, err := in.CallKernel(hostMain, nil); err != nil && captured == nil {
		return TestCase{}, false
	}
	if captured == nil {
		return TestCase{}, false
	}
	tc := TestCase{Args: make([]Arg, len(sp.Params))}
	for i := range sp.Params {
		proto := sp.Params[i].Clone()
		if i < len(captured) {
			fillFromValue(&proto, captured[i])
		}
		tc.Args[i] = proto
	}
	if !TypeValid(sp, tc) {
		return TestCase{}, false
	}
	return tc, true
}

// fillFromValue copies a captured runtime value into an Arg payload.
func fillFromValue(a *Arg, v interp.Value) {
	if a.Scalar {
		if a.IsFloat {
			a.Floats[0] = v.AsFloat()
		} else {
			a.Ints[0] = interp.WrapInt(v.AsInt(), a.Width, a.Unsigned)
		}
		return
	}
	if v.Kind != interp.VPtr || v.Obj == nil {
		return
	}
	n := len(v.Obj.Elems)
	for i := 0; i < a.Len() && i < n; i++ {
		if a.IsFloat {
			a.Floats[i] = v.Obj.Elems[i].AsFloat()
		} else {
			a.Ints[i] = interp.WrapInt(v.Obj.Elems[i].AsInt(), a.Width, a.Unsigned)
		}
	}
}

// reachableSites returns the branch-site IDs in functions reachable from
// the kernel.
func reachableSites(u *cast.Unit, kernel string) []int {
	reach := map[string]bool{}
	var visit func(name string)
	visit = func(name string) {
		if reach[name] {
			return
		}
		fn := u.Func(name)
		if fn == nil {
			return
		}
		reach[name] = true
		cast.Inspect(fn, func(n cast.Node) bool {
			if c, ok := n.(*cast.Call); ok {
				if id, ok := c.Fun.(*cast.Ident); ok {
					visit(id.Name)
				}
				if mem, ok := c.Fun.(*cast.Member); ok {
					// Struct methods: visit all same-named methods.
					_ = mem
					for _, d := range u.Decls {
						if sd, ok := d.(*cast.StructDecl); ok {
							for _, m := range sd.Methods {
								if m.Name == mem.Field {
									visitMethod(u, m, reach, visit)
								}
							}
						}
					}
				}
			}
			return true
		})
	}
	visit(kernel)

	var sites []int
	collect := func(fn *cast.FuncDecl) {
		cast.Inspect(fn, func(n cast.Node) bool {
			switch x := n.(type) {
			case *cast.If:
				sites = append(sites, x.BranchID)
			case *cast.For:
				sites = append(sites, x.BranchID)
			case *cast.While:
				sites = append(sites, x.BranchID)
			case *cast.Cond:
				sites = append(sites, x.BranchID)
			case *cast.Switch:
				for i := range x.Cases {
					sites = append(sites, x.BranchID+i)
				}
			}
			return true
		})
	}
	for _, d := range u.Decls {
		switch x := d.(type) {
		case *cast.FuncDecl:
			if reach[x.Name] {
				collect(x)
			}
		case *cast.StructDecl:
			for _, m := range x.Methods {
				if reach[x.Type.Tag+"::"+m.Name] {
					collect(m)
				}
			}
		}
	}
	return sites
}

func visitMethod(u *cast.Unit, m *cast.FuncDecl, reach map[string]bool, visit func(string)) {
	key := methodKeyOf(u, m)
	if reach[key] {
		return
	}
	reach[key] = true
	cast.Inspect(m, func(n cast.Node) bool {
		if c, ok := n.(*cast.Call); ok {
			if id, ok := c.Fun.(*cast.Ident); ok {
				visit(id.Name)
			}
		}
		return true
	})
}

func methodKeyOf(u *cast.Unit, m *cast.FuncDecl) string {
	for _, d := range u.Decls {
		if sd, ok := d.(*cast.StructDecl); ok {
			for _, mm := range sd.Methods {
				if mm == m {
					return sd.Type.Tag + "::" + m.Name
				}
			}
		}
	}
	return m.Name
}

// VirtualMinutes renders the campaign's simulated duration.
func (c Campaign) VirtualMinutes() float64 { return c.VirtualSeconds / 60 }

// Summary is a one-line report.
func (c Campaign) Summary() string {
	return fmt.Sprintf("%d tests, %.0f min, %.0f%% branch coverage",
		len(c.Tests), c.VirtualMinutes(), 100*c.Coverage)
}
