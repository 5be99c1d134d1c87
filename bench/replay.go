package main

import (
	"math"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/difftest"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/hls/check"
	"github.com/hetero/heterogen/internal/hls/sim"
	"github.com/hetero/heterogen/internal/hls/stylecheck"
	"github.com/hetero/heterogen/internal/interp"
	"github.com/hetero/heterogen/internal/profile"
	"github.com/hetero/heterogen/internal/repair"
)

// The replay bounds what it times per sampled job, so that the heaviest
// subjects (one P4 kernel execution takes about 0.2 s) keep the traced
// run within its time budget.
const (
	replayCandidates  = 6 // first-iteration candidates per job
	replayInterpTests = 4 // interpreter calls per job and mode
	replayDiffTests   = 1 // tests per differential-test call
)

// replayJob is one sampled job: a C source, its kernel, and the inputs
// the workload ran it with.
type replayJob struct {
	id     string
	source string
	kernel string
	tests  []fuzz.TestCase
}

// replayLayers times each layer's public entry point on a sample of a
// workload's jobs. Each call runs on the same inputs as inside the
// pipeline, but outside it: the numbers are per-call costs of the layer,
// not its share of a pipeline run (caches and memos inside the pipeline
// are not shared with the replay). It returns the per-layer metrics and,
// per job id, the mean tree-walker execution time in microseconds.
func replayLayers(rec *recorder, jobs []replayJob) (map[string]float64, map[string]float64) {
	treeByJob := map[string]float64{}
	var srcBytes, candidates, rejected, compiled int
	var compileUS float64
	for _, j := range jobs {
		root := rec.open("replay", -1, j.id)
		tm := func(name string, f func()) float64 {
			return us(rec.timed("replay."+name, root, j.id, f))
		}
		var orig *cast.Unit
		var err error
		tm("cparser.parse", func() { orig, err = cparser.Parse(j.source) })
		if err != nil {
			rec.close(root)
			continue
		}
		srcBytes += len(j.source)
		tm("cast.print", func() { cast.Print(orig) })
		tm("cast.clone", func() { cast.CloneUnit(orig) })
		tm("cast.clone_scoped", func() { cast.CloneUnitScoped(orig, []string{j.kernel}) })
		tm("cast.fingerprint_full", func() { cast.FingerprintUnit(orig) })

		// Interpreter: CPU mode with coverage, the mode of a fuzz
		// execution, on the tree walker and on the VM.
		itests := j.tests[:min(len(j.tests), replayInterpTests)]
		treeSum := 0.0
		for _, tc := range itests {
			treeSum += tm("interp.tree", func() { execOnce(orig, j.kernel, tc, interp.Options{Coverage: true}) })
		}
		treeByJob[j.id] = share(treeSum, float64(len(itests)))
		if len(itests) > 0 {
			// Compile cost: a kernel call on an empty Codebase compiles the
			// kernel before its first step, where a one-step budget stops
			// it; the same call on the now warm Codebase is the baseline.
			// Only the call is timed — the interpreter and its arguments are
			// built beforehand, because on the large subjects their set-up
			// varies by more than the compile costs — and the minimum of
			// three tries on each side filters scheduling noise.
			var code *interp.Codebase
			oneStep := func(name string, code *interp.Codebase) float64 {
				in, err := interp.New(orig, interp.Options{Coverage: true, Code: code, MaxSteps: 1})
				if err != nil {
					return math.NaN()
				}
				args := itests[0].Values()
				return tm(name, func() { _, _ = in.CallKernel(j.kernel, args) })
			}
			cold, hot := math.Inf(1), math.Inf(1)
			for try := 0; try < 3; try++ {
				code = interp.NewCodebase()
				cold = math.Min(cold, oneStep("interp.vm_compile", code))
				hot = math.Min(hot, oneStep("interp.vm_step", code))
			}
			if !math.IsNaN(cold) && !math.IsNaN(hot) {
				compileUS += cold - hot
				compiled++
			}
			warm := interp.Options{Coverage: true, Code: code}
			execOnce(orig, j.kernel, itests[0], warm)
			for _, tc := range itests {
				tm("interp.vm", func() { execOnce(orig, j.kernel, tc, warm) })
			}
		}

		// The first-iteration candidate stream of a repair search.
		cfg := hls.DefaultConfig(j.kernel)
		initial := cast.CloneUnit(orig)
		tm("profile", func() {
			if prof, perr := profile.Generate(orig, j.kernel, j.tests); perr == nil {
				initial = prof.Unit
			}
		})
		st := repair.NewState()
		st.FastClone = true
		st.TestCount = len(j.tests)
		var cands []repair.Candidate
		for _, d := range check.Run(initial, cfg).Diags {
			if len(cands) >= replayCandidates {
				break
			}
			cands = append(cands, repair.CandidatesFor(initial, d, st)...)
		}
		cands = cands[:min(len(cands), replayCandidates)]

		fps := cast.NewFingerprints()
		fps.Unit(initial)
		dtests := j.tests[:min(len(j.tests), replayDiffTests)]
		runner := difftest.NewRunner(orig, j.kernel, cfg, dtests, interp.NewCodebase(), fps)
		runner.Run(initial) // computes the reference outcomes once
		for _, c := range cands {
			candidates++
			tm("cast.fingerprint", func() { fps.Unit(c.Unit) })
			var style hls.Report
			tm("stylecheck", func() { style = stylecheck.Run(c.Unit, cfg) })
			if !style.OK {
				rejected++
			}
			tm("check", func() { check.Run(c.Unit, cfg) })
			tm("sim.estimate", func() { sim.Estimate(c.Unit) })
			tm("difftest.runner", func() { runner.Run(c.Unit) })
			tm("difftest.run", func() { difftest.Run(orig, c.Unit, j.kernel, cfg, dtests) })
		}
		rec.close(root)
	}

	st := rec.stats()
	mean := func(name string) float64 { return meanUS(st, "replay."+name) }
	parseS := st["replay.cparser.parse"].TotalMS / 1000
	tree, vm := mean("interp.tree"), mean("interp.vm")
	m := map[string]float64{
		"cparser.parse_us":         mean("cparser.parse"),
		"cparser.mb_per_s":         share(float64(srcBytes)/1e6, parseS),
		"cast.print_us":            mean("cast.print"),
		"cast.clone_us":            mean("cast.clone"),
		"cast.clone_scoped_us":     mean("cast.clone_scoped"),
		"cast.fingerprint_us":      mean("cast.fingerprint"),
		"cast.fingerprint_full_us": mean("cast.fingerprint_full"),
		"interp.tree_exec_us":      tree,
		"interp.vm_exec_us":        vm,
		"interp.vm_speedup":        share(tree, vm),
		"interp.vm_compile_us":     share(compileUS, float64(compiled)),
		"stylecheck.run_us":        mean("stylecheck"),
		"stylecheck.reject_share":  share(float64(rejected), float64(candidates)),
		"check.run_us":             mean("check"),
		"sim.estimate_us":          mean("sim.estimate"),
		"difftest.runner_us":       mean("difftest.runner"),
		"difftest.run_us":          mean("difftest.run"),
		"replay.profile_ms":        mean("profile") / 1000,
	}
	return m, treeByJob
}

// execOnce runs the kernel once on a fresh interpreter, as a fuzz
// execution does; runtime errors are part of normal behaviour here.
func execOnce(u *cast.Unit, kernel string, tc fuzz.TestCase, opts interp.Options) {
	in, err := interp.New(u, opts)
	if err != nil {
		return
	}
	_, _ = in.CallKernel(kernel, tc.Values())
}
