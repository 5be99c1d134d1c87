package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/core"
	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/difftest"
	"github.com/hetero/heterogen/internal/evalcache"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/repair"
	"github.com/hetero/heterogen/internal/subjects"
)

// transpile_suite runs the paper's ten subjects end to end through
// core.Run, closed loop, one job at a time, in subject order. Fuzzing
// dominates it, so a fuzzer or interpreter gain shows here and a
// repair-only change should not move it.
//
// The fuzz budget is the hgeval -quick plateau (90) with the execution
// cap lowered from 220 to 24, so that the suite fits twice into a run: at
// 220 executions a pass takes about 41 s on the 2-vCPU reference host, at
// 24 about 10 s (18 s in the host's slow phases), and the gate adds a few
// seconds. Every subject then runs exactly 24 executions, so the
// work per pass does not depend on where the plateau rule would stop. A
// run makes one pass per suiteSecondsPerPass of --seconds (two at 20 s)
// and reports medians over them.
//
// The fuzz seed is fixed at hgeval's default rather than taken from
// -seed: at this budget one subject's cost moves up to 4x with the fuzz
// seed (P3: 0.2-0.77 s over seeds 1-10), which would make the per-job
// statistics of a ten-job suite measure the seed instead of the code.
// -seed drives the gate's held-out inputs.
const (
	suiteFuzzExecs      = 24
	suitePlateau        = 90
	suiteFuzzSeed       = 1
	suiteSecondsPerPass = 10
	suiteSetupReps      = 101
	heldOutInputs       = 8
)

type suiteJob struct {
	s    subjects.Subject
	orig *cast.Unit // the gate's behaviour reference
}

// suiteRun is one subject's pipeline run inside a pass.
type suiteRun struct {
	id    string
	res   core.Result
	err   error
	latMS float64
	obs   *jobObserver // traced passes only
}

// suiteJobs builds the job list: every subject, parsed for the gate.
func suiteJobs(tiny bool) []suiteJob {
	all := subjects.All()
	if tiny {
		all = []subjects.Subject{subjects.P1(), subjects.P8()}
	}
	jobs := make([]suiteJob, len(all))
	for i, s := range all {
		jobs[i] = suiteJob{s: s, orig: s.MustParse()}
	}
	return jobs
}

// suiteJobHash identifies the job list: subjects, sources and fuzz budget.
func suiteJobHash(jobs []suiteJob) string {
	h := sha256.New()
	fmt.Fprintf(h, "transpile_suite|%d|%d|%d\n", suiteFuzzSeed, suiteFuzzExecs, suitePlateau)
	for _, j := range jobs {
		fmt.Fprintf(h, "%s|%s|%s\n", j.s.ID, j.s.Kernel, j.s.Source)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func suiteOptions(j suiteJob, cache *evalcache.Cache, tiny bool) core.Options {
	fo := fuzz.DefaultOptions()
	fo.Seed = suiteFuzzSeed
	fo.MaxExecs, fo.Plateau = suiteFuzzExecs, suitePlateau
	if tiny {
		fo.MaxExecs = 8
	}
	ro := repair.DefaultOptions()
	ro.Workers = 1
	return core.Options{Kernel: j.s.Kernel, HostMain: j.s.HostMain, Fuzz: fo, Repair: ro, Cache: cache}
}

// suitePass runs every subject once with a fresh shared evalcache, as
// hgeval does for one sweep. With rec set, each run is traced.
func suitePass(jobs []suiteJob, cfg config, rec *recorder) (passStats, []suiteRun, error) {
	cache, err := evalcache.New(evalcache.Options{})
	if err != nil {
		return passStats{}, nil, err
	}
	runs := make([]suiteRun, len(jobs))
	m := startMeter()
	for i, j := range jobs {
		opts := suiteOptions(j, cache, cfg.tiny)
		var span int
		if rec != nil {
			span = rec.open("job", -1, j.s.ID)
			runs[i].obs = newJobObserver(rec, span, j.s.ID)
			opts.Obs = runs[i].obs
		}
		runs[i].id = j.s.ID
		t := time.Now()
		runs[i].res, runs[i].err = core.Run(j.s.Source, opts)
		runs[i].latMS = ms(time.Since(t))
		rec.close(span)
	}
	ps := passStats{cache: cache.Stats()}
	ps.wallS, ps.cpuS, ps.allocs = m.stop()
	for _, r := range runs {
		ps.latMS = append(ps.latMS, r.latMS)
	}
	return ps, runs, nil
}

// outputHash fingerprints everything a subject's run produced, so later
// passes can be held to byte-identical output with the gated first pass.
func outputHash(r suiteRun) string {
	h := sha256.New()
	fmt.Fprintf(h, "%v|%v|%v|%v\n%s\n%s", r.err, r.res.Compatible, r.res.BehaviorOK,
		r.res.Improved, strings.Join(r.res.Repair.Stats.EditLog, "\n"), r.res.Source)
	return hex.EncodeToString(h.Sum(nil))
}

// gateSubject checks one subject's output; it returns "" when correct,
// else the reason.
func gateSubject(j suiteJob, r suiteRun, seed int64, idx int) string {
	if r.err != nil {
		return fmt.Sprintf("pipeline error: %v", r.err)
	}
	res := r.res
	if !res.Compatible || !res.BehaviorOK {
		return fmt.Sprintf("compatible=%v behavior_ok=%v", res.Compatible, res.BehaviorOK)
	}
	if res.Improved != j.s.ExpectImproved {
		return fmt.Sprintf("improved=%v, Table 3 expects %v", res.Improved, j.s.ExpectImproved)
	}
	log := strings.Join(res.Repair.Stats.EditLog, " ")
	for _, want := range j.s.ExpectedEdits {
		if !strings.Contains(log, want) {
			return fmt.Sprintf("edit log lacks template %q", want)
		}
	}
	final, err := cparser.Parse(res.Source)
	if err != nil {
		return fmt.Sprintf("final source does not re-parse: %v", err)
	}
	held := heldOut(j.orig, j.s.Kernel, res.Campaign.Tests, rand.New(rand.NewSource(mixSeed(seed, -1, int64(idx)))), heldOutInputs)
	if rep := difftest.Run(j.orig, final, j.s.Kernel, hls.DefaultConfig(j.s.Kernel), held); !rep.AllPass() {
		return "held-out inputs: " + rep.FirstDiff
	}
	return ""
}

func runTranspileSuite(cfg config) (outcome, error) {
	var o outcome
	var jobs []suiteJob
	setupS, err := timeSetup(suiteSetupReps, func() error {
		jobs = suiteJobs(cfg.tiny)
		return nil
	})
	if err != nil {
		return o, err
	}

	// A traced run follows one untraced pass with one traced pass of the
	// same work, so the tracing overhead is measured on identical work and
	// the run, replay included, stays within its time limit on a slow host.
	passes := max(1, int(cfg.window/time.Second)/suiteSecondsPerPass)
	if cfg.tiny || cfg.rec != nil {
		passes = 1
	}
	total := passes
	if cfg.rec != nil {
		total *= 2
	}
	var untraced []passStats
	var traced passStats
	var first, tracedRuns []suiteRun
	want := map[string]string{}
	for i := 0; i < total; i++ {
		var rec *recorder
		if i >= passes {
			rec = cfg.rec
		}
		ps, runs, err := suitePass(jobs, cfg, rec)
		if err != nil {
			return o, err
		}
		if rec != nil {
			traced, tracedRuns = ps, runs
		} else {
			untraced = append(untraced, ps)
		}
		for k, r := range runs {
			o.attempted++
			id, h := jobs[k].s.ID, outputHash(r)
			if i == 0 {
				want[id] = h
			} else if want[id] != h {
				o.fail("%s: pass %d output differs from pass 0", id, i)
			}
		}
		if i == 0 {
			first = runs
		}
	}
	rss := peakRSSMB()
	sp, err := cfg.probe.stop()
	if err != nil {
		return o, err
	}
	o.note("%s", cfg.probe.describe())
	gateStart := time.Now()
	for k, reason := range gateAll(len(jobs), func(k int) string { return gateSubject(jobs[k], first[k], cfg.seed, k) }) {
		if reason != "" {
			// A wrong output is wrong in every pass that reproduced it.
			for p := 0; p < total; p++ {
				o.fail("%s: %s", jobs[k].s.ID, reason)
			}
		}
	}
	o.note("transpile_suite: %d passes of %d subjects, job list %s, gate %.1f s",
		total, len(jobs), suiteJobHash(jobs)[:16], time.Since(gateStart).Seconds())
	for k, j := range jobs {
		lat := make([]float64, len(untraced))
		for p, ps := range untraced {
			lat[p] = ps.latMS[k]
		}
		o.note("subject %s: median %.1f ms over %d untraced passes (unscaled)", j.s.ID, median(lat), len(lat))
	}
	if cfg.rec == nil {
		batchMetrics(&o, setupS, untraced, rss, sp)
		return o, nil
	}

	var sample []replayJob
	for k, j := range jobs {
		sample = append(sample, replayJob{id: j.s.ID, source: j.s.Source, kernel: j.s.Kernel,
			tests: first[k].res.Campaign.Tests})
	}
	m, treeUS := replayLayers(cfg.rec, sample)
	var fuzzMS, profMS, repMS, jobMS, kernelUS, cov float64
	var execs, tests, tried, accepted, invocations int
	for _, r := range tracedRuns {
		fuzzMS += r.obs.phaseMS["fuzz"]
		profMS += r.obs.phaseMS["profile"]
		repMS += r.obs.phaseMS["repair"]
		jobMS += r.latMS
		execs += r.obs.fuzzExecs
		tried += r.obs.candidates
		kernelUS += float64(r.obs.fuzzExecs) * treeUS[r.id]
		tests += len(r.res.Campaign.Tests)
		cov += r.res.Campaign.Coverage
		accepted += r.res.Repair.Stats.AcceptedCandidates
		invocations += r.res.Repair.Stats.HLSInvocations
	}
	n := float64(len(tracedRuns))
	m["core.fuzz_ms"] = fuzzMS / n
	m["core.profile_ms"] = profMS / n
	m["core.repair_ms"] = repMS / n
	m["core.fuzz_share"] = share(fuzzMS, jobMS)
	m["fuzz.execs"] = float64(execs) / n
	m["fuzz.exec_us"] = share(fuzzMS*1000, float64(execs))
	m["fuzz.self_share"] = 1 - share(kernelUS, fuzzMS*1000)
	m["fuzz.retained_per_exec"] = share(float64(tests), float64(execs))
	m["fuzz.coverage"] = cov / n
	m["repair.candidates"] = float64(tried) / n
	m["repair.hls_invocations"] = float64(invocations) / n
	m["repair.accept_share"] = share(float64(accepted), float64(tried))
	m["repair.cand_per_s"] = share(float64(tried), repMS/1000)
	setHitShares(m, traced.cache)
	m["trace.overhead_share"] = overheadShare(untraced[0], traced)
	zeroServeMetrics(m)
	o.metrics = m
	return o, nil
}
