package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"time"

	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/evalcache"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/obs"
	"github.com/hetero/heterogen/internal/progen"
	"github.com/hetero/heterogen/internal/serve"
	"github.com/hetero/heterogen/internal/subjects"
)

// serve_mixed drives an in-process hgserve daemon over HTTP with an open
// loop: 16 simulated clients whose jobs arrive on a fixed schedule in
// three equal steps of rising rate, whatever the daemon's progress. It is
// the only workload with independent users, admission, queueing and
// journal fsyncs, and resubmissions read the evalcache while fresh jobs
// write it.
//
// serveRates are the three step rates in jobs/s: 0.3x, 0.6x and 0.9x of
// 33.3 jobs/s, a third of the mix's capacity. -calibrate reads 105-119
// jobs/s on the 2-vCPU reference host in a calm phase, and about half
// that when the hypervisor withholds the processors (README: "Timings on
// a drifting host"). Rates of 0.3x/0.6x/0.9x of the capacity itself put
// R3 past saturation in those phases: its p50 jumped from 50 ms to 500
// ms between runs of one seed and sustained_jobs_per_s fell to R2, so the
// metrics measured the neighbours. At these rates R3 loads the daemon to
// about 27% in a calm phase and 55% in a bad one. The rates are part of
// the workload definition and are not recalibrated.
var serveRates = [3]float64{10, 20, 30}

const (
	serveClients = 16
	servePool    = 2
	// servePollPeriod is short against the median job (about 5 ms), whose
	// latency it rounds up.
	servePollPeriod   = 2 * time.Millisecond
	serveP95LimitMS   = 500.0
	serveDrainTimeout = 60 * time.Second
	serveReplayJobs   = 100
	serveSetupReps    = 15
	// Fuzz budgets of the transpile jobs (see serveSchedule).
	serveTranspileExecs = 50
	serveHeavyExecs     = 25
	// serveFailedMS stands in for the latency of a job that failed or was
	// refused: it misses every latency limit.
	serveFailedMS = float64(serveDrainTimeout / time.Millisecond)
)

// serveJob is one scheduled request.
type serveJob struct {
	step    int
	due     time.Duration // offset from the schedule start
	client  string
	req     serve.Request
	planted []hls.ErrorClass // check jobs: classes the result must report
	resubOf int              // index of the job this resubmits; -1 if fresh
}

// The job kinds of the mix.
const (
	mixCheck = iota
	mixRepair
	mixTranspile
	mixHeavy
	mixResubmit
)

// serveBlock is the mix of every 20 consecutive arrivals: 35% check,
// 30% repair and 15% transpile of fresh generated kernels, 5% transpile
// of P5 or P8, and 15% exact resubmissions of an earlier repair or
// transpile request. The seed shuffles the order inside each block, but
// the counts are fixed, so every step carries the same share of slow
// jobs and its latencies vary with the daemon rather than with the draw.
var serveBlock = []int{
	mixCheck, mixCheck, mixCheck, mixCheck, mixCheck, mixCheck, mixCheck,
	mixRepair, mixRepair, mixRepair, mixRepair, mixRepair, mixRepair,
	mixTranspile, mixTranspile, mixTranspile,
	mixHeavy,
	mixResubmit, mixResubmit, mixResubmit,
}

// serveSchedule builds the job list, a pure function of seed, the step
// length and the rates. Fresh transpiles run with serveTranspileExecs, P5
// and P8 with serveHeavyExecs. Fuzzing is nearly all of a transpile job,
// and at budgets of 100 and 200 executions the transpiles were four fifths
// of the mix's work: on a slow host a fresh transpile took 90 ms and P5
// 0.6-0.8 s, R3 ran the two workers at 70% and more, and the latency
// metrics measured queueing more than the daemon. The n-th P5/P8 job
// fuzzes with seed n rather than a drawn one: P5's cost moves fourfold
// with its fuzz seed, and the few heavy jobs of a run set its tail, so a
// drawn seed made job_p95_ms measure the draw.
func serveSchedule(seed int64, stepLen time.Duration, rates [3]float64) ([]serveJob, error) {
	r := rand.New(rand.NewSource(mixSeed(seed, -2)))
	var reusable, block []int
	var out []serveJob
	heavy := []subjects.Subject{subjects.P5(), subjects.P8()}
	nHeavy := 0
	for step, rate := range rates {
		n := int(stepLen.Seconds() * rate)
		for i := 0; i < n; i++ {
			if len(block) == 0 {
				block = append([]int(nil), serveBlock...)
				r.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
			}
			kind := block[0]
			block = block[1:]
			j := serveJob{
				step:    step,
				due:     time.Duration(step)*stepLen + time.Duration(float64(i)/rate*float64(time.Second)),
				client:  fmt.Sprintf("client-%02d", r.Intn(serveClients)),
				resubOf: -1,
			}
			if kind == mixResubmit && len(reusable) == 0 {
				kind = mixCheck
			}
			switch kind {
			case mixResubmit:
				j.resubOf = reusable[r.Intn(len(reusable))]
				j.req = out[j.resubOf].req
			case mixHeavy:
				s := heavy[nHeavy%len(heavy)]
				nHeavy++
				j.req = serve.Request{Kind: serve.KindTranspile, Source: s.Source, Kernel: s.Kernel,
					Host: s.HostMain, Seed: int64(nHeavy), Budget: serve.Budget{FuzzExecs: serveHeavyExecs}}
				reusable = append(reusable, len(out))
			default:
				p, err := progen.Generate(progen.Options{Seed: mixSeed(seed, -3, int64(len(out)))})
				if err != nil {
					return nil, err
				}
				j.req = serve.Request{Kind: serve.KindCheck, Source: p.Source, Kernel: p.Kernel}
				switch kind {
				case mixCheck:
					for _, v := range p.Planted {
						j.planted = append(j.planted, v.Class)
					}
				case mixRepair:
					j.req.Kind = serve.KindRepair
					reusable = append(reusable, len(out))
				case mixTranspile:
					j.req.Kind = serve.KindTranspile
					j.req.Budget = serve.Budget{FuzzExecs: serveTranspileExecs}
					reusable = append(reusable, len(out))
				}
			}
			out = append(out, j)
		}
	}
	return out, nil
}

// serveEnv is one in-process daemon configured like a deployment: a pool
// of two, a sharded on-disk evalcache and a state directory, so every
// job state transition is journaled and fsynced. Admission is sized to
// refuse nothing a run can offer (the whole schedule fits the queue), so
// an overloaded daemon shows as backlog and latency, and the gate's
// failures count wrong answers only.
type serveEnv struct {
	dir   string
	reg   *obs.Registry
	cache *evalcache.Cache
	srv   *serve.Server
	ts    *httptest.Server
}

func startServe(workdir string) (*serveEnv, error) {
	dir, err := os.MkdirTemp(workdir, "serve-")
	if err != nil {
		return nil, err
	}
	e := &serveEnv{dir: dir, reg: obs.NewRegistry()}
	e.cache, err = evalcache.New(evalcache.Options{Dir: filepath.Join(dir, "cache"), Shards: 8, Metrics: e.reg})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e.srv = serve.New(serve.Options{Pool: servePool, QueueDepth: 1 << 14, PerClient: -1,
		Cache: e.cache, Metrics: e.reg, StateDir: filepath.Join(dir, "state")})
	e.ts = httptest.NewServer(e.srv.Handler())
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(e.ts.URL + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return e, nil
			}
		}
		if time.Now().After(deadline) {
			e.close()
			return nil, fmt.Errorf("serve: /readyz never answered 200")
		}
		time.Sleep(time.Millisecond)
	}
}

func (e *serveEnv) close() {
	e.ts.Close()
	e.srv.Close()
	e.cache.Close()
	os.RemoveAll(e.dir)
}

// oneConn is an HTTP client that keeps a single connection to the daemon.
func oneConn() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// jobStatus is the part of GET /v1/jobs/{id} the benchmark reads; the
// result stays raw so resubmissions can be compared byte for byte.
type jobStatus struct {
	ID         string          `json:"id"`
	State      serve.State     `json:"state"`
	CreatedMS  int64           `json:"created_ms"`
	StartedMS  int64           `json:"started_ms"`
	FinishedMS int64           `json:"finished_ms"`
	Error      string          `json:"error"`
	Result     json.RawMessage `json:"result"`
}

func submit(c *http.Client, base string, j serveJob) (id string, code int, err error) {
	body, err := json.Marshal(j.req)
	if err != nil {
		return "", 0, err
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-ID", j.client)
	resp, err := c.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	var st jobStatus
	if resp.StatusCode == http.StatusAccepted {
		err = json.NewDecoder(resp.Body).Decode(&st)
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return st.ID, resp.StatusCode, err
}

func poll(c *http.Client, base, id string) (jobStatus, error) {
	var st jobStatus
	resp, err := c.Get(base + "/v1/jobs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return st, fmt.Errorf("GET job %s: %s", id, resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// tracked is what the load generator and the poller saw of one job.
type tracked struct {
	id        string
	sent      time.Time // POST started
	accepted  time.Time // 202 received
	refused   bool      // 429
	err       string    // transport or protocol failure
	seen      time.Time // first poll that saw a terminal state
	st        jobStatus
	latencyMS float64 // from due time to seen; serveFailedMS if failed
	ok        bool    // done and passed the gate
}

// loadStats are the load generator's and poller's own measurements.
type loadStats struct {
	pollCycles int
	pollTime   time.Duration
	backlogMax int
}

// drive runs the schedule open loop: one generator goroutine posting
// each job at its due time on one connection, and one poller goroutine
// on a second connection polling every outstanding job each period until
// all are terminal. Latency counts from the due time, so a stalled
// generator cannot hide the wait it imposed on later jobs.
func drive(base string, jobs []serveJob, start time.Time) ([]tracked, loadStats) {
	recs := make([]tracked, len(jobs))
	var (
		mu      sync.Mutex
		pending []int
		genDone bool
	)
	genClient, pollClient := oneConn(), oneConn()
	defer genClient.CloseIdleConnections()
	defer pollClient.CloseIdleConnections()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, j := range jobs {
			if d := time.Until(start.Add(j.due)); d > 0 {
				time.Sleep(d)
			}
			t := &recs[i]
			t.sent = time.Now()
			id, code, err := submit(genClient, base, j)
			t.accepted = time.Now()
			switch {
			case err != nil:
				t.err = err.Error()
			case code == http.StatusTooManyRequests:
				t.refused = true
			case code != http.StatusAccepted:
				t.err = fmt.Sprintf("POST answered %d", code)
			default:
				t.id = id
				mu.Lock()
				pending = append(pending, i)
				mu.Unlock()
			}
		}
		mu.Lock()
		genDone = true
		mu.Unlock()
	}()

	var ls loadStats
	var outstanding []int
	var drainBy time.Time
	pollStart := time.Now()
	for {
		cycle := time.Now()
		mu.Lock()
		outstanding = append(outstanding, pending...)
		pending = nil
		done := genDone
		mu.Unlock()
		// The daemon's queue is FIFO, so a job cannot start before every
		// earlier one has been dequeued: polling in submission order may
		// stop once servePool jobs still read queued. That keeps the cost
		// of a cycle independent of the backlog, so an overloaded daemon
		// is not starved further by its own observer. (A job that starts
		// and finishes while an earlier one is dequeued but not yet marked
		// running is seen one period later.)
		kept := outstanding[:0]
		queued := 0
		for k, i := range outstanding {
			if queued >= servePool {
				kept = append(kept, outstanding[k:]...)
				break
			}
			st, err := poll(pollClient, base, recs[i].id)
			if err == nil && st.State.Terminal() {
				recs[i].seen, recs[i].st = time.Now(), st
				continue
			}
			if err == nil && st.State == serve.StateQueued {
				queued++
			}
			kept = append(kept, i)
		}
		outstanding = kept
		ls.backlogMax = max(ls.backlogMax, len(outstanding))
		ls.pollCycles++
		if done {
			if len(outstanding) == 0 {
				break
			}
			if drainBy.IsZero() {
				drainBy = time.Now().Add(serveDrainTimeout)
			} else if time.Now().After(drainBy) {
				for _, i := range outstanding {
					recs[i].err = "not terminal by the drain deadline"
				}
				break
			}
		}
		if d := servePollPeriod - time.Since(cycle); d > 0 {
			time.Sleep(d)
		}
	}
	ls.pollTime = time.Since(pollStart)
	wg.Wait()
	return recs, ls
}

// gateServe decides each job's correctness: it must end done; check jobs
// must report every planted class; a resubmission's result must be
// byte-identical to its first submission's. The quality of repairs is
// gated by the batch workloads; here a repair that reports its own
// failure (behavior_ok false) is a correct answer from the daemon.
func gateServe(jobs []serveJob, recs []tracked, o *outcome) {
	for i, j := range jobs {
		t := &recs[i]
		o.attempted++
		reason := t.err
		switch {
		case t.refused:
			reason = "refused (429)"
		case reason != "":
		case t.st.State != serve.StateDone:
			reason = fmt.Sprintf("ended %s: %s", t.st.State, t.st.Error)
		case j.resubOf >= 0:
			if first := recs[j.resubOf]; !bytes.Equal(withoutCacheStats(first.st.Result), withoutCacheStats(t.st.Result)) {
				reason = fmt.Sprintf("result differs from its first submission (job %d)", j.resubOf)
			}
		case j.req.Kind == serve.KindCheck:
			reason = gateCheck(j, t.st.Result)
		}
		if reason != "" {
			o.fail("serve job %d (%s): %s", i, j.req.Kind, reason)
			continue
		}
		t.ok = true
	}
}

// cacheStatsRE matches the cache counters a transpile summary ends with.
// They are the one documented exclusion from result identity: a warm
// resubmission legitimately reports more hits than its cold original.
var cacheStatsRE = regexp.MustCompile(` cache=[0-9]+h/[0-9]+m`)

func withoutCacheStats(raw json.RawMessage) []byte {
	return cacheStatsRE.ReplaceAll(raw, nil)
}

// gateCheck holds a check job to the generator's oracle: every planted
// violation class must be reported.
func gateCheck(j serveJob, raw json.RawMessage) string {
	var res serve.Result
	if err := json.Unmarshal(raw, &res); err != nil || res.Check == nil {
		return fmt.Sprintf("no check result (%v)", err)
	}
	got := map[string]bool{}
	for _, d := range res.Check.Diagnostics {
		got[d.Class] = true
	}
	for _, c := range j.planted {
		if !got[c.String()] {
			return fmt.Sprintf("planted class %s not reported", c)
		}
	}
	return ""
}

// setLatencies times each job from when it was due, not from when the
// generator managed to send it, so a stall charges its wait to every job
// it delayed. A job that failed the gate misses every latency limit.
func setLatencies(jobs []serveJob, recs []tracked, start time.Time) {
	for i := range recs {
		t := &recs[i]
		t.latencyMS = serveFailedMS
		if t.ok {
			t.latencyMS = ms(t.seen.Sub(start.Add(jobs[i].due)))
		}
	}
}

// stepWindow is one arrival step's job indexes and time bounds.
type stepWindow struct {
	jobs       []int
	start, end time.Time
}

func steps(jobs []serveJob, start time.Time, stepLen time.Duration) []stepWindow {
	out := make([]stepWindow, len(serveRates))
	for k := range out {
		out[k].start = start.Add(time.Duration(k) * stepLen)
		out[k].end = out[k].start.Add(stepLen)
	}
	for i, j := range jobs {
		out[j.step].jobs = append(out[j.step].jobs, i)
	}
	return out
}

// backlogAt counts jobs due by t and not yet seen terminal at t.
func backlogAt(jobs []serveJob, recs []tracked, start, t time.Time) int {
	n := 0
	for i, j := range jobs {
		if !start.Add(j.due).After(t) && (recs[i].seen.IsZero() || recs[i].seen.After(t)) {
			n++
		}
	}
	return n
}

// stepStat summarizes one arrival step.
type stepStat struct {
	jobs          int
	p50, p90, p95 float64 // latency, ms; a failed job counts as serveFailedMS
	geo           float64 // geometric mean latency of the jobs that passed the gate, ms
	growth        int     // backlog at the step's end minus at its start
	// rate is the step's jobs over the time from the step's start to the
	// last of them completing.
	rate float64
	// sustained: p95 within the limit and a backlog that did not grow
	// beyond a tenth of the step's arrivals (at least two jobs).
	sustained bool
}

func stepStats(jobs []serveJob, recs []tracked, start time.Time, sw []stepWindow) []stepStat {
	out := make([]stepStat, len(sw))
	for k, w := range sw {
		if len(w.jobs) == 0 {
			continue
		}
		lat := make([]float64, len(w.jobs))
		var okLat []float64
		var last time.Time
		for n, i := range w.jobs {
			lat[n] = recs[i].latencyMS
			if recs[i].ok {
				okLat = append(okLat, lat[n])
			}
			if recs[i].seen.After(last) {
				last = recs[i].seen
			}
		}
		st := stepStat{jobs: len(w.jobs), p50: percentile(lat, 0.5), p90: percentile(lat, 0.9), p95: percentile(lat, 0.95), geo: geomean(okLat),
			growth: backlogAt(jobs, recs, start, w.end) - backlogAt(jobs, recs, start, w.start),
			rate:   float64(len(w.jobs)) / last.Sub(w.start).Seconds()}
		st.sustained = st.p95 <= serveP95LimitMS && float64(st.growth) <= math.Max(2, 0.1*float64(st.jobs))
		out[k] = st
	}
	return out
}

// sustainedRate is the completion rate of the highest sustained step,
// 0 when none is.
func sustainedRate(ss []stepStat) float64 {
	best := 0.0
	for _, st := range ss {
		if st.sustained {
			best = st.rate
		}
	}
	return best
}

func runServeMixed(cfg config) (outcome, error) {
	var o outcome
	stepLen := cfg.window / 3
	rates := serveRates
	if cfg.tiny {
		rates = [3]float64{30, 30, 30}
	}
	var jobs []serveJob
	var env *serveEnv
	setupS, err := timeSetup(serveSetupReps, func() error {
		if env != nil {
			env.close()
		}
		var err error
		if jobs, err = serveSchedule(cfg.seed, stepLen, rates); err != nil {
			return err
		}
		env, err = startServe(cfg.workdir)
		return err
	})
	if err != nil {
		return o, err
	}
	defer env.close()

	cacheBefore := env.cache.Stats()
	m := startMeter()
	start := time.Now().Add(10 * time.Millisecond)
	recs, ls := drive(env.ts.URL, jobs, start)
	wallEnd := start
	for _, t := range recs {
		if t.seen.After(wallEnd) {
			wallEnd = t.seen
		}
	}
	_, cpuS, allocs := m.stop()
	rss := peakRSSMB()
	sp, err := cfg.probe.stop()
	if err != nil {
		return o, err
	}
	o.note("%s", cfg.probe.describe())
	gateServe(jobs, recs, &o)
	setLatencies(jobs, recs, start)
	sw := steps(jobs, start, stepLen)
	ss := stepStats(jobs, recs, start, sw)
	o.note("serve_mixed: %d jobs in steps of %v", len(jobs), stepLen)
	for k, st := range ss {
		o.note("step R%d %.1f jobs/s: %d jobs, p50 %.2f p90 %.2f p95 %.2f geo %.2f ms, backlog %+d, completed at %.2f jobs/s, sustained %v",
			k+1, rates[k], st.jobs, st.p50, st.p90, st.p95, st.geo, st.growth, st.rate, st.sustained)
	}

	lag := make([]float64, len(recs))
	for i, t := range recs {
		lag[i] = ms(t.sent.Sub(start.Add(jobs[i].due)))
	}
	for k, w := range sw {
		stepLag := make([]float64, len(w.jobs))
		for n, i := range w.jobs {
			stepLag[n] = lag[i]
		}
		if p := percentile(stepLag, 0.99); p > 5 {
			o.note("WARNING step R%d load generator lag p99 %.2f ms exceeds 5 ms: its latencies are not valid", k+1, p)
		}
	}
	if cfg.rec == nil {
		// The latency metrics pool every job of the run (398 at 20 s, so
		// p95 has 20 samples beyond it). The tail is set mostly by the
		// schedule the seed draws — which kernels the transpiles fuzz and
		// which jobs arrive together — and over 20 runs of ten seeds the
		// pooled p95 spread by 12% between quartiles, against 15% for the
		// median over steps of each step's p95 and 16% for R2's alone.
		all := make([]float64, len(recs))
		var okLat []float64
		for i, t := range recs {
			all[i] = t.latencyMS
			if t.ok {
				okLat = append(okLat, t.latencyMS)
			}
		}
		geo, p50, p95 := geomean(okLat), percentile(all, 0.50), percentile(all, 0.95)
		// Timings scale with the host's speed; wall_s and
		// sustained_jobs_per_s are bound by the fixed schedule and do not.
		o.metrics = map[string]float64{
			"setup_s":              sp.wall * median(setupS),
			"wall_s":               wallEnd.Sub(start).Seconds(),
			"cpu_s":                sp.cpu * cpuS,
			"job_geomean_ms":       sp.wall * geo,
			"job_p50_ms":           sp.wall * p50,
			"job_p95_ms":           sp.wall * p95,
			"sustained_jobs_per_s": sustainedRate(ss),
			"ok_share":             1 - share(float64(o.failed), float64(o.attempted)),
			"allocs_per_job":       share(float64(allocs), float64(len(jobs))),
			"peak_rss_mb":          rss,
		}
		o.note("unscaled: setup_s %.4g cpu_s %.4g job_geomean_ms %.4g job_p50_ms %.4g job_p95_ms %.4g",
			median(setupS), cpuS, geo, p50, p95)
		return o, nil
	}
	o.metrics = serveLayerMetrics(cfg, env, jobs, recs, ls, env.cache.Stats().Sub(cacheBefore), start, wallEnd)
	o.metrics["loadgen.lag_p99_ms"] = percentile(lag, 0.99)
	return o, nil
}

// serveLayerMetrics derives the per-layer numbers of a traced serve run
// from job status timestamps, the daemon's /metrics registry, the cache's
// statistics, and a layer replay of the first fresh jobs.
func serveLayerMetrics(cfg config, env *serveEnv, jobs []serveJob, recs []tracked, ls loadStats,
	cs evalcache.Stats, start, end time.Time) map[string]float64 {
	rec := cfg.rec
	var submitMS, waitMS []float64
	runMS := map[serve.Kind][]float64{}
	var tests int
	var coverage []float64
	rejected := 0
	for i, t := range recs {
		if t.refused {
			rejected++
		}
		if t.st.StartedMS == 0 {
			continue
		}
		submitMS = append(submitMS, ms(t.accepted.Sub(t.sent)))
		waitMS = append(waitMS, float64(t.st.StartedMS-t.st.CreatedMS))
		runMS[jobs[i].req.Kind] = append(runMS[jobs[i].req.Kind], float64(t.st.FinishedMS-t.st.StartedMS))
		// Spans from the job's own timestamps (millisecond resolution).
		job := fmt.Sprintf("s%d", i)
		due := start.Add(jobs[i].due)
		root := rec.add("serve.job", due, t.seen, -1, job)
		rec.add("serve.submit", t.sent, t.accepted, root, job)
		rec.add("serve.queue", time.UnixMilli(t.st.CreatedMS), time.UnixMilli(t.st.StartedMS), root, job)
		rec.add("serve.run", time.UnixMilli(t.st.StartedMS), time.UnixMilli(t.st.FinishedMS), root, job)
		if jobs[i].req.Kind == serve.KindTranspile && jobs[i].resubOf < 0 {
			var res serve.Result
			if json.Unmarshal(t.st.Result, &res) == nil && res.Transpile != nil {
				tests += res.Transpile.Tests
				coverage = append(coverage, res.Transpile.Coverage)
			}
		}
	}
	busy := rec.busy

	var sample []replayJob
	for i, j := range jobs {
		if len(sample) >= serveReplayJobs {
			break
		}
		if j.resubOf >= 0 {
			continue
		}
		u, err := cparser.Parse(j.req.Source)
		if err != nil {
			continue
		}
		sp, err := fuzz.SpecOf(u, j.req.Kernel)
		if err != nil {
			continue
		}
		r := rand.New(rand.NewSource(mixSeed(cfg.seed, -4, int64(i))))
		sample = append(sample, replayJob{id: fmt.Sprintf("s%d", i), source: j.req.Source,
			kernel: j.req.Kernel, tests: drawInputs(sp, r, coldInputs)})
	}
	m, _ := replayLayers(rec, sample)

	var reg struct {
		Counters   map[string]int64         `json:"counters"`
		Histograms map[string]obs.Histogram `json:"histograms"`
	}
	if resp, err := http.Get(env.ts.URL + "/metrics"); err == nil {
		json.NewDecoder(resp.Body).Decode(&reg)
		resp.Body.Close()
	}
	c := func(name string) float64 { return float64(reg.Counters[name]) }
	phase := func(name string) (sum, count float64) {
		h := reg.Histograms["phase.wall_ms."+name]
		return h.Sum, float64(h.Count)
	}
	fuzzSum, fuzzN := phase("fuzz")
	profSum, profN := phase("profile")
	repSum, repN := phase("repair")
	repairRunMS := 0.0
	for _, v := range runMS[serve.KindRepair] {
		repairRunMS += v
	}
	execs := c("fuzz.execs")
	m["core.fuzz_ms"] = share(fuzzSum, fuzzN)
	m["core.profile_ms"] = share(profSum, profN)
	m["core.repair_ms"] = share(repSum, repN)
	m["core.fuzz_share"] = share(fuzzSum, fuzzSum+profSum+repSum)
	m["fuzz.execs"] = share(execs, c("fuzz.campaigns"))
	m["fuzz.exec_us"] = share(fuzzSum*1000, execs)
	// The daemon exposes fuzz totals only, not which inputs it executed,
	// so the share of fuzz time outside kernel execution is not measured.
	m["fuzz.self_share"] = 0
	m["fuzz.retained_per_exec"] = share(float64(tests), execs)
	m["fuzz.coverage"] = median(coverage)
	m["repair.candidates"] = share(c("repair.candidates"), c("repair.searches"))
	m["repair.hls_invocations"] = share(c("repair.hls_invocations"), c("repair.searches"))
	m["repair.accept_share"] = share(c("repair.accepted"), c("repair.candidates"))
	m["repair.cand_per_s"] = share(c("repair.candidates"), (repairRunMS+repSum)/1000)
	setHitShares(m, cs)
	m["serve.submit_ms"] = median(submitMS)
	// Status timestamps have millisecond resolution.
	m["serve.queue_wait_p95_ms"] = groupedPercentile(waitMS, 0.95)
	m["serve.run_ms.check"] = groupedPercentile(runMS[serve.KindCheck], 0.5)
	m["serve.run_ms.repair"] = groupedPercentile(runMS[serve.KindRepair], 0.5)
	m["serve.run_ms.transpile"] = groupedPercentile(runMS[serve.KindTranspile], 0.5)
	m["serve.rejected"] = float64(rejected)
	m["serve.backlog_max"] = float64(ls.backlogMax)
	m["loadgen.poll_ms"] = ms(ls.pollTime) / float64(max(ls.pollCycles, 1))
	// The daemon's event sink is on in both modes; tracing adds only the
	// benchmark's span recording, timed directly.
	m["trace.overhead_share"] = share(busy.Seconds(), end.Sub(start).Seconds())
	return m
}

// zeroServeMetrics fills the serve and load-generator metrics a batch
// workload does not exercise.
func zeroServeMetrics(m map[string]float64) {
	for _, k := range []string{"serve.submit_ms", "serve.queue_wait_p95_ms", "serve.run_ms.check",
		"serve.run_ms.repair", "serve.run_ms.transpile", "serve.rejected", "serve.backlog_max",
		"loadgen.lag_p99_ms", "loadgen.poll_ms"} {
		m[k] = 0
	}
}

// calibrateServe measures the mix's capacity as the open loop meets it:
// the schedule arrives at 250 jobs/s, well past capacity, for the window,
// and the capacity is the completion rate over the window's last two
// thirds, once the daemon is saturated. It prints the capacity and the
// step rates it implies.
func calibrateServe(cfg config, w io.Writer) error {
	stepLen := cfg.window / 3
	jobs, err := serveSchedule(cfg.seed, stepLen, [3]float64{250, 250, 250})
	if err != nil {
		return err
	}
	env, err := startServe(cfg.workdir)
	if err != nil {
		return err
	}
	defer env.close()
	start := time.Now()
	recs, _ := drive(env.ts.URL, jobs, start)
	from, to := start.Add(stepLen), start.Add(cfg.window)
	done := 0
	for _, t := range recs {
		if t.seen.After(from) && !t.seen.After(to) {
			done++
		}
	}
	capacity := float64(done) / to.Sub(from).Seconds()
	fmt.Fprintf(w, "saturated open-loop capacity: %.2f jobs/s (%d jobs completed in %v)\n", capacity, done, to.Sub(from))
	fmt.Fprintf(w, "step rates 0.3x/0.6x/0.9x: %.1f %.1f %.1f jobs/s\n", 0.3*capacity, 0.6*capacity, 0.9*capacity)
	return nil
}
