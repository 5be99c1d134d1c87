package serve

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/core"
	"github.com/hetero/heterogen/internal/crashpoint"
	"github.com/hetero/heterogen/internal/evalcache"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/guard"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/obs"
	"github.com/hetero/heterogen/internal/repair"
)

// Options configures a Server.
type Options struct {
	// Pool is the number of concurrently running jobs (default
	// GOMAXPROCS).
	Pool int
	// QueueDepth bounds the admitted-but-waiting queue; a submit that
	// finds it full is rejected with 429 + Retry-After (default
	// 4*Pool).
	QueueDepth int
	// PerClient caps one client's queued+running jobs (identified by
	// the X-Client-ID header, falling back to the remote address).
	// Default 8; negative disables the cap.
	PerClient int
	// Limits caps every job's budget fields; zero fields take
	// DefaultLimits.
	Limits Budget
	// Defaults fill a request's unset budget fields; zero fields take
	// DefaultBudget.
	Defaults Budget
	// DefaultTargets fills the target set of requests that omit the
	// targets field (hgserve's -backend/-device/-target flags). Nil
	// leaves such requests untargeted (the default target, unnamed).
	DefaultTargets []hls.Target
	// Cache, when non-nil, is shared by every job (typically sharded —
	// see evalcache.Options.Shards — since jobs run concurrently).
	Cache *evalcache.Cache
	// Metrics receives serve.* counters plus every job's event-derived
	// metrics; exported at GET /metrics. Nil allocates a private
	// registry.
	Metrics *obs.Registry
	// QuarantineDir receives minimized reproducers of deterministic
	// stage failures (guard.Options.QuarantineDir); "" disables.
	QuarantineDir string
	// Injector plants deterministic faults in every job's guarded
	// stages (internal/chaos); nil disables injection.
	Injector guard.Injector
	// Warn receives one human-readable line per distinct contained
	// failure and cache degrade; nil discards.
	Warn func(string)
	// MaxBodyBytes bounds the request body (default 4 MiB).
	MaxBodyBytes int64
	// RetryAfter is advertised on 429 responses (default 1s).
	RetryAfter time.Duration
	// MaxJobs bounds the retained job records; the oldest terminal
	// jobs are evicted past it (default 4096).
	MaxJobs int
	// Logger receives structured per-job records (admission, state
	// transitions, phase boundaries, persistence) with each job's
	// correlation id attached. Nil discards.
	Logger *slog.Logger
	// TraceDir, when set, retains every terminal job's deterministic
	// event trace as <id>.jsonl plus an <id>.meta.json operational
	// sidecar — the feed hgstat ingests. "" disables retention.
	TraceDir string
	// QueueWaitSLO is the queue-wait objective: a job that waits longer
	// before starting counts into serve.slo.queue_wait_violations.
	// Zero disables the counter.
	QueueWaitSLO time.Duration
	// StateDir, when set, makes the server crash-recoverable: every job
	// state transition is appended (fsynced) to a write-ahead journal
	// under it before the transition is visible to clients. A restarted
	// server replays the journal: terminal jobs are re-reported, and
	// interrupted jobs are re-enqueued and run again from the start.
	// The search is deterministic, so the re-run's result and trace are
	// byte-identical to an uninterrupted run's; with a persistent Cache
	// it only pays for the work the interrupted run had not finished.
	// "" disables durability.
	StateDir string
}

// AdmissionError is a rejected submission: the server is over one of
// its admission bounds or shutting down. HTTP maps it to status 429
// with a Retry-After header.
type AdmissionError struct {
	Reason     string        // "queue_full", "client_cap", or "draining"
	RetryAfter time.Duration // suggested client backoff
}

func (e *AdmissionError) Error() string {
	return "serve: admission rejected: " + e.Reason
}

// Server runs jobs on a bounded pool behind admission control. Create
// with New, expose with Handler, stop with Close.
type Server struct {
	opts     Options
	limits   Budget
	defaults Budget
	metrics  *obs.Registry
	started  time.Time

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
	queue   chan *Job

	// journal is the write-ahead job log (nil without Options.StateDir).
	journal *journal
	// drainCh closes when a graceful drain starts: idle workers exit
	// and no further queued jobs are dequeued.
	drainCh chan struct{}

	// gate, when non-nil, makes workers wait for one token per job
	// before executing — a test hook for deterministic backpressure.
	gate chan struct{}

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	inflight map[string]int
	nextID   int64
	closed   bool
	draining bool
	ready    bool
}

// New builds a server and starts its worker pool. With
// Options.StateDir set, the state journal is replayed first: terminal
// jobs reappear as reportable history and interrupted ones are
// re-enqueued before the pool starts. Until replay completes the
// server reports not-ready (GET /readyz → 503).
func New(opts Options) *Server {
	s := newServer(opts)
	if opts.StateDir != "" {
		if err := s.recover(); err != nil {
			s.metrics.Add("serve.recovery.errors", 1)
			s.logger().Error("state recovery failed; running without durability",
				"state_dir", opts.StateDir, "error", err)
			if opts.Warn != nil {
				opts.Warn(fmt.Sprintf("serve: state recovery failed, durability disabled: %v", err))
			}
		}
	}
	s.start()
	s.mu.Lock()
	s.ready = true
	s.mu.Unlock()
	return s
}

// newServer builds the server without starting workers, so tests can
// install the gate hook race-free before the pool runs.
func newServer(opts Options) *Server {
	if opts.Pool <= 0 {
		opts.Pool = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 4 * opts.Pool
	}
	if opts.PerClient == 0 {
		opts.PerClient = 8
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 4 << 20
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 4096
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	s := &Server{
		opts:     opts,
		limits:   opts.Limits.fill(DefaultLimits()),
		defaults: opts.Defaults.fill(DefaultBudget()).clampTo(opts.Limits.fill(DefaultLimits())),
		metrics:  opts.Metrics,
		started:  time.Now(),
		queue:    make(chan *Job, opts.QueueDepth),
		jobs:     map[string]*Job{},
		inflight: map[string]int{},
		drainCh:  make(chan struct{}),
	}
	s.baseCtx, s.stop = context.WithCancel(context.Background())
	return s
}

// recover replays the write-ahead journal under Options.StateDir.
func (s *Server) recover() error {
	dir := s.opts.StateDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	jn, entries, err := openJournal(dir)
	if err != nil {
		return err
	}
	s.journal = jn
	s.nextID = maxJobID(entries)

	var requeue []*Job
	for _, e := range entries {
		targets, terr := hls.ParseTargets(e.req.Targets)
		if terr != nil {
			// The target set validated at submission; a parse failure now
			// means the server's backend registry shrank. Surface it as a
			// failed job rather than dropping the id.
			e.state, e.errMsg = StateFailed, fmt.Sprintf("serve: recovery: %v", terr)
		}
		if len(targets) == 0 {
			targets = s.opts.DefaultTargets
		}
		j := &Job{
			id:      e.id,
			kind:    e.req.Kind,
			client:  e.client,
			corr:    e.corr,
			budget:  e.req.Budget.fill(s.defaults).clampTo(s.limits),
			req:     e.req,
			targets: targets,
			events:  newEventLog(),
			created: time.UnixMilli(e.acceptedMS),
			resumed: true,
		}
		if j.corr == "" {
			j.corr = j.id
		}
		j.ctx, j.cancel = context.WithCancel(s.baseCtx)
		if e.state.Terminal() {
			j.state = e.state
			j.result = e.result
			j.errMsg = e.errMsg
			j.failure = e.failure
			j.finished = time.UnixMilli(e.lastMS)
			j.events.finish()
			j.cancel()
			s.metrics.Add("serve.recovery.terminal_reloaded", 1)
		} else {
			// accepted / queued / running / checkpointed: run again from
			// the start; the shared cache holds the finished work.
			j.state = StateQueued
			requeue = append(requeue, j)
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
	}

	// The restored backlog may exceed the configured queue depth; size
	// the channel to hold all of it (workers have not started yet).
	if len(requeue) > cap(s.queue) {
		s.queue = make(chan *Job, len(requeue)+s.opts.QueueDepth)
	}
	for _, j := range requeue {
		s.queue <- j
		s.inflight[j.client]++
		s.metrics.Add("serve.queue.depth", 1)
		s.metrics.Add("serve.recovery.jobs_requeued", 1)
		s.jobLogger(j).Info("job requeued from journal")
	}
	if n := len(entries); n > 0 {
		s.logger().Info("journal replayed",
			"jobs", n, "requeued", len(requeue), "state_dir", dir)
	}
	return nil
}

// start launches the worker pool.
func (s *Server) start() {
	for i := 0; i < s.opts.Pool; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Close stops admitting, cancels every live job, and waits for the
// pool to drain.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.stop()
	s.wg.Wait()
	s.journal.close()
}

// Drain gracefully quiesces the server for shutdown:
//
//  1. Admission stops — new submissions get 429 "draining" and
//     GET /readyz turns 503 — and workers stop dequeuing, so queued
//     jobs stay journaled "accepted" for the next process to run.
//  2. Running jobs get up to timeout to finish normally (their
//     terminal records journal as usual).
//  3. Jobs still running at the deadline are stopped at their next
//     commit point and journaled "checkpointed": a restart re-enqueues
//     them and re-runs them against the shared cache to byte-identical
//     results.
//  4. The journal is fsynced and closed.
//
// Drain is idempotent; it does not cancel the server's base context
// (call Close afterwards to release the job records). Returns the
// number of jobs that were stopped at the deadline.
func (s *Server) Drain(timeout time.Duration) int {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	s.mu.Unlock()
	if first {
		close(s.drainCh)
	}
	s.logger().Info("drain started", "timeout", timeout.String())

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	stopped := 0
	select {
	case <-done:
	case <-time.After(timeout):
		// Deadline: stop whatever is still running. The cancellation
		// lands at the search's next commit point; the cache already
		// holds every evaluation finished before it.
		s.mu.Lock()
		var running []*Job
		for _, id := range s.order {
			j := s.jobs[id]
			if j == nil {
				continue
			}
			j.mu.Lock()
			if j.state == StateRunning {
				j.drainStop = true
				running = append(running, j)
			}
			j.mu.Unlock()
		}
		s.mu.Unlock()
		for _, j := range running {
			s.jobLogger(j).Info("drain stopping job")
			j.cancel()
		}
		stopped = len(running)
		<-done
	}
	crashpoint.Here("serve.drain")
	s.journal.close()
	s.metrics.Add("serve.drain.checkpoint_stopped", int64(stopped))
	s.logger().Info("drain complete", "stopped", stopped)
	return stopped
}

// Metrics exposes the server's registry (for embedding callers).
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Submit validates, admits, and enqueues a job for client. The
// returned job is already visible to Get. A full queue or an
// over-cap client yields an *AdmissionError.
func (s *Server) Submit(req Request, client string) (*Job, error) {
	return s.SubmitWithCorrelation(req, client, "")
}

// SubmitWithCorrelation is Submit with a caller-supplied correlation
// id (e.g. the X-Correlation-ID header) threaded through every log
// record, the job status, and the retained trace sidecar. An empty id
// defaults to the job's own id.
func (s *Server) SubmitWithCorrelation(req Request, client, corr string) (*Job, error) {
	if !ValidKind(req.Kind) {
		return nil, fmt.Errorf("serve: unknown job kind %q (want one of %v)", req.Kind, Kinds())
	}
	if req.Source == "" {
		return nil, fmt.Errorf("serve: empty source")
	}
	if req.Kernel == "" {
		return nil, fmt.Errorf("serve: no kernel specified")
	}
	targets, terr := hls.ParseTargets(req.Targets)
	if terr != nil {
		return nil, fmt.Errorf("serve: %w", terr)
	}
	if len(targets) == 0 {
		targets = s.opts.DefaultTargets
	}
	eff := req.Budget.fill(s.defaults).clampTo(s.limits)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("serve: server closed")
	}
	if s.draining {
		s.metrics.Add("serve.jobs.rejected.draining", 1)
		s.logger().Warn("admission rejected", "reason", "draining",
			"client", client, "correlation_id", corr)
		return nil, &AdmissionError{Reason: "draining", RetryAfter: s.opts.RetryAfter}
	}
	if s.opts.PerClient > 0 && s.inflight[client] >= s.opts.PerClient {
		s.metrics.Add("serve.jobs.rejected.client_cap", 1)
		s.metrics.Add("serve.slo.overload_rejections", 1)
		s.logger().Warn("admission rejected", "reason", "client_cap",
			"client", client, "correlation_id", corr)
		return nil, &AdmissionError{Reason: "client_cap", RetryAfter: s.opts.RetryAfter}
	}
	s.nextID++
	j := &Job{
		id:      fmt.Sprintf("j-%06d", s.nextID),
		kind:    req.Kind,
		client:  client,
		corr:    corr,
		budget:  eff,
		req:     req,
		targets: targets,
		events:  newEventLog(),
		state:   StateQueued,
		created: time.Now(),
	}
	if j.corr == "" {
		j.corr = j.id
	}
	j.ctx, j.cancel = context.WithCancel(s.baseCtx)
	select {
	case s.queue <- j:
	default:
		s.metrics.Add("serve.jobs.rejected.queue_full", 1)
		s.metrics.Add("serve.slo.overload_rejections", 1)
		s.logger().Warn("admission rejected", "reason", "queue_full",
			"client", client, "correlation_id", corr)
		return nil, &AdmissionError{Reason: "queue_full", RetryAfter: s.opts.RetryAfter}
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.inflight[client]++
	s.metrics.Add("serve.jobs.submitted", 1)
	s.metrics.Add("serve.queue.depth", 1)
	s.evictLocked()
	// The admission becomes durable before the caller sees it: the
	// journal line (request payload included) is fsynced here, so a
	// crash any time after the 202 cannot lose the job.
	s.journalAppend(journalRecord{ID: j.id, State: stateAccepted,
		Client: client, Corr: j.corr, Req: &req, MS: j.created.UnixMilli()})
	s.jobLogger(j).Info("job admitted", "queue_depth", len(s.queue))
	return j, nil
}

// journalAppend writes one record to the write-ahead journal (no-op
// without a state dir). Append failures degrade durability, never
// availability: they log and count, and the job proceeds in memory.
func (s *Server) journalAppend(rec journalRecord) {
	if s.journal == nil {
		return
	}
	if err := s.journal.append(rec); err != nil {
		s.metrics.Add("serve.journal.append_errors", 1)
		s.logger().Error("journal append failed", "job", rec.ID,
			"state", string(rec.State), "error", err)
		return
	}
	s.metrics.Add("serve.journal.appends", 1)
}

// evictLocked drops the oldest terminal jobs past the retention bound.
func (s *Server) evictLocked() {
	if len(s.jobs) <= s.opts.MaxJobs {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if len(s.jobs) > s.opts.MaxJobs && j != nil && j.Status().State.Terminal() {
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Get returns a job by id (nil when unknown or evicted).
func (s *Server) Get(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Cancel requests cancellation of a job. A queued job turns terminal
// immediately; a running job is cancelled at its next commit point and
// keeps its best-so-far partial result. Terminal jobs are untouched.
// Returns false when the id is unknown.
func (s *Server) Cancel(id string) bool {
	j := s.Get(id)
	if j == nil {
		return false
	}
	j.mu.Lock()
	// userCancelled distinguishes an explicit DELETE from a drain stop:
	// a drain journals "checkpointed" (resumable), a user cancellation
	// journals "cancelled" (terminal) — the user's intent wins the race.
	j.userCancelled = true
	wasQueued := j.state == StateQueued
	if wasQueued {
		j.state = StateCancelled
		j.finished = time.Now()
	}
	j.mu.Unlock()
	j.cancel()
	if wasQueued {
		// A second DELETE finds the job already terminal (wasQueued
		// false), so the journal line and accounting stay exactly-once.
		s.journalAppend(record(j, StateCancelled))
		j.events.finish()
		s.finishAccounting(j, StateCancelled)
	}
	return true
}

// finishAccounting releases the client's in-flight slot and counts the
// terminal transition. Called exactly once per job.
func (s *Server) finishAccounting(j *Job, st State) {
	s.mu.Lock()
	if s.inflight[j.client] > 0 {
		s.inflight[j.client]--
		if s.inflight[j.client] == 0 {
			delete(s.inflight, j.client)
		}
	}
	s.mu.Unlock()
	s.metrics.Add("serve.jobs."+string(st), 1)
}

// worker drains the queue until the server closes or drains.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-s.drainCh:
			return
		case j := <-s.queue:
			// The select picks randomly among ready cases, so re-check:
			// once a drain starts no queued job may begin running. The
			// dequeued job stays "accepted" in the journal and runs after
			// restart; its in-memory state stays queued until shutdown.
			if s.isDraining() {
				return
			}
			s.metrics.Add("serve.queue.depth", -1)
			if s.gate != nil {
				select {
				case <-s.gate:
				case <-s.baseCtx.Done():
					return
				case <-s.drainCh:
					return
				}
			}
			s.runJob(j)
		}
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// runJob executes one dequeued job through its terminal transition.
func (s *Server) runJob(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued {
		// Cancelled while waiting; accounting already done.
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	queueWait := j.started.Sub(j.created)
	j.mu.Unlock()
	s.journalAppend(record(j, StateRunning))
	s.metrics.Add("serve.jobs.running", 1)
	s.metrics.Observe("serve.queue_wait_ms", float64(queueWait.Milliseconds()))
	if s.opts.QueueWaitSLO > 0 && queueWait > s.opts.QueueWaitSLO {
		s.metrics.Add("serve.slo.queue_wait_violations", 1)
		s.jobLogger(j).Warn("queue wait SLO violated",
			"queue_wait_ms", queueWait.Milliseconds(),
			"slo_ms", s.opts.QueueWaitSLO.Milliseconds())
	}
	s.jobLogger(j).Info("job running", "queue_wait_ms", queueWait.Milliseconds())

	// Cache stats are cumulative over the shared cache; the before/after
	// difference attributes activity to this job. With concurrent jobs on
	// one cache the attribution is approximate — deltas overlap — but it
	// is exact in single-job flows and always sums correctly fleet-wide.
	cacheBefore := s.opts.Cache.Stats()
	res, jerr := s.execute(j)
	cacheDelta := s.opts.Cache.Stats().Sub(cacheBefore)

	st := StateDone
	var msg string
	var failure *guard.StageFailure
	switch {
	case jerr != nil && j.ctx.Err() != nil && res != nil:
		// Cancelled mid-run with a best-so-far outcome.
		st = StateCancelled
		res.Partial = true
	case jerr != nil:
		st = StateFailed
		msg = jerr.Error()
		failure = asFailure(jerr)
	}

	j.mu.Lock()
	// A drain stop is not a cancellation: the journal keeps the job
	// resumable ("checkpointed") so a restart re-runs it against the
	// cache, while the in-memory record for this process's clients
	// reads cancelled-with-partial. An explicit user DELETE that raced
	// the drain wins — the job stays terminal across the restart.
	drainStopped := j.drainStop && !j.userCancelled && j.ctx.Err() != nil && st != StateDone
	j.state = st
	j.result = res
	j.errMsg = msg
	j.failure = failure
	j.finished = time.Now()
	wall := j.finished.Sub(j.started)
	j.mu.Unlock()
	if drainStopped {
		s.journalAppend(record(j, stateCheckpointed))
	} else {
		rec := record(j, st)
		rec.Result, rec.Error, rec.Failure = res, msg, failure
		s.journalAppend(rec)
	}
	j.events.finish()
	j.cancel()
	s.metrics.Add("serve.jobs.running", -1)
	s.metrics.Observe("serve.job_wall_ms."+string(j.kind), float64(wall.Milliseconds()))
	s.finishAccounting(j, st)
	log := s.jobLogger(j)
	if msg != "" {
		log.Error("job terminal", "state", string(st), "wall_ms", wall.Milliseconds(), "error", msg)
	} else {
		log.Info("job terminal", "state", string(st), "wall_ms", wall.Milliseconds())
	}
	s.persistTrace(j, st, queueWait, wall, cacheDelta)
}

// asFailure digs a typed *guard.StageFailure out of an error chain
// (entry points wrap containments, e.g. "heterogen: parse: guard: …").
func asFailure(err error) *guard.StageFailure {
	for e := err; e != nil; {
		if f := guard.AsFailure(e); f != nil {
			return f
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return nil
		}
		e = u.Unwrap()
	}
	return nil
}

// execute dispatches one job to its pipeline entry point. A non-nil
// *Result alongside a non-nil error is a cancelled job's partial
// outcome. A panic escaping the glue between guarded stages is
// contained here as a StageEval failure — one bad job never takes the
// daemon down.
func (s *Server) execute(j *Job) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, guard.PanicFailure(guard.StageEval, r)
		}
	}()
	g := guard.New(guard.Options{
		StageDeadline: time.Duration(j.budget.StageDeadlineMS) * time.Millisecond,
		InterpSteps:   j.budget.InterpSteps,
		QuarantineDir: s.opts.QuarantineDir,
		Injector:      s.opts.Injector,
		Metrics:       s.metrics,
		Warn:          s.opts.Warn,
	})
	sink := obs.Multi(j.events, s.metrics)
	if s.opts.Logger != nil {
		// The log tap rides beside the event log, never inside it: trace
		// bytes stay byte-identical with logging on or off.
		sink = obs.Multi(sink, phaseLogger{log: s.jobLogger(j)})
	}
	if len(j.targets) > 0 {
		// Targeted jobs stamp every event with the canonical target set —
		// a configuration edge, so untargeted jobs' traces are unchanged.
		sink = obs.TagTarget(sink, hls.TargetSetString(j.targets))
	}
	copts := core.Options{
		Kernel:   j.req.Kernel,
		HostMain: j.req.Host,
		Fuzz:     fuzz.Options{Seed: j.req.Seed, MaxExecs: j.budget.FuzzExecs},
		Repair:   repair.Options{Seed: j.req.Seed, MaxIterations: j.budget.MaxIterations},
		Workers:  j.budget.Workers,
		Targets:  j.targets,
		Obs:      sink,
		Cache:    s.opts.Cache,
		Guard:    g,
	}

	switch j.kind {
	case KindTranspile:
		r, rerr := core.RunContext(j.ctx, j.req.Source, copts)
		if rerr != nil {
			if j.ctx.Err() != nil && r.Final != nil {
				return &Result{Transpile: transpileResult(r)}, rerr
			}
			return nil, rerr
		}
		return &Result{Transpile: transpileResult(r)}, nil
	case KindCheck:
		reps, cerr := core.Check(j.req.Source, copts)
		if cerr != nil {
			return nil, cerr
		}
		return &Result{Check: checkResult(reps, len(j.targets) > 0)}, nil
	case KindRepair:
		rr, rerr := core.RepairStageContext(j.ctx, j.req.Source, copts)
		if rerr != nil {
			if j.ctx.Err() != nil && rr.Unit != nil {
				return &Result{Repair: repairResult(rr, cast.Print(rr.Unit))}, rerr
			}
			return nil, rerr
		}
		return &Result{Repair: repairResult(rr, cast.Print(rr.Unit))}, nil
	case KindFuzz:
		camp, ferr := core.FuzzStage(j.ctx, j.req.Source, copts)
		if ferr != nil {
			return nil, ferr
		}
		if cerr := j.ctx.Err(); cerr != nil {
			return &Result{Fuzz: fuzzResult(camp)}, fmt.Errorf("heterogen: cancelled during fuzz: %w", cerr)
		}
		return &Result{Fuzz: fuzzResult(camp)}, nil
	}
	return nil, fmt.Errorf("serve: unhandled kind %q", j.kind)
}

// Handler returns the HTTP API (see http.go for the routes).
func (s *Server) Handler() http.Handler {
	return s.routes()
}
