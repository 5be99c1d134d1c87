// Concurrent candidate evaluation for the repair search.
//
// The paper's repair loop (§5.3–5.4) spends nearly all of its time in
// fitness evaluation: every candidate pays a style check, a full HLS
// compatibility check, latency simulation, and differential testing
// against the CPU execution. Those evaluations are independent across
// candidates — each runs on its own clone of the program against the
// immutable original and test suite — so this file fans them out over a
// bounded worker pool. A candidate is built (cloned and edited) when the
// search reaches it: the search goroutine builds one batch, the workers
// evaluate it, and only then is the next batch built, so no worker runs
// while an edit is being applied.
//
// Determinism contract: results are bit-identical to the sequential
// search for the same Options.Seed, whatever Workers is set to. The
// pool only ever *computes* outcomes (computeOutcome, pure); it never
// touches searcher state. The search goroutine then *commits* outcomes
// strictly in candidate enumeration order: budget checks, virtual-cost
// accounting (one toolchain license ⇒ one ordered cost stream), dedupe
// bookkeeping, and the accept-first-improvement rule all replay exactly
// the sequence the sequential loop performs. Speculative evaluations
// past the accepted candidate are discarded — they cost real CPU, not
// virtual time.
package repair

import (
	"sync"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/guard"
	"github.com/hetero/heterogen/internal/obs"
)

// speculationFactor sizes evaluation batches relative to the worker
// count: large enough to keep workers busy across style-rejected
// candidates, small enough to bound wasted work when an early candidate
// is accepted.
const speculationFactor = 2

// evalPool is a bounded pool of evaluation workers shared by all steps
// of one search.
type evalPool struct {
	workers int
	jobs    chan evalJob

	// mu guards committedVirtual, the virtual seconds committed so far
	// by the search goroutine. Workers consult it before starting a
	// speculative evaluation: once the shared budget is exhausted no
	// later candidate can ever be charged (virtual time only grows and
	// commits happen in order), so computing it would be pure waste.
	mu               sync.Mutex
	committedVirtual float64
	budget           float64
}

// evalJob asks a worker to compute the outcome of one candidate unit.
type evalJob struct {
	s    *searcher
	unit *cast.Unit
	out  *evalOutcome
	wg   *sync.WaitGroup
}

// newEvalPool starts workers goroutines feeding on a shared job queue.
func newEvalPool(workers int, budget float64) *evalPool {
	p := &evalPool{
		workers: workers,
		jobs:    make(chan evalJob, workers*speculationFactor),
		budget:  budget,
	}
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *evalPool) worker() {
	for job := range p.jobs {
		if !p.budgetExhausted() {
			*job.out = job.s.safeOutcome(job.unit)
		}
		job.wg.Done()
	}
}

// safeOutcome is computeOutcome with a last-resort recover. The stage
// bodies are individually contained by guard.Do, but the glue between
// them (printing for cache keys, line counting) runs unguarded, and a
// panic on a worker goroutine would kill the whole process. The
// backstop converts it into a contained failure under the synthetic
// "eval" stage label.
func (s *searcher) safeOutcome(u *cast.Unit) (out evalOutcome) {
	defer func() {
		if r := recover(); r != nil {
			out = evalOutcome{computed: true, failure: guard.PanicFailure(guard.StageEval, r)}
		}
	}()
	return s.computeOutcome(u)
}

// close shuts the workers down; the pool must not be used afterwards.
func (p *evalPool) close() { close(p.jobs) }

// commit records virtual seconds the search goroutine has charged, so
// workers can stop speculating once the budget is gone.
func (p *evalPool) commit(virtualSeconds float64) {
	p.mu.Lock()
	p.committedVirtual = virtualSeconds
	p.mu.Unlock()
}

func (p *evalPool) budgetExhausted() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.committedVirtual >= p.budget
}

// batchSize is how many candidates are built and speculatively
// evaluated per batch; without a pool (nil) the search builds and
// evaluates one candidate at a time.
func (p *evalPool) batchSize() int {
	if p == nil {
		return 1
	}
	return p.workers * speculationFactor
}

// evaluateBatch computes outcomes for a batch concurrently. Without a
// pool (nil) nothing is scheduled and every outcome stays zero-valued
// (computed == false). It returns only when every job is done, so no
// worker runs while the search goroutine builds the next batch.
func (p *evalPool) evaluateBatch(s *searcher, batch []Candidate) []evalOutcome {
	outcomes := make([]evalOutcome, len(batch))
	if p == nil {
		return outcomes
	}
	var wg sync.WaitGroup
	wg.Add(len(batch))
	for i, cand := range batch {
		p.jobs <- evalJob{s: s, unit: cand.Unit, out: &outcomes[i], wg: &wg}
	}
	wg.Wait()
	return outcomes
}

// stopped reports whether the search must stop between candidates: the
// virtual budget is spent or the context is done.
func (s *searcher) stopped() bool {
	return s.stats.VirtualSeconds >= float64(s.opts.Budget) || s.ctx.Err() != nil
}

// evalCandidates is the shared candidate-trial engine behind repairStep,
// its WithoutDependence attempt loop, and perfStep. It pulls candidates
// from next in enumeration order — the enumerator builds each one only
// when it is pulled — and accepts the first one whose score improves on
// *curScore, charging virtual costs as it goes. tried, when non-nil, is
// told of every candidate the commit loop reaches, on the search
// goroutine, before it is charged.
//
// With a pool, batches of batchSize are built, computed concurrently and
// then committed in order; building stays on the search goroutine
// between batches. With no pool (Workers <= 1) each candidate is built
// only after the one before it was committed and computed inline — the
// classic sequential search. Either way every candidate passes through
// the same budget check, chargeOutcome call, and acceptance rule, in the
// same sequence.
func (s *searcher) evalCandidates(next func() (Candidate, bool), tried func(Candidate), cur **cast.Unit, curScore *score) bool {
	size := s.pool.batchSize()
	batch := make([]Candidate, 0, size)
	for !s.stopped() {
		batch = batch[:0]
		for len(batch) < size {
			cand, ok := next()
			if !ok {
				break
			}
			batch = append(batch, cand)
		}
		if len(batch) == 0 {
			return false
		}
		outcomes := s.pool.evaluateBatch(s, batch)
		for i, cand := range batch {
			if s.stopped() {
				return false
			}
			if tried != nil {
				tried(cand)
			}
			o := outcomes[i]
			if !o.computed {
				// No pool, or the worker declined the job (budget raced
				// exhausted); compute it here so commit semantics never
				// depend on speculation.
				o = s.safeOutcome(cand.Unit)
			}
			if s.commitOutcome(cand, o, cur, curScore) {
				return true
			}
		}
	}
	return false
}

// commitOutcome charges one tried candidate and applies the acceptance
// rule, keeping the pool's shared budget view current. Returns true
// when the candidate was accepted. The candidate's structured event is
// emitted here — on the search goroutine, after the charge — which is
// what makes traces byte-identical for any Workers value: workers only
// buffer outcome data (evalOutcome), never emit.
func (s *searcher) commitOutcome(cand Candidate, o evalOutcome, cur **cast.Unit, curScore *score) bool {
	cb := s.chargeOutcome(o)
	if s.pool != nil {
		s.pool.commit(s.stats.VirtualSeconds)
	}
	// Every fully-evaluated candidate — accepted or not — is offered to
	// the multi-target Pareto archive here, on the search goroutine in
	// enumeration order: a candidate the scalar objective rejects can
	// still be a non-dominated latency/resource trade-off.
	if o.failure == nil && o.evaluated {
		s.considerPareto(cand.Unit, o.sc)
	}
	accepted := o.failure == nil && o.evaluated && o.sc.better(*curScore)
	if accepted {
		s.accept(cand)
		*cur = cand.Unit
		*curScore = o.sc
		s.stats.AcceptedCandidates++
	} else {
		s.stats.RejectedCandidates++
		if o.failure != nil {
			s.stats.StageFailures++
		}
	}
	if s.tracing {
		s.emitCandidate(cand, o, accepted, cb)
	}
	return accepted
}

// emitCandidate renders one tried candidate as a structured event.
func (s *searcher) emitCandidate(cand Candidate, o evalOutcome, accepted bool, cb costBreakdown) {
	edits := make([]string, len(cand.Edits))
	class := ""
	for i, e := range cand.Edits {
		edits[i] = e.String()
		if i == 0 {
			class = e.Class.String()
		}
	}
	re := &obs.RepairEvent{
		Step: s.step, Iter: s.stats.Iterations,
		Edits: edits, Class: class,
		Accepted:     accepted,
		VirtualDelta: cb.total(),
		CostStyle:    cb.style, CostCompile: cb.compile, CostSim: cb.sim,
	}
	switch {
	case o.failure != nil:
		re.Reason = "stage-failure"
		re.Failure = o.failure.Label()
	case o.styleRan && !o.styleOK:
		re.Style, re.Reason = "reject", "style-reject"
	case accepted:
		re.Reason = "accepted"
	default:
		re.Reason = "no-improvement"
	}
	if o.styleRan && o.styleOK {
		re.Style = "ok"
	}
	if o.evaluated && o.failure == nil {
		re.Evaluated = true
		re.Errors = o.sc.errors
		re.PassRatio = o.sc.passRatio
		re.BehaviorOK = o.sc.behaviorOK
		if o.sc.errors == 0 && o.simRan {
			re.LatencyMS = o.sc.latencyMS
		}
	}
	s.obs.Emit(obs.Event{Type: obs.EvCandidate, Virtual: s.stats.VirtualSeconds, Repair: re})
}
