// Concurrent candidate evaluation for the repair search.
//
// The paper's repair loop (§5.3–5.4) spends nearly all of its time in
// fitness evaluation: every candidate pays a style check, a full HLS
// compatibility check, latency simulation, and differential testing
// against the CPU execution. Those evaluations are independent across
// candidates — each runs on its own clone of the program against the
// immutable original and test suite — so this file fans them out over a
// bounded worker pool.
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

// chunkSize is how many of n candidates are speculatively evaluated
// per batch; without a pool (nil) all n form one batch.
func (p *evalPool) chunkSize(n int) int {
	if p == nil {
		return n
	}
	return p.workers * speculationFactor
}

// evaluateBatch computes outcomes for a batch concurrently. predictSkip
// (optional, called in order on the calling goroutine) previews commit-
// time dedupe so known-skipped candidates are not scheduled. nextIdx is
// the commit index the batch's first non-skipped candidate will get;
// candidates whose predicted index the checkpoint log already covers
// are not scheduled either — the commit loop will replay them. Both
// predictions are only schedule hints: a misprediction wastes or saves
// speculative work, never changes what the commit loop decides.
// Outcomes of unscheduled candidates stay zero-valued (computed ==
// false); without a pool (nil) none is scheduled.
func (p *evalPool) evaluateBatch(s *searcher, batch []Candidate, predictSkip func(Candidate) bool, nextIdx int) []evalOutcome {
	outcomes := make([]evalOutcome, len(batch))
	if p == nil {
		return outcomes
	}
	var wg sync.WaitGroup
	idx := nextIdx
	for i, cand := range batch {
		if predictSkip != nil && predictSkip(cand) {
			continue
		}
		if s.ckpt.has(idx, cand) {
			idx++
			continue
		}
		idx++
		wg.Add(1)
		p.jobs <- evalJob{s: s, unit: cand.Unit, out: &outcomes[i], wg: &wg}
	}
	wg.Wait()
	return outcomes
}

// evalCandidates is the shared candidate-trial engine behind
// tryCandidates, the WithoutDependence attempt loop, and perfStep. It
// walks candidates in enumeration order and accepts the first one whose
// score improves on *curScore, charging virtual costs as it goes.
//
// skip, when non-nil, is the commit-time dedupe: consulted in order on
// the search goroutine, free to mutate searcher bookkeeping, and a
// skipped candidate pays no cost. predictSkip, when non-nil, must
// preview skip's decisions without side effects on searcher state (used
// only to avoid scheduling doomed speculative work).
//
// With a pool, batches of chunkSize are computed concurrently and then
// committed in order. With no pool (Workers <= 1) nothing is computed
// ahead, so the commit loop computes each candidate inline, one at a
// time — the classic sequential search. Either way every candidate
// passes through the same budget check, chargeOutcome call, and
// acceptance rule, in the same sequence.
func (s *searcher) evalCandidates(cands []Candidate, skip, predictSkip func(Candidate) bool, cur **cast.Unit, curScore *score) bool {
	chunk := s.pool.chunkSize(len(cands))
	for start := 0; start < len(cands); start += chunk {
		end := min(start+chunk, len(cands))
		batch := cands[start:end]
		if s.stats.VirtualSeconds >= float64(s.opts.Budget) || s.ctx.Err() != nil {
			return false
		}
		outcomes := s.pool.evaluateBatch(s, batch, predictSkip, s.commitIdx)
		for i, cand := range batch {
			if s.stats.VirtualSeconds >= float64(s.opts.Budget) || s.ctx.Err() != nil {
				return false
			}
			if skip != nil && skip(cand) {
				continue
			}
			o := outcomes[i]
			// The checkpoint log is authoritative at the actual commit
			// index: a replay hit discards any speculative computation of
			// the same candidate.
			if ro, replayed := s.ckpt.replay(s.commitIdx, cand); replayed {
				o = ro
			} else if !o.computed {
				// No pool, the worker declined the job (budget raced
				// exhausted), or predictSkip mispredicted; compute it
				// here so commit semantics never depend on speculation.
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
	// The outcome becomes durable at the same moment it becomes
	// accountable (a no-op for replayed indices, which are already on
	// disk); commitIdx is the log's commit-order cursor.
	s.ckpt.record(s.commitIdx, cand, o)
	s.commitIdx++
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
