package obs

// Type tags one structured event.
type Type string

// The event vocabulary. Each type maps to a paper artifact; see
// docs/ARCHITECTURE.md ("Observability") for the full table.
const (
	// EvPhaseStart / EvPhaseEnd bracket one pipeline phase (fuzz,
	// profile, repair). The end event carries the phase's virtual-time
	// delta and (outside deterministic traces) its wall duration.
	EvPhaseStart Type = "phase_start"
	EvPhaseEnd   Type = "phase_end"
	// EvFuzzExec is one committed fuzz execution: coverage state, corpus
	// size, and the retain/discard decision (§4's campaign loop; the
	// coverage-over-iterations curve).
	EvFuzzExec Type = "fuzz_exec"
	// EvFuzzDone summarizes a finished campaign (Table 4's row inputs).
	EvFuzzDone Type = "fuzz_done"
	// EvRepairInit is the fitness evaluation of the initial version
	// P_broken — the t=0 point of Figure 2's trajectory.
	EvRepairInit Type = "repair_init"
	// EvCandidate is one tried repair candidate: edit chain, error
	// class, style/HLS/difftest verdicts, accept/reject reason, and the
	// virtual-cost delta it was charged (Figure 2 / Table 3 attempts).
	EvCandidate Type = "repair_candidate"
	// EvRepairDone snapshots the final search Stats (Table 3's
	// attempts / virtual minutes / edit-chain columns).
	EvRepairDone Type = "repair_done"
	// EvCheck is one standalone synthesizability-checker run
	// (internal/hls/check) with its diagnostic counts by class.
	EvCheck Type = "hls_check"
	// EvWarning is an anomaly worth surfacing, e.g. a fuzz campaign
	// plateauing before its execution budget.
	EvWarning Type = "warning"
)

// Event is one structured record. Type selects which payload pointer is
// populated; all other payloads are nil. Virtual is the emitting
// subsystem's cumulative virtual clock (seconds) at emission — the fuzz
// campaign and the repair search each run their own clock, phases carry
// the pipeline-level total.
type Event struct {
	Type    Type   `json:"type"`
	Subject string `json:"subject,omitempty"` // eval subject id (P1..P10) when run under the harness
	// Target is the canonical target-set string ("backend:device", or
	// "+"-joined for multi-target runs) the emitting run was built for.
	// It is stamped only at configuration edges (CLI target flags, serve
	// job requests) via TagTarget, never by the library pipeline itself,
	// so untargeted traces stay byte-identical to pre-target-set runs.
	Target  string  `json:"target,omitempty"`
	Virtual float64 `json:"virtual"`

	Phase  *PhaseEvent  `json:"phase,omitempty"`
	Fuzz   *FuzzEvent   `json:"fuzz,omitempty"`
	Repair *RepairEvent `json:"repair,omitempty"`
	Done   *DoneEvent   `json:"done,omitempty"`
	Check  *CheckEvent  `json:"check,omitempty"`
	Warn   string       `json:"warn,omitempty"`
}

// PhaseEvent brackets one pipeline phase.
type PhaseEvent struct {
	Name string `json:"name"`
	// VirtualDelta is the virtual seconds the phase consumed (end only).
	VirtualDelta float64 `json:"virtual_delta,omitempty"`
	// WallNS is the real duration (end only). Nondeterministic: the
	// trace writer strips it unless IncludeWall is set; the metrics
	// registry aggregates it into a histogram.
	WallNS int64 `json:"wall_ns,omitempty"`
}

// FuzzEvent is one committed fuzz execution, or (for EvFuzzDone) the
// campaign summary.
type FuzzEvent struct {
	// Exec is the 1-based execution index (== Campaign.Execs after the
	// commit).
	Exec int `json:"exec,omitempty"`
	// Gained reports new branch-outcome coverage from this execution.
	Gained bool `json:"gained,omitempty"`
	// Crashed inputs contribute coverage but are never retained.
	Crashed bool `json:"crashed,omitempty"`
	// Invalid marks a type-invalid input executed under the untyped
	// ablation (it dies at the kernel entry).
	Invalid bool `json:"invalid,omitempty"`
	// Covered / TotalOutcomes is the cumulative branch-outcome coverage
	// after this execution.
	Covered       int `json:"covered"`
	TotalOutcomes int `json:"total_outcomes"`
	// BitmapBits is the size of the interpreter's coverage bitmap.
	BitmapBits int `json:"bitmap_bits,omitempty"`
	// Corpus is the retained mutation queue length; Tests the retained
	// test-suite length (they differ by seeds only).
	Corpus int `json:"corpus"`
	Tests  int `json:"tests"`
	// SinceGain is the plateau counter after this execution.
	SinceGain int `json:"since_gain"`
	// Failure labels a contained stage failure ("<stage>/<class>") when
	// the execution was swallowed by the guard layer instead of running.
	Failure string `json:"failure,omitempty"`
	// Campaign-summary fields (EvFuzzDone only).
	Coverage  float64 `json:"coverage,omitempty"`
	Plateaued bool    `json:"plateaued,omitempty"`
	// StageFailures is the campaign's contained-failure total (EvFuzzDone
	// only).
	StageFailures int `json:"stage_failures,omitempty"`
}

// RepairEvent is one tried repair candidate (EvCandidate) or the initial
// evaluation (EvRepairInit).
type RepairEvent struct {
	// Step is "init", "repair" (compatibility phase) or "perf"
	// (performance exploration).
	Step string `json:"step"`
	// Iter is the search iteration (Stats.Iterations at trial time).
	Iter int `json:"iter,omitempty"`
	// Edits is the candidate's edit chain, rendered like the paper:
	// template(target, note).
	Edits []string `json:"edits,omitempty"`
	// Class is the error class the chain targets.
	Class string `json:"class,omitempty"`
	// Style is the style-checker verdict: "ok", "reject", or "" when the
	// checker is disabled.
	Style string `json:"style,omitempty"`
	// Evaluated reports the full compile+test evaluation ran; the
	// verdict fields below are only meaningful when true.
	Evaluated bool `json:"evaluated,omitempty"`
	// Errors is the HLS diagnostic count of the candidate.
	Errors int `json:"errors"`
	// PassRatio / BehaviorOK are the differential-test verdict.
	PassRatio  float64 `json:"pass_ratio"`
	BehaviorOK bool    `json:"behavior_ok,omitempty"`
	// LatencyMS is the simulated FPGA latency (0 when the design never
	// reached simulation).
	LatencyMS float64 `json:"latency_ms,omitempty"`
	// Accepted / Reason is the search decision: "accepted",
	// "no-improvement", "style-reject", or "stage-failure".
	Accepted bool   `json:"accepted,omitempty"`
	Reason   string `json:"reason,omitempty"`
	// Failure labels the contained stage failure ("<stage>/<class>")
	// when Reason is "stage-failure".
	Failure string `json:"failure,omitempty"`
	// VirtualDelta is the total virtual cost charged for this trial,
	// split into its components (one toolchain license ⇒ these sum over
	// the trace to the search's VirtualSeconds).
	VirtualDelta float64 `json:"virtual_delta"`
	CostStyle    float64 `json:"cost_style,omitempty"`
	CostCompile  float64 `json:"cost_compile,omitempty"`
	CostSim      float64 `json:"cost_sim,omitempty"`
}

// DoneEvent snapshots the final repair Stats (EvRepairDone) — the
// Table 3 row for the run.
type DoneEvent struct {
	Attempts            int      `json:"attempts"`
	Accepted            int      `json:"accepted"`
	Rejected            int      `json:"rejected"`
	StyleChecks         int      `json:"style_checks"`
	StyleRejections     int      `json:"style_rejections"`
	HLSInvocations      int      `json:"hls_invocations"`
	Iterations          int      `json:"iterations"`
	VirtualSeconds      float64  `json:"virtual_seconds"`
	SecondsToCompatible float64  `json:"seconds_to_compatible,omitempty"`
	EditLog             []string `json:"edit_log,omitempty"`
	Compatible          bool     `json:"compatible"`
	BehaviorOK          bool     `json:"behavior_ok"`
	Improved            bool     `json:"improved,omitempty"`
	// StageFailures counts candidates rejected because a toolchain stage
	// crashed or overran its budget (contained by the guard layer).
	StageFailures int `json:"stage_failures,omitempty"`
	// Targets lists the canonical target names of a multi-target search,
	// and ParetoSize the number of non-dominated programs it archived.
	// Both are absent from single-target runs, whose traces are
	// byte-identical whether or not the target was named.
	Targets    []string `json:"targets,omitempty"`
	ParetoSize int      `json:"pareto_size,omitempty"`
}

// CheckEvent is one standalone synthesizability-checker run.
type CheckEvent struct {
	Top     string         `json:"top"`
	Errors  int            `json:"errors"`
	ByClass map[string]int `json:"by_class,omitempty"`
}

// Observer receives structured events. Implementations must tolerate
// concurrent Emit calls: one trace can interleave independent runs (the
// eval harness fans subjects out across CPUs), even though any single
// run emits from one goroutine only.
type Observer interface {
	Emit(e Event)
}

// nop is the default observer: it drops everything.
type nop struct{}

func (nop) Emit(Event) {}

// Nop returns the no-op observer.
func Nop() Observer { return nop{} }

// OrNop normalizes a possibly-nil observer so call sites never branch.
func OrNop(o Observer) Observer {
	if o == nil {
		return nop{}
	}
	return o
}

// Enabled reports whether o actually records events — instrumentation on
// hot paths (one event per fuzz execution) checks it once to skip
// building event payloads for the no-op sink.
func Enabled(o Observer) bool {
	if o == nil {
		return false
	}
	_, isNop := o.(nop)
	return !isNop
}

// multi fans one event out to several sinks, in order.
type multi []Observer

func (m multi) Emit(e Event) {
	for _, o := range m {
		o.Emit(e)
	}
}

// Multi combines observers (nil and no-op entries are dropped). With
// zero live sinks it returns the no-op observer.
func Multi(os ...Observer) Observer {
	var live multi
	for _, o := range os {
		if Enabled(o) {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nop{}
	case 1:
		return live[0]
	}
	return live
}

// tagged stamps a subject id on every event that does not carry one.
type tagged struct {
	inner   Observer
	subject string
}

func (t tagged) Emit(e Event) {
	if e.Subject == "" {
		e.Subject = t.subject
	}
	t.inner.Emit(e)
}

// Tag wraps o so events are attributed to one evaluation subject. The
// harness uses it to keep concurrently-traced subjects separable in a
// single trace file.
func Tag(o Observer, subject string) Observer {
	if !Enabled(o) {
		return nop{}
	}
	return tagged{inner: o, subject: subject}
}

// targetTagged stamps a target-set string on every event that does not
// carry one.
type targetTagged struct {
	inner  Observer
	target string
}

func (t targetTagged) Emit(e Event) {
	if e.Target == "" {
		e.Target = t.target
	}
	t.inner.Emit(e)
}

// TagTarget wraps o so events are attributed to one target set (the
// canonical hls.TargetSetString form). Stamping happens only at
// configuration edges — CLI target flags and serve job requests — which
// is what keeps library-level traces unchanged for untargeted runs.
func TagTarget(o Observer, target string) Observer {
	if !Enabled(o) {
		return nop{}
	}
	if target == "" {
		return o
	}
	return targetTagged{inner: o, target: target}
}
