package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/hetero/heterogen/internal/core"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/guard"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/hls/sim"
	"github.com/hetero/heterogen/internal/repair"
)

// Kind selects which pipeline entry point a job runs.
type Kind string

const (
	// KindTranspile runs the full pipeline (core.RunContext): test
	// generation, bitwidth profiling, repair, final HLS source.
	KindTranspile Kind = "transpile"
	// KindCheck runs only the synthesizability checker (core.Check),
	// once per target of the job's target set.
	KindCheck Kind = "check"
	// KindRepair runs profiling plus the repair search with no test
	// generation (core.RepairStageContext).
	KindRepair Kind = "repair"
	// KindFuzz runs only test generation (core.FuzzStage).
	KindFuzz Kind = "fuzz"
)

// Kinds lists every job kind.
func Kinds() []Kind {
	return []Kind{KindTranspile, KindCheck, KindRepair, KindFuzz}
}

// ValidKind reports whether k names a job kind.
func ValidKind(k Kind) bool {
	for _, v := range Kinds() {
		if k == v {
			return true
		}
	}
	return false
}

// Request is the POST /v1/jobs body.
type Request struct {
	// Kind selects the pipeline entry point: transpile | check | repair
	// | fuzz.
	Kind Kind `json:"kind"`
	// Source is the C program text.
	Source string `json:"source"`
	// Kernel names the function to operate on (the design's top
	// function). Required for every kind.
	Kernel string `json:"kernel"`
	// Host optionally names a host entry point whose kernel calls seed
	// the fuzzer (transpile and fuzz kinds).
	Host string `json:"host,omitempty"`
	// Seed overrides the fuzzer's PRNG seed (0 keeps the default).
	Seed int64 `json:"seed,omitempty"`
	// Targets selects the HLS backends/devices the job runs against,
	// as "backend:device" specs (bare backend or device names are also
	// accepted — see hls.ParseTarget). Empty means the default target
	// without a per-device verdict table. An unknown spec rejects the
	// submission with 400.
	Targets []string `json:"targets,omitempty"`
	// Budget bounds the job; zero fields take server defaults and every
	// field is clamped by server limits.
	Budget Budget `json:"budget"`
}

// State is a job's lifecycle position: queued → running → one of
// done | failed | cancelled.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one admitted request and everything that happens to it.
type Job struct {
	id     string
	kind   Kind
	client string
	corr   string
	budget Budget
	req    Request
	// targets holds the resolved canonical target set (empty = the
	// default target, unnamed), validated at submission time.
	targets []hls.Target

	events *eventLog
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	state    State
	created  time.Time
	started  time.Time
	finished time.Time
	result   *Result
	errMsg   string
	failure  *guard.StageFailure
	// resumed marks a job restored from the write-ahead journal after a
	// restart (terminal re-report or re-enqueued interrupted job).
	resumed bool
	// userCancelled records an explicit DELETE; it outranks a drain
	// stop when deciding the job's journaled fate.
	userCancelled bool
	// drainStop marks a running job the drain deadline stopped: it is
	// journaled "checkpointed" (resumable), not cancelled.
	drainStop bool
}

// ID returns the job's server-assigned identifier.
func (j *Job) ID() string { return j.id }

// Status is the JSON representation of a job returned by the API.
type Status struct {
	ID   string `json:"id"`
	Kind Kind   `json:"kind"`
	// CorrelationID is the caller-supplied request id (X-Correlation-ID)
	// threaded through logs and the retained trace; defaults to ID.
	CorrelationID string `json:"correlation_id,omitempty"`
	State         State  `json:"state"`
	Client        string `json:"client,omitempty"`
	// Targets is the resolved canonical target set the job runs
	// against ("backend:device" per entry); absent for jobs that named
	// no target.
	Targets []string `json:"targets,omitempty"`
	// Budget is the effective (clamped) budget the job runs under.
	Budget Budget `json:"budget"`
	// Events is the number of observability events buffered so far
	// (GET /v1/jobs/{id}/events streams them).
	Events int `json:"events"`
	// CreatedMS / StartedMS / FinishedMS are Unix milliseconds.
	CreatedMS  int64 `json:"created_ms"`
	StartedMS  int64 `json:"started_ms,omitempty"`
	FinishedMS int64 `json:"finished_ms,omitempty"`
	// Resumed marks a job restored from the write-ahead journal after a
	// daemon restart — either re-reported terminal history or a
	// re-enqueued interrupted job (re-run from the start to a
	// byte-identical result).
	Resumed bool `json:"resumed,omitempty"`
	// Error is the failure description when State is failed.
	Error string `json:"error,omitempty"`
	// Failure is the typed contained-stage verdict when the failure was
	// a guard containment (panic, deadline, corrupt output, injected
	// fault) rather than a domain error.
	Failure *guard.StageFailure `json:"failure,omitempty"`
	// Result is present once the job is terminal (for cancelled jobs it
	// is the best-so-far partial outcome, marked Partial).
	Result *Result `json:"result,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:            j.id,
		Kind:          j.kind,
		CorrelationID: j.corr,
		State:         j.state,
		Client:        j.client,
		Targets:       targetNames(j.targets),
		Budget:        j.budget,
		Events:        j.events.Len(),
		CreatedMS:     j.created.UnixMilli(),
		Resumed:       j.resumed,
		Error:         j.errMsg,
		Failure:       j.failure,
		Result:        j.result,
	}
	if !j.started.IsZero() {
		st.StartedMS = j.started.UnixMilli()
	}
	if !j.finished.IsZero() {
		st.FinishedMS = j.finished.UnixMilli()
	}
	return st
}

// Result is the kind-specific job outcome. Exactly one payload pointer
// is populated.
type Result struct {
	Transpile *TranspileResult `json:"transpile,omitempty"`
	Check     *CheckResult     `json:"check,omitempty"`
	Repair    *RepairResult    `json:"repair,omitempty"`
	Fuzz      *FuzzResult      `json:"fuzz,omitempty"`
	// Partial marks a best-so-far outcome from a cancelled job.
	Partial bool `json:"partial,omitempty"`
}

// TranspileResult summarizes a full pipeline run.
type TranspileResult struct {
	Source      string        `json:"source"`
	Compatible  bool          `json:"compatible"`
	BehaviorOK  bool          `json:"behavior_ok"`
	Improved    bool          `json:"improved"`
	DeltaLOC    int           `json:"delta_loc"`
	OriginalLOC int           `json:"original_loc"`
	Tests       int           `json:"tests"`
	Coverage    float64       `json:"coverage"`
	CPUMeanMS   float64       `json:"cpu_mean_ms"`
	FPGAMeanMS  float64       `json:"fpga_mean_ms"`
	Resources   sim.Resources `json:"resources"`
	Summary     string        `json:"summary"`
	// PerTarget / Pareto are the multi-target outcome (jobs submitted
	// with a targets field); absent otherwise.
	PerTarget []TargetVerdict `json:"per_target,omitempty"`
	Pareto    []ParetoPoint   `json:"pareto,omitempty"`
}

// CheckResult is the synthesizability verdict.
type CheckResult struct {
	OK          bool         `json:"ok"`
	Errors      int          `json:"errors"`
	Diagnostics []Diagnostic `json:"diagnostics,omitempty"`
	// PerTarget holds one verdict per requested target, in the
	// submitted order (jobs submitted with a targets field).
	PerTarget []TargetCheck `json:"per_target,omitempty"`
}

// TargetCheck is one target's synthesizability verdict in its
// backend's diagnostic dialect.
type TargetCheck struct {
	Target      string       `json:"target"`
	OK          bool         `json:"ok"`
	Errors      int          `json:"errors"`
	Diagnostics []Diagnostic `json:"diagnostics,omitempty"`
}

// TargetVerdict is the JSON form of one device's verdict on the final
// program of a multi-target job.
type TargetVerdict struct {
	Target      string   `json:"target"`
	Compatible  bool     `json:"compatible"`
	BehaviorOK  bool     `json:"behavior_ok"`
	Fits        bool     `json:"fits"`
	Over        []string `json:"over,omitempty"`
	Errors      int      `json:"errors"`
	LatencyMS   float64  `json:"latency_ms"`
	Utilization string   `json:"utilization,omitempty"`
}

// ParetoPoint is the JSON form of one non-dominated latency/resource
// trade-off program from a multi-target repair.
type ParetoPoint struct {
	Source    string          `json:"source"`
	Resources sim.Resources   `json:"resources"`
	PerTarget []TargetVerdict `json:"per_target"`
}

// Diagnostic is the JSON form of one checker diagnostic.
type Diagnostic struct {
	Code    string `json:"code"`
	Class   string `json:"class"`
	Message string `json:"message"`
	Subject string `json:"subject,omitempty"`
}

// RepairResult summarizes a repair search.
type RepairResult struct {
	Source         string   `json:"source"`
	Compatible     bool     `json:"compatible"`
	BehaviorOK     bool     `json:"behavior_ok"`
	Improved       bool     `json:"improved"`
	Iterations     int      `json:"iterations"`
	Candidates     int      `json:"candidates"`
	Accepted       int      `json:"accepted"`
	Rejected       int      `json:"rejected"`
	StageFailures  int      `json:"stage_failures"`
	VirtualSeconds float64  `json:"virtual_seconds"`
	EditLog        []string `json:"edit_log,omitempty"`
	Remaining      []string `json:"remaining,omitempty"`
	// PerTarget / Pareto are the multi-target outcome (jobs submitted
	// with a targets field); absent otherwise.
	PerTarget []TargetVerdict `json:"per_target,omitempty"`
	Pareto    []ParetoPoint   `json:"pareto,omitempty"`
}

// FuzzResult summarizes a test-generation campaign.
type FuzzResult struct {
	Tests           int     `json:"tests"`
	Coverage        float64 `json:"coverage"`
	CoveredOutcomes int     `json:"covered_outcomes"`
	TotalOutcomes   int     `json:"total_outcomes"`
	Execs           int     `json:"execs"`
	VirtualSeconds  float64 `json:"virtual_seconds"`
	SeededFromHost  bool    `json:"seeded_from_host"`
	Plateaued       bool    `json:"plateaued"`
	StageFailures   int     `json:"stage_failures"`
}

func transpileResult(r core.Result) *TranspileResult {
	return &TranspileResult{
		Source:      r.Source,
		Compatible:  r.Compatible,
		BehaviorOK:  r.BehaviorOK,
		Improved:    r.Improved,
		DeltaLOC:    r.DeltaLOC,
		OriginalLOC: r.OriginalLOC,
		Tests:       len(r.Campaign.Tests),
		Coverage:    r.Campaign.Coverage,
		CPUMeanMS:   r.CPUMeanMS,
		FPGAMeanMS:  r.FPGAMeanMS,
		Resources:   r.Resources,
		Summary:     r.Summary(),
		PerTarget:   targetVerdicts(r.PerTarget),
		Pareto:      paretoPoints(r.Pareto),
	}
}

// targetNames renders a resolved target set canonically.
func targetNames(ts []hls.Target) []string {
	if len(ts) == 0 {
		return nil
	}
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.String()
	}
	return out
}

// targetVerdicts converts the repair layer's verdict table to JSON form.
func targetVerdicts(vs []repair.TargetVerdict) []TargetVerdict {
	if len(vs) == 0 {
		return nil
	}
	out := make([]TargetVerdict, len(vs))
	for i, v := range vs {
		out[i] = TargetVerdict{
			Target:      v.Target,
			Compatible:  v.Compatible,
			BehaviorOK:  v.BehaviorOK,
			Fits:        v.Fits,
			Over:        v.Over,
			Errors:      v.Errors,
			LatencyMS:   v.LatencyMS,
			Utilization: v.Utilization,
		}
	}
	return out
}

// paretoPoints converts the repair layer's Pareto set to JSON form.
func paretoPoints(ps []repair.ParetoPoint) []ParetoPoint {
	if len(ps) == 0 {
		return nil
	}
	out := make([]ParetoPoint, len(ps))
	for i, p := range ps {
		out[i] = ParetoPoint{
			Source:    p.Source,
			Resources: p.Resources,
			PerTarget: targetVerdicts(p.PerTarget),
		}
	}
	return out
}

// checkResult renders a check run. A targeted job (one with a target
// set) gets one verdict per target and an aggregate top-level verdict
// (OK iff every target is clean); an untargeted job's one report is the
// top-level verdict, without per_target.
func checkResult(reps []core.TargetReport, targeted bool) *CheckResult {
	out := &CheckResult{OK: true}
	for _, tr := range reps {
		tc := TargetCheck{Target: tr.Target, OK: tr.Report.OK, Errors: len(tr.Report.Diags)}
		for _, d := range tr.Report.Diags {
			tc.Diagnostics = append(tc.Diagnostics, Diagnostic{
				Code:    d.Code,
				Class:   d.Class.String(),
				Message: d.Message,
				Subject: d.Subject,
			})
		}
		out.OK = out.OK && tc.OK
		out.Errors += tc.Errors
		if targeted {
			out.PerTarget = append(out.PerTarget, tc)
		} else {
			out.Diagnostics = tc.Diagnostics
		}
	}
	return out
}

func repairResult(rr repair.Result, src string) *RepairResult {
	out := &RepairResult{
		Source:         src,
		Compatible:     rr.Compatible,
		BehaviorOK:     rr.BehaviorOK,
		Improved:       rr.Improved,
		Iterations:     rr.Stats.Iterations,
		Candidates:     rr.Stats.CandidatesTried,
		Accepted:       rr.Stats.AcceptedCandidates,
		Rejected:       rr.Stats.RejectedCandidates,
		StageFailures:  rr.Stats.StageFailures,
		VirtualSeconds: rr.Stats.VirtualSeconds,
		EditLog:        rr.Stats.EditLog,
		PerTarget:      targetVerdicts(rr.PerTarget),
		Pareto:         paretoPoints(rr.Pareto),
	}
	for _, d := range rr.Remaining {
		out.Remaining = append(out.Remaining, fmt.Sprintf("[%s] %s", d.Code, d.Message))
	}
	return out
}

func fuzzResult(c fuzz.Campaign) *FuzzResult {
	return &FuzzResult{
		Tests:           len(c.Tests),
		Coverage:        c.Coverage,
		CoveredOutcomes: c.CoveredOutcomes,
		TotalOutcomes:   c.TotalOutcomes,
		Execs:           c.Execs,
		VirtualSeconds:  c.VirtualSeconds,
		SeededFromHost:  c.SeededFromHost,
		Plateaued:       c.Plateaued,
		StageFailures:   c.StageFailures,
	}
}
