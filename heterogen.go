// Package heterogen is the public API of the HeteroGen reproduction: a
// C-to-HLS-C transpiler with automated test generation and search-based
// program repair (Zhang, Wang, Xu, Kim — ASPLOS 2022).
//
// The one-call entry point is Transpile:
//
//	res, err := heterogen.Transpile(cSource, heterogen.Options{Kernel: "kernel"})
//	if err != nil { ... }
//	fmt.Println(res.Source)       // the repaired HLS-C program
//	fmt.Println(res.Summary())    // compat/perf verdict, coverage, ΔLOC
//
// Behind it sit the subsystems the paper describes, all implemented in
// this module: a C frontend (internal/cparser), a CPU interpreter with
// coverage and value profiling (internal/interp), a simulated HLS
// toolchain — synthesizability checker, lightweight style checker, and a
// pragma-aware FPGA simulator (internal/hls/...) — a coverage-guided
// kernel fuzzer (internal/fuzz), bitwidth finitization
// (internal/profile), and the dependence-guided repair search
// (internal/repair).
//
// Each stage of the pipeline is also callable on its own — Check,
// Simulate, Repair and GenerateTests — and every one takes the same
// Options, parses under Options.Guard, and reports errors in the same
// words as Transpile. The long-running entry points have a Context
// variant (TranspileContext, RepairContext, GenerateTestsContext,
// ConformContext) with cooperative cancellation at commit points and
// best-so-far partial results, and every run can share an evaluation
// Cache (Options.Cache) and a failure-containment Guard
// (Options.Guard). For a long-running multi-client deployment,
// NewServer wraps the same pipeline in an HTTP+JSON job service with
// admission control — the cmd/hgserve daemon; see docs/OPERATIONS.md.
package heterogen

import (
	"context"

	"github.com/hetero/heterogen/internal/conform"
	"github.com/hetero/heterogen/internal/core"
	"github.com/hetero/heterogen/internal/evalcache"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/guard"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/hls/sim"
	"github.com/hetero/heterogen/internal/repair"
	"github.com/hetero/heterogen/internal/serve"
)

// Options configures a transpilation. The zero value plus a Kernel name
// is a complete configuration.
type Options = core.Options

// Result is the transpilation outcome: the repaired HLS-C source, the
// fuzzing campaign, the repair log, and the simulated performance
// comparison.
type Result = core.Result

// FuzzOptions configures test generation (Options.Fuzz).
type FuzzOptions = fuzz.Options

// TestCase is one generated kernel input vector.
type TestCase = fuzz.TestCase

// Report is an HLS toolchain report (diagnostics + pass/fail).
type Report = hls.Report

// Diagnostic is one Vivado-style toolchain message.
type Diagnostic = hls.Diagnostic

// ErrorClass is one of the six HLS compatibility error classes (§5.1).
type ErrorClass = hls.ErrorClass

// The six error classes.
const (
	ClassDynamicData     = hls.ClassDynamicData
	ClassUnsupportedType = hls.ClassUnsupportedType
	ClassDataflow        = hls.ClassDataflow
	ClassLoopParallel    = hls.ClassLoopParallel
	ClassStructUnion     = hls.ClassStructUnion
	ClassTopFunction     = hls.ClassTopFunction
)

// Target names one (backend, device) pair a design should be built
// for, e.g. {Backend: "vivado_hls", Device: "zc706"}. Set
// Options.Targets to search for a program that fits a whole target set
// at once; an empty set means the default target (the paper's
// evaluation platform), without the per-device verdict table and Pareto
// archive.
type Target = hls.Target

// TargetVerdict is one target's verdict on the final program — a row of
// Result.PerTarget and of the Markdown report's per-device table.
type TargetVerdict = repair.TargetVerdict

// ParetoPoint is one non-dominated program of a multi-target repair:
// its source, per-device verdicts, and resource estimate
// (Result.Pareto).
type ParetoPoint = repair.ParetoPoint

// DeviceProfile describes one synthesizable part a backend ships:
// short name, vendor part, capacity envelope, and kernel clock.
type DeviceProfile = hls.DeviceProfile

// ParseTarget parses "backend:device", a bare device or backend name,
// or a legacy full part name into a Target, with explicit errors for
// unknown names.
func ParseTarget(s string) (Target, error) { return hls.ParseTarget(s) }

// ParseTargets parses a target-spec list, dropping duplicates.
func ParseTargets(specs []string) ([]Target, error) { return hls.ParseTargets(specs) }

// Backends lists the registered backend names.
func Backends() []string { return hls.BackendNames() }

// Targets enumerates every shipped (backend, device) pair.
func Targets() []Target { return hls.AllTargets() }

// RepairResult is the outcome of the standalone repair stage (Repair):
// the best program version found, its compatibility and behaviour
// verdicts, the search statistics, and — for multi-target runs — the
// per-device verdict table and Pareto archive.
type RepairResult = repair.Result

// RepairOptions configures the repair search (Options.Repair).
type RepairOptions = repair.Options

// SimReport is the outcome of the standalone simulation stage
// (Simulate): resource estimate and per-target device fit.
type SimReport = core.SimReport

// Resources is a fabric utilization estimate (LUT/FF/DSP/BRAM).
type Resources = sim.Resources

// Cache is the content-addressed evaluation cache: it memoizes the
// expensive toolchain verdicts (synthesizability checks, resource
// estimates, differential tests, whole fuzzing campaigns) on
// fingerprints of canonical program text and configuration. Share one
// cache across calls — and, with CacheOptions.Dir, across processes —
// to skip re-evaluating candidates already seen. Cached runs produce
// byte-identical Results and traces (bar Result.CacheStats); only real
// wall-clock changes.
type Cache = evalcache.Cache

// CacheOptions configures NewCache.
type CacheOptions = evalcache.Options

// CacheStats is a snapshot of cache activity (Result.CacheStats,
// Cache.Stats).
type CacheStats = evalcache.Stats

// NewCache opens an evaluation cache. Close it when done if it is
// persistent, so statistics and buffered entries flush to disk.
func NewCache(opts CacheOptions) (*Cache, error) {
	return evalcache.New(opts)
}

// Transpile runs the full pipeline — test generation, bitwidth profiling,
// and iterative repair — over a C/C++ source text and returns the HLS-C
// result. It never returns an error for repair failure; inspect
// Result.Compatible and Result.BehaviorOK (a failed search still returns
// the best version found plus its generated tests, mirroring the paper's
// "incomplete version with generated tests" outcome).
func Transpile(src string, opts Options) (Result, error) {
	return core.Run(src, opts)
}

// TranspileContext is Transpile with cooperative cancellation. The
// context is checked at commit points — between fuzz executions,
// between candidate evaluations, and at phase boundaries, never
// mid-verdict — so cancellation returns promptly with the best-so-far
// partial Result (the corpus gathered, the most advanced program
// version reached, its repair log) and an error wrapping ctx.Err().
// Use errors.Is(err, context.Canceled) to distinguish cancellation
// from real failures; the partial Result is valid either way.
func TranspileContext(ctx context.Context, src string, opts Options) (Result, error) {
	return core.RunContext(ctx, src, opts)
}

// TargetReport pairs one target with its checker verdict.
type TargetReport = core.TargetReport

// Check runs only the synthesizability-checker stage over a source
// text, once per target in Options.Targets (the default target, with
// the reference Vivado-style dialect, when empty), reporting the HLS
// compatibility errors each target's toolchain would. It takes the same
// option struct as the other entry points: Options.Kernel names the top
// function; Targets, Obs, Guard, and Cache are honoured; the remaining
// fields are ignored.
func Check(src string, opts Options) ([]TargetReport, error) {
	return core.Check(src, opts)
}

// Simulate runs only the FPGA-simulator stage: estimate the design's
// fabric resources and gate them against every target's device profile
// in Options.Targets (the paper's XCVU9P evaluation part when empty).
// Unknown profile names fail with an explicit error instead of silently
// falling back to the default part. Latency is not reported here — it
// requires a test suite; use Transpile or Repair with tests for that —
// and neither is the checker verdict: call Check for it.
func Simulate(src string, opts Options) (SimReport, error) {
	return core.Simulate(src, opts)
}

// Repair runs only the repair stage: bitwidth-profile the program
// (unless Options.SkipProfile) and search for a compatible HLS version
// against the original as behaviour oracle, using Options.ExtraTests
// as the test suite — the pipeline minus test generation, for callers
// that bring their own tests.
func Repair(src string, opts Options) (RepairResult, error) {
	return core.RepairStage(src, opts)
}

// RepairContext is Repair with cooperative cancellation. The context
// is checked between candidate evaluations, never mid-verdict; a
// cancelled search returns the best version reached so far (the
// RepairResult is always valid) alongside an error wrapping ctx.Err().
func RepairContext(ctx context.Context, src string, opts Options) (RepairResult, error) {
	return core.RepairStageContext(ctx, src, opts)
}

// GenerateTests runs only the coverage-guided test generator (the
// paper's Algorithm 1) against Options.Kernel. It takes the same option
// struct as the other entry points: Options.Fuzz configures the
// campaign (the defaults when its MaxExecs is zero), HostMain names the
// host entry point whose kernel-entry state seeds it, and Obs, Guard
// and Cache are honoured; unknown target names fail as everywhere else,
// and the remaining fields are ignored.
func GenerateTests(src string, opts Options) (fuzz.Campaign, error) {
	return core.FuzzStage(context.Background(), src, opts)
}

// GenerateTestsContext is GenerateTests with cooperative cancellation.
// The context is checked between executions, never mid-run, so
// cancellation returns promptly with the corpus gathered so far — a
// partial campaign is still a usable test suite, so the error stays nil
// for cancellation; callers that must distinguish inspect ctx.Err.
func GenerateTestsContext(ctx context.Context, src string, opts Options) (fuzz.Campaign, error) {
	return core.FuzzStage(ctx, src, opts)
}

// Guard is the failure-containment layer: it wraps every expensive
// stage call (parsing, printing, style checking, the synthesizability
// checker, resource estimation, differential testing, interpreter
// executions) so that a panic, hang, or corrupted output inside one
// stage becomes a typed StageFailure instead of a crashed process.
// Attach one via Options.Guard; a nil guard still contains panics but
// applies no deadlines, fault injection, or quarantine.
type Guard = guard.Guard

// GuardOptions configures NewGuard: per-stage deadlines, interpreter
// step budgets, transient-failure retries, the quarantine directory for
// minimized reproducers, and (for testing) a deterministic fault
// injector.
type GuardOptions = guard.Options

// StageFailure is one contained stage failure: which stage failed, how
// (panic, deadline, corrupt output, transient), and — when quarantine
// is enabled — the path of the minimized reproducer written for it.
// Failed stage calls return it as their error; errors.As extracts it.
type StageFailure = guard.StageFailure

// NewGuard builds a failure-containment guard to share across calls via
// Options.Guard. The zero GuardOptions value is valid: containment
// only, no deadlines or quarantine.
func NewGuard(opts GuardOptions) *Guard {
	return guard.New(opts)
}

// ConformOptions configures a conformance run (Conform).
type ConformOptions = conform.Options

// ConformReport is the outcome of a conformance run; its Summary is
// deterministic for fixed options.
type ConformReport = conform.Report

// ConformFailure is one minimized conformance failure.
type ConformFailure = conform.Failure

// Conform runs the seeded program-generation conformance harness:
// generate ConformOptions.Count random kernels with known planted HLS
// violations, and assert per program that the checker flags every
// planted violation class, the repair search converges, the repaired
// HLS-C agrees with the CPU interpreter on a fuzzed corpus, and the
// evaluation cache and trace are bit-parity invariant. Failures come
// back minimized by an AST-level delta-debugging reducer, ready to
// commit as regression reproducers. The error reports harness-level
// problems only; assertion failures live in ConformReport.Failures.
func Conform(opts ConformOptions) (ConformReport, error) {
	return conform.RunContext(context.Background(), opts)
}

// ConformContext is Conform with cooperative cancellation between
// generated programs; the partial report is valid alongside the error.
func ConformContext(ctx context.Context, opts ConformOptions) (ConformReport, error) {
	return conform.RunContext(ctx, opts)
}

// Server is the transpilation service: jobs (transpile | check |
// repair | fuzz) submitted over HTTP+JSON run on a bounded worker pool
// behind admission control, with per-job budgets clamped by server
// limits, streamed observability events, and cooperative cancellation
// that keeps best-so-far partial results. It is what cmd/hgserve
// serves; embed it in another process via NewServer + Server.Handler.
type Server = serve.Server

// ServerOptions configures NewServer: pool size, queue depth,
// per-client caps, budget limits and defaults, the shared evaluation
// cache, and the failure-containment knobs.
type ServerOptions = serve.Options

// JobRequest is one job submission (the POST /v1/jobs body).
type JobRequest = serve.Request

// JobStatus is a job's API representation: lifecycle state, effective
// budget, and the kind-specific result once terminal.
type JobStatus = serve.Status

// JobBudget bounds one job's resources; zero fields take server
// defaults and every field is clamped by server limits.
type JobBudget = serve.Budget

// NewServer starts a transpilation service (its worker pool runs until
// Close). Expose it with Server.Handler; see docs/OPERATIONS.md for
// the HTTP API and operational guidance.
func NewServer(opts ServerOptions) *Server {
	return serve.New(opts)
}
