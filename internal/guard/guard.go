package guard

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/obs"
)

// Stage names one guarded toolchain stage.
type Stage string

// The guard hook points, one per expensive stage call site.
const (
	// StageParse is the C frontend (cparser.Parse).
	StageParse Stage = "parse"
	// StagePrint is canonical code emission (cast.Print) — the other
	// half of the parse/print roundtrip.
	StagePrint Stage = "print"
	// StageStyle is the lightweight pre-compilation validator
	// (hls/stylecheck).
	StageStyle Stage = "stylecheck"
	// StageCheck is the full synthesizability checker (hls/check).
	StageCheck Stage = "check"
	// StageEstimate is fabric resource estimation (hls/sim.Estimate).
	StageEstimate Stage = "estimate"
	// StageDifftest is the CPU-vs-FPGA differential test (difftest.Run).
	StageDifftest Stage = "difftest"
	// StageInterp is one raw kernel execution on the interpreter (the
	// fuzzer's exec loop).
	StageInterp Stage = "interp"
	// StageEval labels the worker-pool backstop: a panic that escaped
	// from unguarded glue between the per-stage hooks (candidate
	// cloning, cache plumbing). Not an injection point.
	StageEval Stage = "eval"
)

// Stages lists the injectable hook points in pipeline order (StageEval,
// the backstop label, is deliberately absent — nothing is invoked there).
func Stages() []Stage {
	return []Stage{StageParse, StagePrint, StageStyle, StageCheck,
		StageEstimate, StageDifftest, StageInterp}
}

// Class is a failure classification, which determines the retry policy.
type Class string

const (
	// ClassPanic is a deterministic stage crash; never retried.
	ClassPanic Class = "panic"
	// ClassDeadline is a stage deadline overrun; never retried.
	ClassDeadline Class = "deadline"
	// ClassCorrupt is an invalid stage output; never retried.
	ClassCorrupt Class = "corrupt"
	// ClassTransient is an environmental fault; retried at once.
	ClassTransient Class = "transient"
)

// Classes lists every failure class.
func Classes() []Class {
	return []Class{ClassPanic, ClassDeadline, ClassCorrupt, ClassTransient}
}

// StageFailure is the typed verdict of a contained stage invocation. It
// implements error; callers distinguish it from a stage's own domain
// error with AsFailure.
type StageFailure struct {
	Stage  Stage  `json:"stage"`
	Class  Class  `json:"class"`
	Detail string `json:"detail"`
	// Attempts counts invocation attempts including retries (1 when the
	// first attempt was terminal).
	Attempts int `json:"attempts"`
	// Injected marks a fault planted by an Injector (internal/chaos)
	// rather than observed from the real stage.
	Injected bool `json:"injected,omitempty"`
	// Reproducer is the path of the quarantined minimized input, when
	// one was written.
	Reproducer string `json:"reproducer,omitempty"`
}

// Error renders the failure.
func (f *StageFailure) Error() string {
	s := fmt.Sprintf("guard: %s stage failed (%s): %s", f.Stage, f.Class, f.Detail)
	if f.Reproducer != "" {
		s += " [reproducer: " + f.Reproducer + "]"
	}
	return s
}

// Label is the compact "<stage>/<class>" form used in trace events and
// metrics counter names.
func (f *StageFailure) Label() string {
	return string(f.Stage) + "/" + string(f.Class)
}

// AsFailure unwraps a StageFailure from an error (nil when err is not
// one). A stage's own domain errors — a parse diagnostic, an interpreter
// RuntimeError — pass through Do untouched and return nil here.
func AsFailure(err error) *StageFailure {
	if sf, ok := err.(*StageFailure); ok {
		return sf
	}
	return nil
}

// PanicFailure classifies a recovered panic value as a StageFailure.
// Exported for the worker-pool backstops, which recover outside Do.
func PanicFailure(stage Stage, r any) *StageFailure {
	return &StageFailure{Stage: stage, Class: ClassPanic, Attempts: 1,
		Detail: fmt.Sprintf("panic: %v", r)}
}

// Fault is an Injector's decision for one invocation attempt. The zero
// value means "no fault".
type Fault struct {
	// Class selects the failure to plant; "" injects nothing.
	Class Class
	// Detail overrides the default failure description.
	Detail string
}

// Injector decides deterministically whether an invocation faults.
// Implementations must key decisions on (stage, key, attempt) content
// only — never on call counts or clocks — so a schedule is identical
// regardless of worker scheduling (see internal/chaos).
type Injector interface {
	Fault(stage Stage, key string, attempt int) Fault
}

// Options configures a Guard.
type Options struct {
	// StageDeadline bounds each invocation attempt's real duration; 0
	// disables enforcement. When set, the stage function runs on its own
	// goroutine; an attempt that overruns is abandoned (the goroutine
	// finishes in the background) and classified ClassDeadline.
	StageDeadline time.Duration
	// InterpSteps is the interpreter step budget of execution-backed
	// stages, and the only one: when set, it bounds every fuzz
	// execution and both sides of every differential test. The guard
	// itself does not enforce it — it is configuration transport,
	// surfaced via the InterpSteps accessor and read by the fuzz and
	// repair engines. 0 keeps the stage defaults (2 M steps per fuzz
	// execution, the interpreter's own default inside the differential
	// test).
	InterpSteps int64
	// QuarantineDir, when non-empty, receives progen.Reduce-minimized
	// reproducers of deterministic failures (see quarantine.go); ""
	// disables quarantine.
	QuarantineDir string
	// ReduceTrials caps the reducer's predicate invocations per
	// quarantined input (default 400 — each trial replays the failing
	// stage).
	ReduceTrials int
	// Injector, when non-nil, plants deterministic faults at every hook
	// point (internal/chaos). Nil disables injection.
	Injector Injector
	// Metrics, when non-nil, receives guard.* counters. Like cache hit
	// counts, these may vary with Workers (speculative evaluations are
	// guarded too); committed failure counts in traces do not.
	Metrics *obs.Registry
	// Warn, when non-nil, receives one human-readable line per distinct
	// (stage, class) failure — the single-warning channel CLIs print to
	// stderr.
	Warn func(string)
}

// transientRetries is how many times a ClassTransient failure is
// retried before it becomes terminal.
const transientRetries = 2

// defaultReduceTrials applies when Options.ReduceTrials is 0.
const defaultReduceTrials = 400

// Guard applies the containment policy of one Options value. Safe for
// concurrent use; a nil *Guard is a valid zero-options guard.
type Guard struct {
	opts Options

	mu sync.Mutex
	// seen dedupes warnings and quarantine per (stage, class) label.
	seen map[string]bool
}

// New builds a guard, normalizing defaults.
func New(opts Options) *Guard {
	if opts.ReduceTrials == 0 {
		opts.ReduceTrials = defaultReduceTrials
	}
	return &Guard{opts: opts, seen: map[string]bool{}}
}

// options returns the effective configuration, nil-safe.
func (g *Guard) options() Options {
	if g == nil {
		return Options{ReduceTrials: defaultReduceTrials}
	}
	return g.opts
}

// Injecting reports whether a fault injector is configured — hot paths
// check it before paying for per-invocation key derivation.
func (g *Guard) Injecting() bool {
	return g != nil && g.opts.Injector != nil
}

// InterpSteps returns the configured interpreter step budget (0 when
// unset or the guard is nil).
func (g *Guard) InterpSteps() int64 {
	if g == nil {
		return 0
	}
	return g.opts.InterpSteps
}

// Invocation describes one guarded stage call.
type Invocation struct {
	Stage Stage
	// Key identifies the invocation for deterministic fault injection.
	// When empty and an injector is present, it is derived from Unit's
	// printed text. Content-derived keys — never call counters — are
	// what keep injection schedules identical for any Workers value.
	Key string
	// Unit is the stage's input program; deterministic failures on it
	// are quarantined as minimized reproducers. Nil skips quarantine
	// (e.g. the parse stage, whose input is raw text).
	Unit *cast.Unit
}

// Do runs fn under the guard's containment policy and returns its
// result. fn receives the invocation's unit (or, during quarantine
// minimization, a reduced variant — stage closures must evaluate the
// unit they are handed, not a captured one). fn's own returned errors
// pass through untouched; only containment verdicts come back as
// *StageFailure.
func Do[T any](g *Guard, inv Invocation, fn func(*cast.Unit) (T, error)) (T, error) {
	opts := g.options()
	key := inv.Key
	if opts.Injector != nil && key == "" && inv.Unit != nil {
		key = safePrint(inv.Unit)
	}
	var zero T
	for attempt := 1; ; attempt++ {
		out, err := runAttempt(opts, inv.Stage, key, inv.Unit, attempt, fn)
		sf := AsFailure(err)
		if sf == nil {
			return out, err
		}
		if sf.Class == ClassTransient && attempt <= transientRetries {
			if opts.Metrics != nil {
				opts.Metrics.Add("guard.retries."+string(inv.Stage), 1)
			}
			continue
		}
		sf.Attempts = attempt
		g.contain(opts, sf, inv.Unit, func(c *cast.Unit) bool {
			k := key
			if opts.Injector != nil && inv.Key == "" {
				k = safePrint(c)
			}
			_, rerr := runAttempt(opts, inv.Stage, k, c, 1, fn)
			rsf := AsFailure(rerr)
			return rsf != nil && rsf.Class == sf.Class
		})
		return zero, sf
	}
}

// runAttempt performs one invocation attempt: consult the injector,
// then run fn behind panic recovery and the optional deadline.
func runAttempt[T any](opts Options, stage Stage, key string, u *cast.Unit, attempt int, fn func(*cast.Unit) (T, error)) (T, error) {
	var zero T
	if inj := opts.Injector; inj != nil {
		switch f := inj.Fault(stage, key, attempt); f.Class {
		case ClassPanic:
			// Planted inside the recovered region, so injection exercises
			// the real containment path.
			out, err := protect(opts, stage, u, func(*cast.Unit) (T, error) {
				panic(detail(f, "injected stage panic"))
			})
			if sf := AsFailure(err); sf != nil {
				sf.Injected = true
			}
			return out, err
		case ClassDeadline:
			// Classified immediately rather than actually sleeping past
			// the deadline: deterministic and fast.
			return zero, &StageFailure{Stage: stage, Class: ClassDeadline,
				Injected: true, Detail: detail(f, "injected deadline overrun")}
		case ClassCorrupt:
			// The stage's output is deemed corrupted and discarded
			// without running it (running it and then discarding would be
			// equivalent but slower).
			return zero, &StageFailure{Stage: stage, Class: ClassCorrupt,
				Injected: true, Detail: detail(f, "injected output corruption")}
		case ClassTransient:
			return zero, &StageFailure{Stage: stage, Class: ClassTransient,
				Injected: true, Detail: detail(f, "injected transient fault")}
		}
	}
	return protect(opts, stage, u, fn)
}

func detail(f Fault, def string) string {
	if f.Detail != "" {
		return f.Detail
	}
	return def
}

// protect runs fn with panic recovery and, when configured, the stage
// deadline. With a deadline, fn runs on its own goroutine; on overrun
// the attempt is abandoned (the goroutine drains into a buffered
// channel and is collected when it finishes).
func protect[T any](opts Options, stage Stage, u *cast.Unit, fn func(*cast.Unit) (T, error)) (out T, err error) {
	if opts.StageDeadline <= 0 {
		defer func() {
			if r := recover(); r != nil {
				out = *new(T)
				err = PanicFailure(stage, r)
			}
		}()
		return fn(u)
	}
	type result struct {
		out T
		err error
	}
	ch := make(chan result, 1)
	go func() {
		var r result
		defer func() {
			if p := recover(); p != nil {
				r = result{err: PanicFailure(stage, p)}
			}
			ch <- r
		}()
		r.out, r.err = fn(u)
	}()
	timer := time.NewTimer(opts.StageDeadline)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.out, r.err
	case <-timer.C:
		return out, &StageFailure{Stage: stage, Class: ClassDeadline,
			Detail: fmt.Sprintf("no result within the %s stage deadline", opts.StageDeadline)}
	}
}

// safePrint derives an injection key from a unit's canonical text; a
// printer panic during key derivation must not escape the guard, so it
// degrades to a fixed key.
func safePrint(u *cast.Unit) (s string) {
	defer func() {
		if recover() != nil {
			s = "unprintable"
		}
	}()
	return cast.Print(u)
}

// shortHash is the 12-hex content address used in quarantine filenames.
func shortHash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])[:12]
}
