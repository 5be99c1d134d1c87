// Package guard is the failure-containment layer of the pipeline: every
// expensive toolchain stage invocation — parse, print, style check, full
// synthesizability check, resource estimation, differential test, and
// raw interpreter execution — runs behind Do, which converts panic
// escapes, deadline overruns, and injected faults into a typed
// StageFailure instead of letting one bad candidate take the whole
// process down.
//
// The paper's repair loop (§5) evaluates hundreds of mutated candidate
// ASTs per search; at production scale (ROADMAP north star) a candidate
// that crashes a stage must become a *rejected candidate with a recorded
// reason*, not an abort. Guard supplies the mechanism; the repair and
// fuzz engines own the policy (reject, count, emit at commit time so
// traces stay byte-identical for any Workers value — see
// internal/repair/parallel.go for the commit-in-order contract).
//
// Failure classes and retry policy:
//
//   - panic:     a deterministic crash of the stage. Never retried —
//     rerunning a pure function on the same input cannot help.
//   - deadline:  the stage exceeded Options.StageDeadline (or an
//     injected overrun). Never retried.
//   - corrupt:   the stage's output failed validation (only ever
//     injected today; real validators can adopt the class). Never
//     retried.
//   - transient: an environmental fault (I/O flake). Retried at once,
//     up to twice (the transientRetries constant), because a rerun
//     genuinely can succeed.
//
// Deterministic failures on quarantinable inputs are minimized with
// progen.Reduce and written under Options.QuarantineDir as committable
// reproducers (once per (stage, class) per Guard — see quarantine.go).
//
// Determinism: Do runs on worker goroutines, so it never emits trace
// events — callers surface failures at commit time. It does count into
// the metrics registry (guard.failures.<stage>.<class>, guard.retries,
// guard.quarantined), which — like cache hit counts — may legitimately
// vary with Workers (speculative evaluations past an accepted candidate
// are guarded too); the committed failure counts in traces and Stats do
// not.
//
// A nil *Guard is valid everywhere and behaves as a zero-options guard:
// containment on, no deadline, no injection, no quarantine — so call
// sites never branch on whether guarding is configured.
package guard
