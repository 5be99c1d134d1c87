// Package chaos is the deterministic fault injector behind the guard
// layer's test harness: it plants panics, deadline overruns, corrupted
// stage outputs, and transient faults at internal/guard hook points on
// a seed-driven schedule.
//
// Determinism contract: an injection decision is a pure hash of
// (seed, stage, invocation key) — invocation keys are content-derived
// (printed candidate text, test-case content), never call counters —
// so the same program reaches the same faults regardless of worker
// scheduling, Workers value, or prior cache state. Running the same
// seed twice degrades the pipeline identically; running with Rate 0 (or
// no injector at all) is byte-identical to an unguarded run.
package chaos
