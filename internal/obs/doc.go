// Package obs is the structured-observability layer of the HeteroGen
// pipeline: typed events for every phase of a run (fuzzing executions,
// repair-candidate trials, HLS checks, pipeline phases), an Observer
// interface the subsystems emit into, and three sinks — a no-op default,
// a JSONL trace writer, and an in-memory metrics registry.
//
// The layer is zero-dependency (standard library only) and designed so a
// trace is a faithful, replayable record of the paper's evaluation data:
// Figure 2's repair trajectory, Table 3's attempts and virtual minutes,
// and §6's coverage curves all reconstruct from one trace file. This
// package is the emitting side only; every read-side view of a trace
// (the single-run report, the span tree, the fleet warehouse) is folded
// by internal/obs/span and rendered by cmd/hgstat.
//
// Determinism contract: the instrumented subsystems emit every event on
// their commit goroutine, in candidate/mutation enumeration order — the
// same commit-in-order design that makes the PR-1 worker pools
// bit-identical to sequential execution. Worker goroutines never emit;
// the data an event needs is buffered per worker inside the outcome
// structs (repair.evalOutcome, fuzz.execResult) and turned into events
// only at commit time. A JSONL trace is therefore byte-identical for any
// Workers value. The one inherently nondeterministic quantity, wall-clock
// duration, is stripped by the trace writer unless explicitly requested
// (TraceWriter.IncludeWall) and lives in the metrics registry instead.
package obs
