# Build, test, and benchmark targets. `make check` is the pre-merge
# gate documented in CONTRIBUTING.md.

GO ?= go

.PHONY: all build test race vet golden bench bench-test bench-obs check trace-demo conform-smoke chaos-smoke serve-smoke crash-smoke obs-smoke target-smoke interp-diff-smoke fuzz-smoke docs-check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The repair worker pool (internal/repair/parallel.go) and the
# evaluation cache and compiled-code cache it shares are the main
# concurrency in the module; this is their data-race proof. -short
# trims the repair determinism suites to a few subjects — race coverage
# comes from the code paths, not subject breadth, and the full-breadth
# suites exceed the test binary's default timeout under the race
# detector's ~10x slowdown. Fuzzing has no pool, but a guard deadline
# runs each execution on its own goroutine, and an abandoned one may
# still run while the campaign goes on; the fuzz package runs in full.
race:
	$(GO) test -race -short ./internal/repair/...
	$(GO) test -race ./internal/fuzz/ ./internal/profile/

# go vet, plus gofmt: any file gofmt would rewrite fails the target.
# `gofmt -l .` walks bench/ too (a separate module, not covered by
# `go vet ./...`).
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi

# Regenerates the golden fixtures: the repair search's
# (internal/repair/testdata/golden: one Result JSON and one JSONL trace
# per recorded run), test generation's (internal/fuzz/testdata/golden:
# one campaign-and-profile JSON and one JSONL trace per subject and per
# crashy, untyped and chaos campaign shape) and the
# interpreter's (internal/interp/testdata/golden: belt.txt, one outcome
# hash per belt seed, mode and budget; vla.txt and edge.txt, full edge
# case outcomes) and the whole pipeline's (internal/core/testdata/golden:
# one end-to-end Result per subject and for Figure 2, plus stages.json,
# the standalone stages' answers and every entry point's parse and
# unknown-kernel error texts), hgserve's check job results and one fuzz
# job's result and event stream (internal/serve/testdata/golden), the
# examples' output (testdata/examples), hgstat's views
# (cmd/hgstat/testdata: the pipeline fixture trace, and per trace the
# report, its check problems and the span tree, plus the fleet report
# over all of them), the heterogen fuzz and check subcommands' and
# the transpiler's error output (cmd/heterogen/testdata/cli: exit
# status, stdout and stderr per run, plus one -trace file) and hgeval's
# (cmd/hgeval/testdata/golden: the whole -quick evaluation, and one
# subject's tables, figure and -trace file, untargeted and against two
# targets) and the keys that options feed (testdata/keys.json: per
# named configuration, the fuzz campaign's cache key and the repair
# checkpoint's header key). Only for an intended behaviour change
# whose fixture diff gets reviewed — see CONTRIBUTING.md.
golden:
	$(GO) test -count=1 -run 'TestFastEvalParity|TestFastEvalTargetsParity' ./internal/repair/ -update
	$(GO) test -count=1 -run 'TestCampaignGolden|TestCampaignSurvivesInterpFaults' ./internal/fuzz/ -update
	$(GO) test -count=1 -run 'TestDiffVMAgainstTree|TestDiffVLAAgainstTree|TestEdgeOutcomes' ./internal/interp/ -update
	$(GO) test -count=1 -run 'TestPipelineGolden|TestStageGolden' ./internal/core/ -update
	$(GO) test -count=1 -run 'TestCheckJobGolden|TestFuzzJobGolden' ./internal/serve/ -update
	$(GO) test -count=1 -run 'TestExamplesOutput|TestOptionKeysGolden' . -update
	$(GO) test -count=1 -run 'TestViewGolden' ./cmd/hgstat/ -update
	$(GO) test -count=1 -run 'TestCLIGolden' ./cmd/heterogen/ -update
	$(GO) test -count=1 -run 'TestEvalGolden' ./cmd/hgeval/ -update

bench:
	$(GO) test -bench=. -benchmem ./...

# The repository benchmark's own tests (bench/ is a separate module, so
# `make test` does not build it): every workload at smoke-test size,
# input generation, the statistics and the compare verdicts. About 3 s.
bench-test:
	cd bench && $(GO) test ./...

# Regenerates bench_obs.json, the committed record of the tracing
# overhead: the Figure 2 repair search with the full hgserve
# observability sink (JSONL trace writer + metrics registry) vs no
# observer at all, pure compute. Fails at 5% overhead or above.
bench-obs:
	WRITE_BENCH=1 $(GO) test -run TestWriteObsBenchReport -v .

# Full outcome belt for the interpreter: all 2000 seeds of the
# recorded-outcome sweep (clean and fault-injected progen programs, CPU
# and FPGA modes, tight step budgets, checked against
# internal/interp/testdata/golden/belt.txt), the recorded edge cases,
# and the subjects' compile check, plus the shared-Codebase race test.
# `make check` runs the same belt at its 200-seed default.
interp-diff-smoke:
	INTERP_DIFF=1 $(GO) test -run 'TestDiffVMAgainstTree|TestDiffVLAAgainstTree|TestEdgeOutcomes|TestSubjectsCompile|TestIntSlotsKeepCarrier|TestIntElemsKeepCarrier|TestSharedZeroIsolation' -v ./internal/interp/
	$(GO) test -race -run TestCodebaseSharedConcurrently ./internal/interp/

# Fixed-seed conformance smoke: 100 generated kernels with planted HLS
# violations through the full pipeline (checker oracle, repair
# convergence, differential test, sampled cache/trace parity), plus the
# -short conformance unit suites. Deterministic — same seeds every run.
conform-smoke:
	$(GO) run ./cmd/hgconform -seed 1 -n 100
	$(GO) test -short ./internal/progen/... ./internal/conform/...

# Chaos smoke: the deterministic fault-injection matrix (every guarded
# stage crossed with every failure class) plus the guard unit suite,
# under the race detector — the proof that no stage panic, hang, or
# corrupt output escapes containment and that fault-free guarded runs
# stay byte-identical. -short trims the subject-parity sweep to three
# subjects; the matrix itself always runs in full.
chaos-smoke:
	$(GO) test -race -short ./internal/guard/... ./internal/chaos/...

# Service smoke: build the real hgserve binary, start it on a free
# port, run one job of every kind over HTTP, and assert the /metrics
# and /healthz contracts. The only test that exercises the daemon as a
# process (startup line, flags, signal shutdown); the API behaviour
# itself is covered by internal/serve's httptest suite.
serve-smoke:
	SERVE_SMOKE=1 $(GO) test -run TestServeSmoke -v ./cmd/hgserve

# Crash smoke: the durability kill matrix. Builds the real hgserve
# binary, SIGKILLs it at injected crash points (mid-journal-append,
# mid-checkpoint-append, mid-cache-write, mid-drain, plus a hard kill
# after a terminal job), restarts it on the same -state-dir, and
# asserts the recovery invariants: the journal always reloads, every
# 202-acknowledged job is findable, and an interrupted repair resumes
# to a result and event trace byte-identical to an undisturbed control
# run. The test harness itself runs under the race detector.
crash-smoke:
	CRASH_SMOKE=1 $(GO) test -race -run TestCrashSmoke -v ./cmd/hgserve

# Observability smoke: run a small traced hgconform sweep, ingest the
# retained traces with the real hgstat binary in two different orders,
# and assert the fleet report and the JSON aggregate are byte-identical
# — the end-to-end determinism contract of the trace warehouse. Also
# exercises the -span view and the single-run report with -check on a
# sound and a broken trace.
obs-smoke:
	OBS_SMOKE=1 $(GO) test -run TestObsSmoke -v ./cmd/hgstat

# Target smoke: build the real heterogen and hgserve binaries and run
# one subject against every shipped backend/device profile — each
# profile alone, the full set as a multi-target Pareto repair with its
# per-device report, and a multi-target job over hgserve's HTTP API
# (including the 400 contract for unknown target specs).
target-smoke:
	TARGET_SMOKE=1 $(GO) test -run TestTargetSmoke -v .

# Fuzz smoke: every native fuzz target for 10 s on two workers — the
# parser, the interpreter, hgstat's trace views, hgserve's job
# submission endpoint, and the decoders of the three durable logs
# (journal replay, checkpoint open, cache load).
# A target fails on a panic or a broken invariant and writes the input
# under its package's testdata/fuzz, where `go test` replays it.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s -parallel 2 ./internal/cparser/
	$(GO) test -run '^$$' -fuzz '^FuzzExec$$' -fuzztime 10s -parallel 2 ./internal/interp/
	$(GO) test -run '^$$' -fuzz '^FuzzTraceViews$$' -fuzztime 10s -parallel 2 ./cmd/hgstat/
	$(GO) test -run '^$$' -fuzz '^FuzzSubmitRequest$$' -fuzztime 10s -parallel 2 ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime 10s -parallel 2 ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointOpen$$' -fuzztime 10s -parallel 2 ./internal/repair/
	$(GO) test -run '^$$' -fuzz '^FuzzCacheLoad$$' -fuzztime 10s -parallel 2 ./internal/evalcache/

# Docs gate: every flag that any cmd/ binary or heterogen subcommand
# lists in its -h output (including the shared internal/cliflag
# families) must appear in the README's consolidated CLI reference
# table, every per-binary row must name a flag its command registers,
# and every shared row must list exactly the binaries that register it.
docs-check:
	$(GO) test -run TestDocsFlagReference -v .

# Traces one evaluation subject end-to-end and cross-validates the trace
# with hgstat -check: the event stream must reproduce the run's
# reported attempts, edit chain, and virtual clock exactly.
TRACE_DEMO := $(or $(TMPDIR),/tmp)/heterogen-trace-demo.jsonl
trace-demo:
	$(GO) run ./cmd/hgeval -quick -subject P2 -table3 -workers 4 -trace $(TRACE_DEMO)
	$(GO) run ./cmd/hgstat -check $(TRACE_DEMO)

check: build vet test race
