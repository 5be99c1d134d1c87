package conform

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/core"
	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/evalcache"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/guard"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/hls/check"
	"github.com/hetero/heterogen/internal/obs"
	"github.com/hetero/heterogen/internal/progen"
	"github.com/hetero/heterogen/internal/repair"
)

// Options configures a conformance run. The zero value checks 100
// programs from seed 1 with default budgets.
type Options struct {
	// Seed is the first generator seed (default 1); Count is how many
	// consecutive seeds to check (default 100).
	Seed  int64
	Count int
	// MaxViolations bounds planted kinds per program (progen default).
	MaxViolations int
	// CheckOnly stops after the checker-oracle stage — no fuzzing,
	// repair, or parity (fast sweep mode).
	CheckOnly bool
	// ParityEvery runs the cache/trace-parity stage on every k-th seed
	// (default 10; < 0 disables). Parity costs three pipeline runs.
	ParityEvery int
	// FuzzExecs / MaxIterations are the per-program fuzz and repair
	// budgets (defaults 150 and 32 — small, since generated kernels
	// are a few dozen lines).
	FuzzExecs     int
	MaxIterations int
	// OutDir, when non-empty, receives a minimized reproducer file for
	// every failure.
	OutDir string
	// TraceDir, when non-empty, retains each seed's stage-4 pipeline
	// trace as seed-<n>.jsonl — deterministic JSONL that hgstat ingests.
	// Only seeds that reach the pipeline stage leave a trace.
	TraceDir string
	// ReduceTrials caps the reducer's predicate budget per failure
	// (progen default; pipeline-stage reductions use a tenth of it,
	// since each trial is a full pipeline run).
	ReduceTrials int
	// Guard, when non-nil, contains stage failures inside the pipeline
	// runs instead of crashing the harness. With injection disabled the
	// report is bit-identical with or without it.
	Guard *guard.Guard
	// Targets, when set, runs each seed's pipeline stage against this
	// HLS target set (core.Options.Targets), so conformance sweeps
	// exercise the multi-target fitness and Pareto paths too. Empty
	// keeps the classic single-default-target pipeline.
	Targets []hls.Target
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Count <= 0 {
		o.Count = 100
	}
	if o.ParityEvery == 0 {
		o.ParityEvery = 10
	}
	if o.FuzzExecs <= 0 {
		o.FuzzExecs = 150
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 32
	}
	if o.ReduceTrials <= 0 {
		o.ReduceTrials = progen.DefaultMaxTrials
	}
	return o
}

// Failure is one failed assertion, minimized.
type Failure struct {
	Seed  int64
	Stage string // clean | roundtrip | oracle | pipeline | parity | generate | trace
	// Kind/Subject identify the planted violation for oracle failures
	// (empty otherwise).
	Kind    progen.Kind
	Subject string
	Detail  string
	// OriginalNodes/ReducedNodes measure the shrink (AST node counts).
	OriginalNodes int
	ReducedNodes  int
	// Source is the minimized reproducer; Path is where it was written
	// (empty when Options.OutDir is unset).
	Source string
	Path   string
}

// Report is the outcome of a conformance run. All fields are pure
// functions of Options — no wall-clock, no map order — so Summary is
// byte-identical across runs.
type Report struct {
	Seed  int64
	Count int
	// Programs is how many seeds were fully processed (== Count unless
	// the context was cancelled).
	Programs int
	// CleanOK counts violation-free twins the checker passed.
	CleanOK int
	// Violations / Flagged count planted violations and how many the
	// checker flagged with the right class.
	Violations int
	Flagged    int
	// Converged counts programs whose repair reached a compatible,
	// behaviour-preserving version (CheckOnly skips this stage).
	Converged int
	// ParityOK counts seeds whose three-way cache parity held.
	ParityOK int
	Failures []Failure
}

// OK reports a fully passing run.
func (r Report) OK() bool { return len(r.Failures) == 0 }

// Summary renders the deterministic one-line verdict.
func (r Report) Summary() string {
	return fmt.Sprintf(
		"hgconform seeds=[%d,%d] programs=%d clean_ok=%d violations=%d flagged=%d converged=%d parity_ok=%d failures=%d",
		r.Seed, r.Seed+int64(r.Count)-1, r.Programs, r.CleanOK,
		r.Violations, r.Flagged, r.Converged, r.ParityOK, len(r.Failures))
}

// RunContext executes the conformance harness with cooperative
// cancellation between seeds; the partial Report is valid alongside the
// ctx error.
func RunContext(ctx context.Context, opts Options) (Report, error) {
	o := opts.withDefaults()
	rep := Report{Seed: o.Seed, Count: o.Count}
	if o.TraceDir != "" {
		if err := os.MkdirAll(o.TraceDir, 0o755); err != nil {
			return rep, fmt.Errorf("conform: trace dir: %w", err)
		}
	}
	h := &harness{opts: o, rep: &rep}
	for i := 0; i < o.Count; i++ {
		if err := ctx.Err(); err != nil {
			return rep, fmt.Errorf("conform: cancelled after %d programs: %w", rep.Programs, err)
		}
		h.checkSeed(ctx, o.Seed+int64(i))
		rep.Programs++
	}
	return rep, nil
}

type harness struct {
	opts Options
	rep  *Report
}

func (h *harness) cfg() hls.Config { return hls.DefaultConfig("kernel") }

// pipeline runs the full five-stage pipeline with harness budgets.
func (h *harness) pipeline(ctx context.Context, u *cast.Unit, kernel string,
	o obs.Observer, c *evalcache.Cache) (core.Result, error) {
	fo := fuzz.DefaultOptions()
	fo.MaxExecs = h.opts.FuzzExecs
	fo.Plateau = h.opts.FuzzExecs / 2
	ro := repair.DefaultOptions()
	ro.MaxIterations = h.opts.MaxIterations
	return core.RunUnitContext(ctx, cast.CloneUnit(u), core.Options{
		Kernel: kernel, Fuzz: fo, Repair: ro, Obs: o, Cache: c,
		Guard: h.opts.Guard, Targets: h.opts.Targets,
	})
}

func (h *harness) checkSeed(ctx context.Context, seed int64) {
	// Stage 0: generation itself (a generator inconsistency is a bug).
	p, err := progen.Generate(progen.Options{Seed: seed, MaxViolations: h.opts.MaxViolations})
	if err != nil {
		h.rep.Failures = append(h.rep.Failures, Failure{
			Seed: seed, Stage: "generate", Detail: err.Error()})
		return
	}

	// Stage 1: the violation-free twin must be checker-clean.
	clean, err := progen.Generate(progen.Options{Seed: seed, Clean: true})
	if err != nil {
		h.rep.Failures = append(h.rep.Failures, Failure{
			Seed: seed, Stage: "generate", Detail: "clean twin: " + err.Error()})
	} else if crep := check.Run(clean.Unit, h.cfg()); !crep.OK {
		h.fail(seed, clean.Unit, Failure{
			Seed: seed, Stage: "clean",
			Detail: fmt.Sprintf("checker reports %d diagnostics on a violation-free program (first: %s)",
				len(crep.Diags), crep.Diags[0].Code),
		}, h.opts.ReduceTrials, func(u *cast.Unit) bool {
			ru, ok := reparse(u)
			return ok && !check.Run(ru, h.cfg()).OK
		})
	} else {
		h.rep.CleanOK++
	}

	// Stage 2: printing is stable.
	s1 := cast.Print(p.Unit)
	u2, perr := cparser.Parse(s1)
	if perr != nil || cast.Print(u2) != s1 {
		detail := "print -> parse -> print differs"
		if perr != nil {
			detail = "printed source does not re-parse: " + perr.Error()
		}
		h.fail(seed, p.Unit, Failure{Seed: seed, Stage: "roundtrip", Detail: detail},
			h.opts.ReduceTrials, func(u *cast.Unit) bool {
				s := cast.Print(u)
				ru, err := cparser.Parse(s)
				return err != nil || cast.Print(ru) != s
			})
		return
	}

	// Stage 3: the checker flags every planted violation's class.
	rep := check.Run(p.Unit, h.cfg())
	oracleOK := true
	for _, v := range p.Planted {
		h.rep.Violations++
		if rep.HasClass(v.Class) {
			h.rep.Flagged++
			continue
		}
		oracleOK = false
		v := v
		h.fail(seed, p.Unit, Failure{
			Seed: seed, Stage: "oracle", Kind: v.Kind, Subject: v.Subject,
			Detail: fmt.Sprintf("planted %s (%s) not flagged as %s", v.Kind, v.Subject, v.Class),
		}, h.opts.ReduceTrials, func(u *cast.Unit) bool {
			ru, ok := reparse(u)
			return ok && progen.Present(ru, v) && !check.Run(ru, h.cfg()).HasClass(v.Class)
		})
	}
	if h.opts.CheckOnly || !oracleOK {
		return
	}

	// Stage 4: the repair loop converges and the repaired HLS-C agrees
	// with the CPU interpreter on the fuzzed corpus. With TraceDir set
	// the run is traced; the trace is wall-free JSONL, so retention
	// changes no pipeline behaviour and the file is byte-deterministic.
	var tobs obs.Observer
	var tbuf bytes.Buffer
	var tw *obs.TraceWriter
	if h.opts.TraceDir != "" {
		tw = obs.NewTraceWriter(&tbuf)
		tobs = obs.Tag(tw, fmt.Sprintf("seed-%d", seed))
	}
	res, rerr := h.pipeline(ctx, p.Unit, p.Kernel, tobs, nil)
	if tw != nil {
		if err := tw.Flush(); err == nil {
			path := filepath.Join(h.opts.TraceDir, fmt.Sprintf("seed-%d.jsonl", seed))
			if werr := os.WriteFile(path, tbuf.Bytes(), 0o644); werr != nil {
				h.rep.Failures = append(h.rep.Failures, Failure{
					Seed: seed, Stage: "trace", Detail: "retention: " + werr.Error()})
			}
		}
	}
	if rerr != nil || !res.Compatible || !res.BehaviorOK {
		detail := fmt.Sprintf("compat=%v behavior=%v", res.Compatible, res.BehaviorOK)
		if rerr != nil {
			detail = "pipeline error: " + rerr.Error()
		} else if len(res.Repair.Remaining) > 0 {
			d := res.Repair.Remaining[0]
			detail += fmt.Sprintf(" first-remaining=[%s %s '%s']", d.Code, d.Class, d.Subject)
		}
		h.fail(seed, p.Unit, Failure{Seed: seed, Stage: "pipeline", Detail: detail},
			h.opts.ReduceTrials/10, func(u *cast.Unit) bool {
				ru, ok := reparse(u)
				if !ok || ru.Func(p.Kernel) == nil {
					return false
				}
				r, err := h.pipeline(ctx, ru, p.Kernel, nil, nil)
				return err != nil || !r.Compatible || !r.BehaviorOK
			})
		return
	}
	h.rep.Converged++

	// Stage 5: cache/trace parity on every k-th seed.
	if h.opts.ParityEvery > 0 && (seed-h.rep.Seed)%int64(h.opts.ParityEvery) == 0 {
		if detail := h.parityViolation(ctx, p.Unit, p.Kernel); detail != "" {
			h.fail(seed, p.Unit, Failure{Seed: seed, Stage: "parity", Detail: detail},
				h.opts.ReduceTrials/10, func(u *cast.Unit) bool {
					ru, ok := reparse(u)
					if !ok || ru.Func(p.Kernel) == nil {
						return false
					}
					return h.parityViolation(ctx, ru, p.Kernel) != ""
				})
		} else {
			h.rep.ParityOK++
		}
	}
}

// parityViolation runs the pipeline three ways — cache disabled, cold
// cache, warm cache — with tracing on, and reports the first parity
// break ("" when parity holds): traces must be byte-identical and
// verdict summaries identical bar cache statistics.
func (h *harness) parityViolation(ctx context.Context, u *cast.Unit, kernel string) string {
	run := func(c *evalcache.Cache) (string, string, error) {
		var buf bytes.Buffer
		tw := obs.NewTraceWriter(&buf)
		res, err := h.pipeline(ctx, u, kernel, tw, c)
		if err != nil {
			return "", "", err
		}
		if err := tw.Flush(); err != nil {
			return "", "", err
		}
		// Cache statistics are excluded from the parity contract.
		summary, _, _ := strings.Cut(res.Summary(), " cache=")
		return buf.String(), summary, nil
	}
	t0, s0, err := run(nil)
	if err != nil {
		return "uncached run: " + err.Error()
	}
	cache, err := evalcache.New(evalcache.Options{})
	if err != nil {
		return "cache: " + err.Error()
	}
	t1, s1, err := run(cache)
	if err != nil {
		return "cold-cache run: " + err.Error()
	}
	t2, s2, err := run(cache)
	if err != nil {
		return "warm-cache run: " + err.Error()
	}
	switch {
	case t0 != t1:
		return fmt.Sprintf("trace differs between disabled and cold cache (%d vs %d bytes)", len(t0), len(t1))
	case t1 != t2:
		return fmt.Sprintf("trace differs between cold and warm cache (%d vs %d bytes)", len(t1), len(t2))
	case s0 != s1:
		return fmt.Sprintf("summary differs between disabled and cold cache (%q vs %q)", s0, s1)
	case s1 != s2:
		return fmt.Sprintf("summary differs between cold and warm cache (%q vs %q)", s1, s2)
	}
	return ""
}

// fail minimizes a failing program under keep, records the Failure,
// and writes the reproducer to OutDir.
func (h *harness) fail(seed int64, u *cast.Unit, f Failure, trials int, keep func(*cast.Unit) bool) {
	if trials <= 0 {
		trials = 100
	}
	red := progen.Reduce(u, keep, progen.ReduceOptions{MaxTrials: trials})
	f.OriginalNodes = cast.CountNodes(u)
	f.ReducedNodes = cast.CountNodes(red)
	f.Source = cast.Print(red)
	if h.opts.OutDir != "" {
		if path, err := writeReproducer(h.opts.OutDir, f); err == nil {
			f.Path = path
		} else {
			f.Detail += " (reproducer not written: " + err.Error() + ")"
		}
	}
	h.rep.Failures = append(h.rep.Failures, f)
}

// writeReproducer persists a minimized failure with enough metadata for
// Replay to re-assert it.
func writeReproducer(dir string, f Failure) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("seed%d_%s", f.Seed, f.Stage)
	if f.Kind != "" {
		name += "_" + string(f.Kind)
	}
	path := filepath.Join(dir, name+".c")
	var b strings.Builder
	fmt.Fprintf(&b, "// hgconform reproducer: regenerate with `hgconform -seed %d -n 1`\n", f.Seed)
	fmt.Fprintf(&b, "// seed=%d stage=%s", f.Seed, f.Stage)
	if f.Kind != "" {
		fmt.Fprintf(&b, " kind=%s subject=%s", f.Kind, f.Subject)
	}
	fmt.Fprintf(&b, "\n// nodes=%d/%d detail: %s\n", f.ReducedNodes, f.OriginalNodes, f.Detail)
	b.WriteString(f.Source)
	return path, os.WriteFile(path, []byte(b.String()), 0o644)
}

// Replay re-asserts a committed reproducer: the failure its header
// records must no longer reproduce. Returns an error when the old bug
// is back (or the file is malformed).
func Replay(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	meta := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "// ") {
			continue
		}
		for _, f := range strings.Fields(line[3:]) {
			if k, v, ok := strings.Cut(f, "="); ok {
				if _, dup := meta[k]; !dup {
					meta[k] = v
				}
			}
		}
	}
	stage := meta["stage"]
	if stage == "" {
		return fmt.Errorf("conform: %s: no stage= in reproducer header", path)
	}
	u, err := cparser.Parse(string(data))
	if err != nil {
		return fmt.Errorf("conform: %s: %w", path, err)
	}
	cfg := hls.DefaultConfig("kernel")
	switch stage {
	case "clean":
		if rep := check.Run(u, cfg); !rep.OK {
			return fmt.Errorf("conform: %s: checker still reports %d diagnostics on clean program (first: %s)",
				path, len(rep.Diags), rep.Diags[0].Code)
		}
	case "roundtrip":
		s1 := cast.Print(u)
		u2, err := cparser.Parse(s1)
		if err != nil {
			return fmt.Errorf("conform: %s: printed source does not re-parse: %w", path, err)
		}
		if s2 := cast.Print(u2); s1 != s2 {
			return fmt.Errorf("conform: %s: print -> parse -> print still differs", path)
		}
	case "oracle":
		kind := progen.Kind(meta["kind"])
		class := progen.ClassOf(kind)
		if class == hls.ClassNone {
			return fmt.Errorf("conform: %s: unknown violation kind %q", path, kind)
		}
		v := progen.Violation{Kind: kind, Class: class, Subject: meta["subject"]}
		if !progen.Present(u, v) {
			// The construct itself is gone: nothing to assert (the
			// reducer guarantees presence at write time, so flag it).
			return fmt.Errorf("conform: %s: planted construct %s no longer present", path, kind)
		}
		if !check.Run(u, cfg).HasClass(class) {
			return fmt.Errorf("conform: %s: %s still not flagged as %s", path, kind, class)
		}
	case "pipeline", "parity":
		if u.Func("kernel") == nil {
			return fmt.Errorf("conform: %s: no kernel function", path)
		}
		h := &harness{opts: Options{}.withDefaults()}
		if stage == "parity" {
			if d := h.parityViolation(context.Background(), u, "kernel"); d != "" {
				return fmt.Errorf("conform: %s: parity still broken: %s", path, d)
			}
			return nil
		}
		res, err := h.pipeline(context.Background(), u, "kernel", nil, nil)
		if err != nil {
			return fmt.Errorf("conform: %s: pipeline: %w", path, err)
		}
		if !res.Compatible || !res.BehaviorOK {
			return fmt.Errorf("conform: %s: pipeline still fails (compat=%v behavior=%v)",
				path, res.Compatible, res.BehaviorOK)
		}
	default:
		return fmt.Errorf("conform: %s: unknown stage %q", path, stage)
	}
	return nil
}

// ReplayDir replays every .c reproducer in a directory (sorted),
// returning the first error. A missing directory is not an error — the
// corpus starts empty.
func ReplayDir(dir string) error {
	matches, err := filepath.Glob(filepath.Join(dir, "*.c"))
	if err != nil {
		return err
	}
	for _, m := range matches {
		if err := Replay(m); err != nil {
			return err
		}
	}
	return nil
}

// reparse round-trips a unit through the printer and frontend, which
// both validates printability and renumbers branches for execution.
func reparse(u *cast.Unit) (*cast.Unit, bool) {
	ru, err := cparser.Parse(cast.Print(u))
	if err != nil {
		return nil, false
	}
	return ru, true
}
