// Command hgstat reads HeteroGen traces, one run or a whole fleet.
//
// Given a trace file (written by heterogen, heterogen fuzz or hgeval
// with -trace) it renders the paper's run artifacts: the Figure
// 2-style repair trajectory, the coverage-over-iterations curve, a
// fix-pattern frequency table, and the virtual-budget breakdown by
// pipeline phase and cost component. Given directories of trace files
// (hgconform sweeps, hgserve job retention dirs) it ingests them into
// a content-addressed warehouse and reports per-stage latency and
// virtual-cost percentiles, repair convergence funnels, candidate
// outcomes by error class, and cache-hit attribution. The operand's
// file type picks the mode.
//
// Usage:
//
//	hgstat [-json] [-check] [-cache-dir d] [target flags] trace.jsonl
//	hgstat [-json] -cache-dir d
//	hgstat [-json] [target flags] dir [dir...]
//	hgstat -span trace.jsonl [-top n]
//
// Target flags are -backend, -device and -target (internal/cliflag).
// On a trace file they keep only the events stamped with a matching
// HLS target (targeted runs stamp their target set on every event; see
// internal/obs.TagTarget), so events from untargeted runs are dropped
// by any filter. On directories they narrow the per-target breakdown.
//
// -check cross-validates a trace file's event stream against the run's
// final summary events (candidate counts, accepted-edit chain,
// virtual-time totals) and exits 1 on any mismatch — the trace must
// reproduce the run exactly.
//
// -cache-dir appends an evaluation-cache section summarizing the given
// persistent cache directory: entries and bytes per stage, plus the
// cumulative hit/miss statistics recorded across runs. Cache activity
// lives in this on-disk summary and in -metrics counters, never in the
// trace itself — traces stay byte-identical whether or not a cache was
// used. With no trace file only the cache section is printed.
//
// Fleet traces are keyed by content hash, every aggregate is computed
// on the sorted sample multiset, and the report is rendered in
// canonical order — the output is byte-identical for any ingestion
// order of the same trace set, and identical trace files are counted
// once.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/hetero/heterogen/internal/cliflag"
	"github.com/hetero/heterogen/internal/evalcache"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/obs"
	"github.com/hetero/heterogen/internal/obs/agg"
	"github.com/hetero/heterogen/internal/obs/span"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit the report as JSON instead of text")
	spanTrace := flag.String("span", "", "render one trace file as a span tree with its critical path, then exit")
	top := flag.Int("top", 8, "max child spans shown per level in the -span view")
	check := flag.Bool("check", false, "cross-validate a trace file's events against its run summary; exit 1 on mismatch")
	cacheDir := flag.String("cache-dir", "", "summarize this persistent evaluation-cache directory alongside a trace file's report")
	var tf cliflag.Target
	tf.Register(flag.CommandLine)
	flag.Parse()
	filter, err := tf.Targets()
	if err != nil {
		fail(err)
	}

	switch {
	case *spanTrace != "":
		if flag.NArg() != 0 {
			fail(fmt.Errorf("-span takes no directory arguments"))
		}
		if err := renderSpans(*spanTrace, *top); err != nil {
			fail(err)
		}
		return
	case flag.NArg() == 0 && *cacheDir != "":
		runReport("", *cacheDir, filter, *jsonOut, *check)
		return
	case flag.NArg() == 0:
		fmt.Fprintln(os.Stderr, "usage: hgstat [-json] [-check] [-cache-dir d] trace.jsonl | [-json] dir [dir...] (see -h)")
		os.Exit(2)
	}
	if fi, err := os.Stat(flag.Arg(0)); err == nil && fi.Mode().IsRegular() {
		if flag.NArg() != 1 {
			fail(fmt.Errorf("a trace file takes no other operands"))
		}
		runReport(flag.Arg(0), *cacheDir, filter, *jsonOut, *check)
		return
	}
	if *check || *cacheDir != "" {
		fail(fmt.Errorf("-check and -cache-dir take a trace file, not directories"))
	}

	in := agg.NewIngestor()
	total := 0
	for _, dir := range flag.Args() {
		n, err := in.IngestDir(dir)
		if err != nil {
			fail(err)
		}
		total += n
	}
	if total == 0 {
		fail(fmt.Errorf("no trace files (*.jsonl) under %s", strings.Join(flag.Args(), ", ")))
	}
	fleet := in.Snapshot()
	if len(filter) > 0 {
		// The flags narrow the per-target breakdown to stamps containing
		// a requested target; the rest of the report is unaffected.
		match := cliflag.StampMatcher(filter)
		var kept []agg.TargetStat
		for _, ts := range fleet.Targets {
			if match(ts.Target) {
				kept = append(kept, ts)
			}
		}
		fleet.Targets = kept
	}

	if *jsonOut {
		writeJSON(fleet)
		return
	}
	fmt.Print(fleet.Text())
}

// runReport renders one trace file as the single-run report
// (span.NewReport over the trace's span runs, the same fold the -span
// view and the fleet warehouse read), followed by the cache section
// when cacheDir is set. An empty path reports only the cache. With
// check, any mismatch between the events and the run's summary exits 1.
func runReport(path, cacheDir string, filter []hls.Target, asJSON, check bool) {
	var cache *evalcache.DirSummary
	if cacheDir != "" {
		sum, err := evalcache.SummarizeDir(cacheDir)
		if err != nil {
			fail(err)
		}
		cache = &sum
	}
	if path == "" {
		emit(nil, cache, asJSON)
		return
	}

	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	events, err := obs.ParseTrace(f)
	f.Close()
	if err != nil {
		fail(err)
	}
	if len(filter) > 0 {
		match := cliflag.StampMatcher(filter)
		var kept []obs.Event
		for _, e := range events {
			if match(e.Target) {
				kept = append(kept, e)
			}
		}
		if len(kept) == 0 {
			fail(fmt.Errorf("no events match the target filter (targeted traces stamp every event; untargeted ones carry no stamp)"))
		}
		events = kept
	}
	if len(events) == 0 {
		fail(fmt.Errorf("trace is empty"))
	}
	rep := span.NewReport(span.Build(events))
	emit(rep, cache, asJSON)

	if check {
		if problems := rep.Check(); len(problems) > 0 {
			for _, p := range problems {
				fmt.Fprintln(os.Stderr, "hgstat: check:", p)
			}
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "hgstat: check: trace is consistent with the run summary")
	}
}

// emit renders the run report and/or the cache summary. In JSON mode
// the bare report keeps its historical shape; the cache, when
// requested, rides alongside it in a wrapper object.
func emit(rep *span.Report, cache *evalcache.DirSummary, asJSON bool) {
	if asJSON {
		switch {
		case rep != nil && cache != nil:
			writeJSON(struct {
				Report *span.Report          `json:"report"`
				Cache  *evalcache.DirSummary `json:"cache"`
			}{rep, cache})
		case cache != nil:
			writeJSON(cache)
		default:
			writeJSON(rep)
		}
		return
	}
	if rep != nil {
		fmt.Print(rep.Text())
	}
	if cache != nil {
		if rep != nil {
			fmt.Println()
		}
		fmt.Print(cache.Text())
	}
}

// writeJSON prints v as indented JSON plus a newline.
func writeJSON(v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fail(err)
	}
	os.Stdout.Write(append(b, '\n'))
}

// renderSpans prints the span tree of every run in one trace file;
// Run.Text includes the run's critical path.
func renderSpans(path string, top int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := obs.ParseTrace(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	runs := span.Build(events)
	if len(runs) == 0 {
		return fmt.Errorf("%s: no runs in trace", path)
	}
	// A sidecar written by hgserve retention enriches the tree with the
	// job envelope and cache attribution when present.
	if meta := span.ReadMeta(path); meta != nil && len(runs) == 1 {
		span.Attach(runs[0], meta)
	}
	for i, r := range runs {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(r.Text(top))
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hgstat:", err)
	os.Exit(1)
}
