// Package agg is the fleet trace warehouse: it ingests directories of
// deterministic JSONL traces (hgconform sweeps, hgserve job retention
// dirs, CLI -trace runs) into a compact content-addressed index and
// derives fleet-level statistics — per-stage virtual-cost and wall
// latency percentiles, repair convergence funnels, candidate outcomes
// by error class, and cache-hit attribution from job sidecars.
//
// The warehouse is deterministic by construction: traces are keyed by
// the SHA-256 of their bytes, every aggregate either commutes (counts,
// sums) or is computed after sorting (percentiles, table rows), and
// Snapshot renders trace summaries in hash order. Ingesting the same
// trace set in any order therefore yields byte-identical reports;
// ingesting the same trace twice (same bytes, any file name) counts its
// events once, though each copy's job sidecar still contributes to the
// fleet's cache and latency aggregates.
package agg

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/hetero/heterogen/internal/obs"
	"github.com/hetero/heterogen/internal/obs/span"
)

// Ingestor accumulates traces; call Snapshot for the derived Fleet
// view. Not safe for concurrent use.
type Ingestor struct {
	traces map[string]*traceFacts // keyed by content hash
}

// NewIngestor returns an empty warehouse.
func NewIngestor() *Ingestor {
	return &Ingestor{traces: map[string]*traceFacts{}}
}

// traceFacts is the per-trace slice of the index: everything Snapshot
// needs, already mined from the trace's span runs.
type traceFacts struct {
	hash   string
	name   string // first file name seen (informational only)
	events int
	runs   int

	phaseVirtual map[string][]float64
	phaseWall    map[string][]float64
	stageVirtual map[string][]float64

	funnel  Funnel
	classes map[string]*counts
	// targets aggregates per target-set stamp (obs.Event.Target, set
	// only by targeted runs); empty for classic untargeted traces.
	targets map[string]*targetCounts

	// metas holds every job sidecar seen for this content hash: identical
	// traces from distinct jobs dedupe as traces but each job's wall /
	// queue / cache facts still count. Aggregation over metas is
	// order-independent (counts commute, samples are sorted by NewDist).
	metas []*span.RunMeta
}

type counts struct{ tried, accepted int64 }

// targetCounts is one target-set stamp's activity within a trace.
type targetCounts struct {
	events    int64
	attempts  int64
	accepted  int64
	converged int64
	// virtual holds the virtual-cost deltas of the stamp's candidate
	// evaluations — the per-target slice of the stage-latency view.
	virtual []float64
}

func (t *targetCounts) add(o *targetCounts) {
	t.events += o.events
	t.attempts += o.attempts
	t.accepted += o.accepted
	t.converged += o.converged
	t.virtual = append(t.virtual, o.virtual...)
}

// Funnel is the repair convergence funnel over a trace set: how many
// runs entered repair, how many candidates were tried, how far they
// got, and how many runs converged.
type Funnel struct {
	Runs       int64 `json:"runs"`
	Repairs    int64 `json:"repairs"`
	Attempts   int64 `json:"attempts"`
	Evaluated  int64 `json:"evaluated"`
	Accepted   int64 `json:"accepted"`
	Converged  int64 `json:"converged"`
	FuzzRuns   int64 `json:"fuzz_campaigns"`
	StageFails int64 `json:"stage_failures"`
}

func (f *Funnel) add(o Funnel) {
	f.Runs += o.Runs
	f.Repairs += o.Repairs
	f.Attempts += o.Attempts
	f.Evaluated += o.Evaluated
	f.Accepted += o.Accepted
	f.Converged += o.Converged
	f.FuzzRuns += o.FuzzRuns
	f.StageFails += o.StageFails
}

// AddFile ingests one trace file plus its optional `<base>.meta.json`
// sidecar (written by hgserve's retention layer).
func (in *Ingestor) AddFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return in.Add(filepath.Base(path), data, span.ReadMeta(path))
}

// IngestDir ingests every *.jsonl file directly inside dir (sidecar
// *.meta.json files are picked up alongside their trace, never
// ingested as traces). Returns how many trace files were read.
func (in *Ingestor) IngestDir(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".jsonl") {
			continue
		}
		if err := in.AddFile(filepath.Join(dir, e.Name())); err != nil {
			return n, fmt.Errorf("agg: %s: %w", e.Name(), err)
		}
		n++
	}
	return n, nil
}

// Add ingests one trace from bytes. A trace whose content hash is
// already present contributes no new events (the warehouse is
// content-addressed), but its sidecar is still accumulated — identical
// traces from distinct jobs are one trace and N jobs. The stored name
// is the lexicographically smallest seen, so the index never depends
// on ingestion order.
func (in *Ingestor) Add(name string, data []byte, meta *span.RunMeta) error {
	sum := sha256.Sum256(data)
	hash := hex.EncodeToString(sum[:])
	if prev, ok := in.traces[hash]; ok {
		if name < prev.name {
			prev.name = name
		}
		if meta != nil {
			prev.metas = append(prev.metas, meta)
		}
		return nil
	}
	events, err := obs.ParseTrace(bytes.NewReader(data))
	if err != nil {
		return err
	}
	tf := mine(span.Build(events))
	tf.hash = hash
	tf.name = name
	if meta != nil {
		tf.metas = append(tf.metas, meta)
	}
	in.traces[hash] = tf
	return nil
}

// mine derives one trace's facts from its span runs.
func mine(runs []*span.Run) *traceFacts {
	tf := &traceFacts{
		runs:         len(runs),
		funnel:       Funnel{Runs: int64(len(runs))},
		phaseVirtual: map[string][]float64{},
		phaseWall:    map[string][]float64{},
		stageVirtual: map[string][]float64{},
		classes:      map[string]*counts{},
		targets:      map[string]*targetCounts{},
	}
	for _, r := range runs {
		for stamp, n := range r.Stamps {
			tf.events += n
			if stamp != "" {
				entry(tf.targets, stamp).events += int64(n)
			}
		}
		for _, p := range r.Phases() {
			ph := p.Event.Phase
			tf.phaseVirtual[ph.Name] = append(tf.phaseVirtual[ph.Name], ph.VirtualDelta)
			if ph.WallNS > 0 {
				tf.phaseWall[ph.Name] = append(tf.phaseWall[ph.Name], float64(ph.WallNS)/1e6)
			}
		}
		for _, l := range r.Leaves {
			switch {
			case l.Kind == span.KindExec:
				tf.stageVirtual["fuzz.exec"] = append(tf.stageVirtual["fuzz.exec"], l.Self)
			case l.Initial():
				tf.funnel.Repairs++
				tf.stageVirtual["repair.init"] = append(tf.stageVirtual["repair.init"], l.Event.Repair.VirtualDelta)
			case l.Kind == span.KindCandidate:
				tf.candidate(l.Event)
			}
		}
		tf.funnel.FuzzRuns += int64(len(r.FuzzDone))
		for _, e := range r.RepairDone {
			if e.Done.Compatible && e.Done.BehaviorOK {
				tf.funnel.Converged++
				if e.Target != "" {
					entry(tf.targets, e.Target).converged++
				}
			}
		}
	}
	return tf
}

// entry returns m[k], creating it on demand.
func entry[V any](m map[string]*V, k string) *V {
	v := m[k]
	if v == nil {
		v = new(V)
		m[k] = v
	}
	return v
}

// candidate folds one tried candidate into the funnel, its stage and
// error class, and its target-set stamp.
func (tf *traceFacts) candidate(e *obs.Event) {
	r := e.Repair
	tf.stageVirtual["repair."+r.Step] = append(tf.stageVirtual["repair."+r.Step], r.VirtualDelta)
	tf.funnel.Attempts++
	if e.Target != "" {
		tc := entry(tf.targets, e.Target)
		tc.attempts++
		tc.virtual = append(tc.virtual, r.VirtualDelta)
		if r.Accepted {
			tc.accepted++
		}
	}
	if r.Evaluated {
		tf.funnel.Evaluated++
	}
	if r.Failure != "" {
		tf.funnel.StageFails++
	}
	cc := entry(tf.classes, r.Class)
	cc.tried++
	if r.Accepted {
		tf.funnel.Accepted++
		cc.accepted++
	}
}

// TraceInfo is one ingested trace's identity in the snapshot.
type TraceInfo struct {
	Hash   string `json:"hash"`
	Name   string `json:"name"`
	Events int    `json:"events"`
	Runs   int    `json:"runs"`
}

// StageStat is one named distribution in the fleet view.
type StageStat struct {
	Name string `json:"name"`
	Dist Dist   `json:"dist"`
}

// ClassStat is one error class's candidate outcome totals.
type ClassStat struct {
	Class    string `json:"class"`
	Tried    int64  `json:"tried"`
	Accepted int64  `json:"accepted"`
	Rejected int64  `json:"rejected"`
}

// TargetStat is one target-set stamp's fleet-wide activity: how many
// events carried the stamp, the repair attempts and acceptances under
// it, how many of its runs converged, and the virtual-cost
// distribution of its candidate evaluations (the per-target slice of
// the stage-latency view; nil when the stamp saw no evaluations).
type TargetStat struct {
	Target      string `json:"target"`
	Events      int64  `json:"events"`
	Attempts    int64  `json:"attempts"`
	Accepted    int64  `json:"accepted"`
	Converged   int64  `json:"converged"`
	EvalVirtual *Dist  `json:"eval_virtual_s,omitempty"`
}

// CacheStat attributes cache activity (from job sidecars) per stage.
type CacheStat struct {
	Stage  string `json:"stage"`
	Hits   int64  `json:"hits"`
	Misses int64  `json:"misses"`
}

// Fleet is the order-independent aggregate over every ingested trace.
type Fleet struct {
	Traces int         `json:"traces"`
	Runs   int         `json:"runs"`
	Events int         `json:"events"`
	Index  []TraceInfo `json:"index"`

	// PhaseVirtual / PhaseWall / StageVirtual are named percentile
	// distributions: virtual seconds per phase, wall milliseconds per
	// phase (only for traces recorded with wall clocks), and virtual
	// seconds per stage (repair.init / repair.repair / repair.perf /
	// fuzz.exec).
	PhaseVirtual []StageStat `json:"phase_virtual_s"`
	PhaseWall    []StageStat `json:"phase_wall_ms,omitempty"`
	StageVirtual []StageStat `json:"stage_virtual_s"`

	Funnel  Funnel      `json:"funnel"`
	Classes []ClassStat `json:"classes,omitempty"`

	// Targets breaks activity down per target-set stamp. Empty (and
	// absent from Text) for classic untargeted trace sets, so reports
	// over such sets are byte-identical to earlier releases.
	Targets []TargetStat `json:"targets,omitempty"`

	// Cache / QueueWaitMS / JobWallMS come from job sidecars and are
	// empty for bare trace sets.
	Cache       []CacheStat `json:"cache,omitempty"`
	QueueWaitMS *Dist       `json:"queue_wait_ms,omitempty"`
	JobWallMS   []StageStat `json:"job_wall_ms,omitempty"`
}

// Snapshot merges every ingested trace, in content-hash order, into
// the fleet view. Calling it twice without further ingestion yields
// identical values; ingestion order never matters.
func (in *Ingestor) Snapshot() *Fleet {
	hashes := make([]string, 0, len(in.traces))
	for h := range in.traces {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)

	f := &Fleet{Traces: len(hashes)}
	phaseV := map[string][]float64{}
	phaseW := map[string][]float64{}
	stageV := map[string][]float64{}
	classes := map[string]*counts{}
	targets := map[string]*targetCounts{}
	cache := map[string]*CacheStat{}
	var queueWait []float64
	jobWall := map[string][]float64{}

	for _, h := range hashes {
		tf := in.traces[h]
		f.Index = append(f.Index, TraceInfo{Hash: tf.hash, Name: tf.name, Events: tf.events, Runs: tf.runs})
		f.Runs += tf.runs
		f.Events += tf.events
		f.Funnel.add(tf.funnel)
		for k, v := range tf.phaseVirtual {
			phaseV[k] = append(phaseV[k], v...)
		}
		for k, v := range tf.phaseWall {
			phaseW[k] = append(phaseW[k], v...)
		}
		for k, v := range tf.stageVirtual {
			stageV[k] = append(stageV[k], v...)
		}
		for k, c := range tf.classes {
			dst := entry(classes, k)
			dst.tried += c.tried
			dst.accepted += c.accepted
		}
		for k, c := range tf.targets {
			entry(targets, k).add(c)
		}
		for _, m := range tf.metas {
			if m.QueueWaitMS > 0 {
				queueWait = append(queueWait, m.QueueWaitMS)
			}
			if m.WallMS > 0 {
				jobWall[m.Kind] = append(jobWall[m.Kind], m.WallMS)
			}
			if m.Cache != nil {
				for stage, st := range m.Cache.Stages {
					cs := entry(cache, string(stage))
					cs.Stage = string(stage)
					cs.Hits += st.Hits
					cs.Misses += st.Misses
				}
			}
		}
	}

	f.PhaseVirtual = distTable(phaseV)
	f.PhaseWall = distTable(phaseW)
	f.StageVirtual = distTable(stageV)
	for _, k := range sortedKeys(classes) {
		c := classes[k]
		f.Classes = append(f.Classes, ClassStat{Class: k, Tried: c.tried, Accepted: c.accepted, Rejected: c.tried - c.accepted})
	}
	for _, k := range sortedKeys(targets) {
		t := targets[k]
		ts := TargetStat{Target: k,
			Events: t.events, Attempts: t.attempts, Accepted: t.accepted, Converged: t.converged}
		if len(t.virtual) > 0 {
			d := NewDist(t.virtual)
			ts.EvalVirtual = &d
		}
		f.Targets = append(f.Targets, ts)
	}
	for _, k := range sortedKeys(cache) {
		f.Cache = append(f.Cache, *cache[k])
	}
	if len(queueWait) > 0 {
		d := NewDist(queueWait)
		f.QueueWaitMS = &d
	}
	f.JobWallMS = distTable(jobWall)
	return f
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func distTable(m map[string][]float64) []StageStat {
	var out []StageStat
	for _, k := range sortedKeys(m) {
		out = append(out, StageStat{Name: k, Dist: NewDist(m[k])})
	}
	return out
}

// Text renders the fleet view as a deterministic operator report.
func (f *Fleet) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== fleet ==\ntraces=%d runs=%d events=%d\n", f.Traces, f.Runs, f.Events)
	fn := f.Funnel
	fmt.Fprintf(&sb, "\nconvergence funnel:\n")
	fmt.Fprintf(&sb, "  runs %d -> repairs %d -> attempts %d -> evaluated %d -> accepted %d -> converged %d\n",
		fn.Runs, fn.Repairs, fn.Attempts, fn.Evaluated, fn.Accepted, fn.Converged)
	if fn.StageFails > 0 {
		fmt.Fprintf(&sb, "  contained stage failures: %d\n", fn.StageFails)
	}
	writeDistSection(&sb, "phase virtual seconds", f.PhaseVirtual, "s")
	writeDistSection(&sb, "phase wall latency", f.PhaseWall, "ms")
	writeDistSection(&sb, "stage virtual seconds", f.StageVirtual, "s")
	if len(f.Classes) > 0 {
		sb.WriteString("\ncandidates by error class:\n")
		fmt.Fprintf(&sb, "  %-22s %8s %9s %9s\n", "class", "tried", "accepted", "rejected")
		for _, c := range f.Classes {
			fmt.Fprintf(&sb, "  %-22s %8d %9d %9d\n", c.Class, c.Tried, c.Accepted, c.Rejected)
		}
	}
	if len(f.Targets) > 0 {
		sb.WriteString("\nper-target breakdown:\n")
		fmt.Fprintf(&sb, "  %-36s %8s %9s %9s %10s %16s\n",
			"target set", "events", "attempts", "accepted", "converged", "eval mean/p95 s")
		for _, t := range f.Targets {
			lat := "-"
			if t.EvalVirtual != nil {
				lat = fmt.Sprintf("%.1f/%.1f", t.EvalVirtual.Mean(), t.EvalVirtual.P95)
			}
			fmt.Fprintf(&sb, "  %-36s %8d %9d %9d %10d %16s\n",
				t.Target, t.Events, t.Attempts, t.Accepted, t.Converged, lat)
		}
	}
	if len(f.Cache) > 0 {
		sb.WriteString("\ncache attribution (from job sidecars):\n")
		for _, c := range f.Cache {
			total := c.Hits + c.Misses
			rate := 0.0
			if total > 0 {
				rate = 100 * float64(c.Hits) / float64(total)
			}
			fmt.Fprintf(&sb, "  %-12s %6d hits / %6d misses (%5.1f%% hit rate)\n", c.Stage, c.Hits, c.Misses, rate)
		}
	}
	if f.QueueWaitMS != nil {
		sb.WriteString("\njob latency (from job sidecars):\n")
		fmt.Fprintf(&sb, "  %-22s %s\n", "queue_wait_ms", f.QueueWaitMS.Row())
		for _, s := range f.JobWallMS {
			fmt.Fprintf(&sb, "  %-22s %s\n", "wall_ms."+s.Name, s.Dist.Row())
		}
	}
	return sb.String()
}

func writeDistSection(sb *strings.Builder, title string, stats []StageStat, unit string) {
	if len(stats) == 0 {
		return
	}
	fmt.Fprintf(sb, "\n%s (%s):\n", title, unit)
	for _, s := range stats {
		fmt.Fprintf(sb, "  %-22s %s\n", s.Name, s.Dist.Row())
	}
}
