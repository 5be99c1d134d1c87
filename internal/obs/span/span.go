// Package span derives hierarchical spans from a flat obs event
// stream. It is a pure post-processing layer: Build is a deterministic
// function of the events, so two byte-identical traces always produce
// identical span trees — the layer adds no instrumentation, no
// wall-clock reads, and no allocation on the emitting path.
//
// The hierarchy mirrors the pipeline:
//
//	run (one per subject)
//	└── phase ("fuzz" | "profile" | "repair", from phase_start/end)
//	    └── stage (repair step: "init" | "repair" | "perf"; fuzz: "execs")
//	        └── candidate / exec (one tried repair candidate or one
//	            committed fuzz execution)
//	            └── cost ("style" | "compile" | "sim" components)
//
// Build is the one read-side fold over the event stream: the
// single-run report (NewReport) and the fleet warehouse
// (internal/obs/agg) read the runs it returns, never the events. Leaf
// and phase spans keep their source event, and each run keeps its
// leaves in event order and its fuzz_done and repair_done summaries,
// so every view reads the payload fields it needs off the tree.
//
// Virtual cost attributes bottom-up: a span's Total is its Self cost
// plus its children's Totals. A fuzz execution's Self is its campaign
// clock's advance since the previous execution (fuzz events carry only
// the cumulative clock); the clock restarts at a "fuzz" phase start and
// after each fuzz_done, so a campaign that follows another is charged
// from zero, not against the earlier campaign's clock. Wall time
// attaches only where the event stream carries it (phase_end events
// traced with IncludeWall); the default deterministic trace has none,
// and the span layer never invents it. Cache activity is likewise
// invisible in a deterministic trace (the cache-parity contract
// requires byte-identical traces with and without a cache), so cache
// hits attach at the run level from an optional metadata sidecar
// (RunMeta) written by the serving layer.
package span

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/hetero/heterogen/internal/evalcache"
	"github.com/hetero/heterogen/internal/obs"
)

// Kind classifies one span.
type Kind string

const (
	KindRun       Kind = "run"
	KindPhase     Kind = "phase"
	KindStage     Kind = "stage"
	KindCandidate Kind = "candidate"
	KindExec      Kind = "exec"
	KindCheck     Kind = "check"
	KindCost      Kind = "cost"
)

// Span is one node of the derived tree.
type Span struct {
	Kind Kind   `json:"kind"`
	Name string `json:"name"`
	// Class is the targeted error class (candidate spans).
	Class string `json:"class,omitempty"`
	// Start / End bound the span on the emitting subsystem's virtual
	// clock (seconds). Phases run on the pipeline clock; candidates and
	// execs on their search/campaign clocks.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Self is the virtual cost attributed directly to this span; Total
	// adds every descendant's Self.
	Self  float64 `json:"self"`
	Total float64 `json:"total"`
	// WallNS is the real duration when the trace carried it (0 in
	// deterministic traces).
	WallNS int64 `json:"wall_ns,omitempty"`
	// Accepted / Reason describe a candidate span's verdict.
	Accepted bool   `json:"accepted,omitempty"`
	Reason   string `json:"reason,omitempty"`
	// Events counts the events folded into this span (self only).
	Events   int     `json:"events"`
	Children []*Span `json:"children,omitempty"`
	// Event is the source event of a leaf (exec, candidate or check
	// span) and the phase_end of a closed phase span; nil elsewhere.
	Event *obs.Event `json:"-"`
}

// Initial reports whether s is a repair search's initial evaluation (a
// repair_init leaf) rather than a tried candidate.
func (s *Span) Initial() bool {
	return s.Event != nil && s.Event.Type == obs.EvRepairInit
}

// Run is the derived tree for one subject.
type Run struct {
	Subject string `json:"subject"`
	Root    *Span  `json:"root"`
	// Warnings collects warning-event payloads in emission order.
	Warnings []string `json:"warnings,omitempty"`
	// CacheHits / CacheMisses attribute cache activity to the run when
	// a metadata sidecar supplied it (zero otherwise — deterministic
	// traces cannot carry cache activity by contract).
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`

	// Leaves are the run's exec, candidate and check spans in event
	// order; stages group candidates by step and so lose that order.
	Leaves []*Span `json:"-"`
	// FuzzDone / RepairDone are the run's campaign and search summary
	// events in order; the last of each is the run's final summary.
	FuzzDone   []*obs.Event `json:"-"`
	RepairDone []*obs.Event `json:"-"`
	// Stamps counts the run's events per target-set stamp
	// (obs.Event.Target); unstamped events count under "", so the
	// counts sum to the run's events.
	Stamps map[string]int `json:"-"`
}

// Phases returns the run's closed phase spans (those that saw their
// phase_end) in phase_end order.
func (r *Run) Phases() []*Span {
	var out []*Span
	for _, c := range r.Root.Children {
		if c.Kind == KindPhase && c.Event != nil {
			out = append(out, c)
		}
	}
	return out
}

// RunMeta is the nondeterministic operational sidecar a serving layer
// can persist next to a deterministic trace: correlation identity,
// wall-clock measurements, and cache attribution. Everything in it is
// additive — attaching a meta never changes the span tree derived from
// the trace itself.
type RunMeta struct {
	// ID / CorrelationID identify the job that produced the trace.
	ID            string `json:"id,omitempty"`
	CorrelationID string `json:"correlation_id,omitempty"`
	Kind          string `json:"kind,omitempty"`
	Client        string `json:"client,omitempty"`
	State         string `json:"state,omitempty"`
	Partial       bool   `json:"partial,omitempty"`
	// Resumed marks a job that ran (or re-ran) after a journal replay —
	// a recovery marker that rides in the sidecar, never in the trace,
	// so resumed traces stay byte-identical to uninterrupted ones.
	Resumed bool `json:"resumed,omitempty"`
	// QueueWaitMS / WallMS are the job's real queue wait and run time.
	QueueWaitMS float64 `json:"queue_wait_ms,omitempty"`
	WallMS      float64 `json:"wall_ms,omitempty"`
	// Events is the number of trace events the job emitted.
	Events int `json:"events,omitempty"`
	// Cache is the job-attributed evaluation-cache activity
	// (approximate when jobs share one cache concurrently).
	Cache *evalcache.Stats `json:"cache,omitempty"`
}

// ReadMeta loads the sidecar `<base>.meta.json` next to a trace file;
// nil when there is none or it does not decode.
func ReadMeta(tracePath string) *RunMeta {
	b, err := os.ReadFile(strings.TrimSuffix(tracePath, filepath.Ext(tracePath)) + ".meta.json")
	if err != nil {
		return nil
	}
	var m RunMeta
	if json.Unmarshal(b, &m) != nil {
		return nil
	}
	return &m
}

// Build derives one Run per subject from the event stream, preserving
// first-seen subject order. It is total: malformed streams (unpaired
// phase events, missing summaries) still yield a tree covering every
// event seen.
func Build(events []obs.Event) []*Run {
	var runs []*Run
	byID := map[string]*runBuilder{}
	for i := range events {
		e := &events[i]
		b := byID[e.Subject]
		if b == nil {
			b = newRunBuilder(e.Subject)
			byID[e.Subject] = b
			runs = append(runs, b.run)
		}
		b.add(e)
	}
	for _, r := range runs {
		settle(r.Root)
	}
	return runs
}

// Attach folds a metadata sidecar into a derived run: wall time onto
// the root span, cache attribution onto the run. The span topology is
// untouched.
func Attach(r *Run, meta *RunMeta) {
	if r == nil || meta == nil {
		return
	}
	if meta.WallMS > 0 && r.Root.WallNS == 0 {
		r.Root.WallNS = int64(meta.WallMS * 1e6)
	}
	if meta.Cache != nil {
		r.CacheHits += meta.Cache.Hits()
		r.CacheMisses += meta.Cache.Misses()
	}
}

// runBuilder accumulates one subject's events into a tree.
type runBuilder struct {
	run *Run
	// open is the current phase span (nil between phases).
	open *Span
	// stage is the current stage span under the open phase, keyed by
	// its name so consecutive same-step candidates share one stage.
	stage *Span
	// prevFuzzVirtual tracks the fuzz campaign clock for per-exec
	// deltas (fuzz events carry cumulative virtual only).
	prevFuzzVirtual float64
}

func newRunBuilder(subject string) *runBuilder {
	name := "run"
	if subject != "" {
		name = subject
	}
	return &runBuilder{run: &Run{
		Subject: subject,
		Root:    &Span{Kind: KindRun, Name: name},
		Stamps:  map[string]int{},
	}}
}

// parent returns the innermost open container for a leaf span.
func (b *runBuilder) parent() *Span {
	if b.stage != nil {
		return b.stage
	}
	if b.open != nil {
		return b.open
	}
	return b.run.Root
}

// container returns the span new stages hang from.
func (b *runBuilder) container() *Span {
	if b.open != nil {
		return b.open
	}
	return b.run.Root
}

// stageFor returns (creating on demand) the stage span named name under
// the open phase.
func (b *runBuilder) stageFor(name string) *Span {
	if b.stage != nil && b.stage.Name == name {
		return b.stage
	}
	c := b.container()
	for _, ch := range c.Children {
		if ch.Kind == KindStage && ch.Name == name {
			b.stage = ch
			return ch
		}
	}
	s := &Span{Kind: KindStage, Name: name}
	c.Children = append(c.Children, s)
	b.stage = s
	return s
}

// takeRootStages removes from the root, and returns, the stages hung
// there since its last phase span.
func (b *runBuilder) takeRootStages() []*Span {
	kids := b.run.Root.Children
	i := len(kids)
	for i > 0 && kids[i-1].Kind != KindPhase {
		i--
	}
	var stages, rest []*Span
	for _, c := range kids[i:] {
		if c.Kind == KindStage {
			stages = append(stages, c)
		} else {
			rest = append(rest, c)
		}
	}
	b.run.Root.Children = append(kids[:i:i], rest...)
	return stages
}

// leaf records a leaf span under its parent and in event order.
func (b *runBuilder) leaf(parent, s *Span) {
	parent.Children = append(parent.Children, s)
	b.run.Leaves = append(b.run.Leaves, s)
}

func (b *runBuilder) add(e *obs.Event) {
	b.run.Stamps[e.Target]++
	switch e.Type {
	case obs.EvPhaseStart:
		if e.Phase == nil {
			return
		}
		p := &Span{Kind: KindPhase, Name: e.Phase.Name, Start: e.Virtual, End: e.Virtual, Events: 1}
		b.run.Root.Children = append(b.run.Root.Children, p)
		b.open = p
		b.stage = nil
		if e.Phase.Name == "fuzz" {
			b.prevFuzzVirtual = 0
		}
	case obs.EvPhaseEnd:
		if e.Phase == nil {
			return
		}
		p := b.open
		if p == nil || p.Name != e.Phase.Name {
			// Unpaired end: synthesize the phase so the event is kept.
			// Its reported delta covers the stages hung at the root
			// since the last phase, so they move under it rather than
			// count twice.
			p = &Span{Kind: KindPhase, Name: e.Phase.Name, Start: e.Virtual - e.Phase.VirtualDelta}
			p.Children = b.takeRootStages()
			b.run.Root.Children = append(b.run.Root.Children, p)
		}
		p.End = e.Virtual
		p.Events++
		p.WallNS = e.Phase.WallNS
		p.Event = e
		// The phase's Self is whatever its children do not explain;
		// settle it once the children are final.
		p.Total = e.Phase.VirtualDelta
		b.open = nil
		b.stage = nil
	case obs.EvFuzzExec:
		if e.Fuzz == nil {
			return
		}
		st := b.stageFor("execs")
		delta := e.Virtual - b.prevFuzzVirtual
		if delta < 0 {
			delta = 0
		}
		b.prevFuzzVirtual = e.Virtual
		leaf := &Span{
			Kind: KindExec, Name: fmt.Sprintf("exec %d", e.Fuzz.Exec),
			Start: e.Virtual - delta, End: e.Virtual,
			Self: delta, Events: 1, Reason: e.Fuzz.Failure, Event: e,
		}
		b.leaf(st, leaf)
		if st.Start == 0 && len(st.Children) == 1 {
			st.Start = leaf.Start
		}
		st.End = e.Virtual
	case obs.EvFuzzDone:
		st := b.stageFor("execs")
		st.End = e.Virtual
		st.Events++
		b.stage = nil
		b.prevFuzzVirtual = 0
		if e.Fuzz != nil {
			b.run.FuzzDone = append(b.run.FuzzDone, e)
		}
	case obs.EvRepairInit, obs.EvCandidate:
		if e.Repair == nil {
			return
		}
		st := b.stageFor(e.Repair.Step)
		leaf := &Span{
			Kind:  KindCandidate,
			Name:  strings.Join(e.Repair.Edits, " ; "),
			Class: e.Repair.Class,
			Start: e.Virtual - e.Repair.VirtualDelta, End: e.Virtual,
			Accepted: e.Repair.Accepted, Reason: e.Repair.Reason,
			Events: 1, Event: e,
		}
		if e.Type == obs.EvRepairInit {
			leaf.Name = "initial version"
		}
		explained := 0.0
		for _, c := range []struct {
			name string
			cost float64
		}{{"style", e.Repair.CostStyle}, {"compile", e.Repair.CostCompile}, {"sim", e.Repair.CostSim}} {
			if c.cost == 0 {
				continue
			}
			leaf.Children = append(leaf.Children, &Span{
				Kind: KindCost, Name: c.name, Self: c.cost, Total: c.cost,
			})
			explained += c.cost
		}
		// Any residue the cost split does not explain stays on the
		// candidate itself, so totals always reconcile with the clock.
		leaf.Self = e.Repair.VirtualDelta - explained
		if leaf.Self < 0 {
			leaf.Self = 0
		}
		b.leaf(st, leaf)
		if len(st.Children) == 1 {
			st.Start = leaf.Start
		}
		st.End = e.Virtual
	case obs.EvRepairDone:
		b.stage = nil
		if e.Done != nil {
			b.run.RepairDone = append(b.run.RepairDone, e)
		}
	case obs.EvCheck:
		name := "check"
		if e.Check != nil {
			name = "check " + e.Check.Top
		}
		b.leaf(b.parent(), &Span{
			Kind: KindCheck, Name: name, Start: e.Virtual, End: e.Virtual, Events: 1, Event: e,
		})
	case obs.EvWarning:
		b.run.Warnings = append(b.run.Warnings, e.Warn)
	}
}

// settle computes Total = Self + sum(children Total), except where an
// authoritative phase delta was recorded: there the phase keeps its
// reported Total and absorbs the unexplained residue as Self.
func settle(s *Span) float64 {
	var kids float64
	for _, c := range s.Children {
		kids += settle(c)
	}
	if s.Kind == KindPhase && s.Total > 0 {
		if self := s.Total - kids; self > 0 {
			s.Self = self
		}
		return s.Total
	}
	s.Total = s.Self + kids
	return s.Total
}

// CriticalPath walks the tree from the root, at each level descending
// into the child with the largest Total (ties break toward the earlier
// child, keeping the path deterministic). The returned slice starts at
// the root and ends at a leaf; for a single-clock run this is the
// dominant cost chain — the place an optimizer should look first.
func (r *Run) CriticalPath() []*Span {
	var path []*Span
	cur := r.Root
	for cur != nil {
		path = append(path, cur)
		var next *Span
		for _, c := range cur.Children {
			if next == nil || c.Total > next.Total {
				next = c
			}
		}
		cur = next
	}
	return path
}

// Text renders the tree with per-span cost attribution, depth-first.
// Spans with many children (fuzz execs, candidate sweeps) elide the
// tail: the maxChildren highest-cost children are shown, the rest are
// summarized in one line. maxChildren <= 0 shows everything.
func (r *Run) Text(maxChildren int) string {
	var sb strings.Builder
	head := "run"
	if r.Subject != "" {
		head = r.Subject
	}
	fmt.Fprintf(&sb, "== %s ==\n", head)
	if r.CacheHits+r.CacheMisses > 0 {
		fmt.Fprintf(&sb, "cache: %d hits / %d misses\n", r.CacheHits, r.CacheMisses)
	}
	writeSpan(&sb, r.Root, 0, maxChildren)
	crit := r.CriticalPath()
	sb.WriteString("critical path:")
	for i, s := range crit {
		if i > 0 {
			sb.WriteString(" ->")
		}
		fmt.Fprintf(&sb, " %s", spanLabel(s))
	}
	sb.WriteString("\n")
	return sb.String()
}

func spanLabel(s *Span) string {
	if s.Name == "" {
		return string(s.Kind)
	}
	return fmt.Sprintf("%s[%s]", s.Kind, s.Name)
}

func writeSpan(sb *strings.Builder, s *Span, depth, maxChildren int) {
	fmt.Fprintf(sb, "%s%-10s %-32s total=%10.3fs self=%8.3fs",
		strings.Repeat("  ", depth), s.Kind, clip(s.Name, 32), s.Total, s.Self)
	if s.WallNS > 0 {
		fmt.Fprintf(sb, " wall=%.1fms", float64(s.WallNS)/1e6)
	}
	if s.Accepted {
		sb.WriteString(" accepted")
	} else if s.Reason != "" && s.Reason != "accepted" {
		fmt.Fprintf(sb, " %s", s.Reason)
	}
	sb.WriteString("\n")
	kids := s.Children
	if maxChildren <= 0 || len(kids) <= maxChildren {
		for _, c := range kids {
			writeSpan(sb, c, depth+1, maxChildren)
		}
		return
	}
	// Show the costliest children (ties to the earlier one) in their
	// original order, and summarize the rest.
	rank := make([]int, len(kids))
	for i := range rank {
		rank[i] = i
	}
	sort.SliceStable(rank, func(a, b int) bool { return kids[rank[a]].Total > kids[rank[b]].Total })
	keep := make([]bool, len(kids))
	for _, i := range rank[:maxChildren] {
		keep[i] = true
	}
	var elidedCost float64
	for i, c := range kids {
		if keep[i] {
			writeSpan(sb, c, depth+1, maxChildren)
		} else {
			elidedCost += c.Total
		}
	}
	fmt.Fprintf(sb, "%s… %d more spans (total=%.3fs)\n",
		strings.Repeat("  ", depth+1), len(kids)-maxChildren, elidedCost)
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
