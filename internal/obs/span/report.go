package span

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"github.com/hetero/heterogen/internal/obs"
)

// Report is the single-run view cmd/hgstat renders for one JSONL trace
// file: per-subject repair trajectories (Figure 2), coverage curves (§6
// / Table 4), fix-pattern frequencies, and the virtual-budget breakdown.
// It is read off the runs Build derives, one SubjectReport per run. A
// trace without subject tags (a plain `heterogen -trace` run) yields
// one SubjectReport with an empty Subject.
type Report struct {
	Subjects []*SubjectReport
}

// SubjectReport is the reconstruction for one run.
type SubjectReport struct {
	Subject string

	// Trajectory is Figure 2: errors remaining / perf estimate vs.
	// virtual time, one point per accepted candidate plus the initial
	// evaluation.
	Trajectory []TrajPoint
	// Coverage is the coverage-over-iterations curve, one point per
	// committed fuzz execution.
	Coverage []CovPoint
	// Patterns is the fix-pattern frequency table over tried candidates.
	Patterns []PatternCount
	// Phases is the virtual-budget breakdown from phase_end events.
	Phases []PhaseCost
	// Budget is the repair-search cost split summed over the candidates'
	// cost spans (style / compile / simulate).
	Budget BudgetSplit

	// FuzzDone / RepairDone are the last summary events, when present.
	FuzzDone   *obs.FuzzEvent
	RepairDone *obs.DoneEvent
	Warnings   []string

	// Recomputed totals, for cross-checking against RepairDone.
	CandidateEvents int
	AcceptedEvents  int
	AcceptedEdits   []string
	LastVirtual     float64 // cumulative virtual clock on the last repair event
	SumDeltas       float64 // virtual deltas summed over init + candidates
}

// TrajPoint is one Figure 2 sample.
type TrajPoint struct {
	VirtualMin float64
	Errors     int
	PassRatio  float64
	LatencyMS  float64
	Label      string
}

// CovPoint is one coverage-curve sample.
type CovPoint struct {
	Exec    int
	Covered int
	Total   int
	Corpus  int
}

// PatternCount is one fix-pattern row: how often a template was part of
// a tried chain, and how often that chain was accepted.
type PatternCount struct {
	Template string
	Tried    int
	Accepted int
}

// PhaseCost is one virtual-budget row.
type PhaseCost struct {
	Name           string
	VirtualSeconds float64
}

// BudgetSplit decomposes the repair search's virtual spend.
type BudgetSplit struct {
	StyleSeconds   float64
	CompileSeconds float64
	SimSeconds     float64
}

// NewReport reads the single-run report off runs, in their order.
func NewReport(runs []*Run) *Report {
	rep := &Report{}
	for _, r := range runs {
		rep.Subjects = append(rep.Subjects, newSubjectReport(r))
	}
	return rep
}

func newSubjectReport(r *Run) *SubjectReport {
	s := &SubjectReport{Subject: r.Subject, Warnings: r.Warnings}
	for _, l := range r.Leaves {
		switch l.Kind {
		case KindExec:
			f := l.Event.Fuzz
			s.Coverage = append(s.Coverage, CovPoint{
				Exec: f.Exec, Covered: f.Covered, Total: f.TotalOutcomes, Corpus: f.Corpus,
			})
		case KindCandidate:
			e := l.Event
			s.LastVirtual = e.Virtual
			s.SumDeltas += e.Repair.VirtualDelta
			for _, c := range l.Children {
				switch c.Name {
				case "style":
					s.Budget.StyleSeconds += c.Self
				case "compile":
					s.Budget.CompileSeconds += c.Self
				case "sim":
					s.Budget.SimSeconds += c.Self
				}
			}
			if !l.Initial() {
				s.CandidateEvents++
				s.countPatterns(e.Repair)
				if e.Repair.Accepted {
					s.AcceptedEvents++
					s.AcceptedEdits = append(s.AcceptedEdits, e.Repair.Edits...)
				}
			}
			if l.Initial() || e.Repair.Accepted {
				s.Trajectory = append(s.Trajectory, TrajPoint{
					VirtualMin: e.Virtual / 60, Errors: e.Repair.Errors,
					PassRatio: e.Repair.PassRatio, LatencyMS: e.Repair.LatencyMS,
					Label: l.Name,
				})
			}
		}
	}
	for _, p := range r.Phases() {
		s.Phases = append(s.Phases, PhaseCost{Name: p.Name, VirtualSeconds: p.Event.Phase.VirtualDelta})
	}
	if n := len(r.FuzzDone); n > 0 {
		s.FuzzDone = r.FuzzDone[n-1].Fuzz
	}
	if n := len(r.RepairDone); n > 0 {
		s.RepairDone = r.RepairDone[n-1].Done
	}
	sort.Slice(s.Patterns, func(i, j int) bool {
		if s.Patterns[i].Tried != s.Patterns[j].Tried {
			return s.Patterns[i].Tried > s.Patterns[j].Tried
		}
		return s.Patterns[i].Template < s.Patterns[j].Template
	})
	return s
}

// templateOf reduces an edit rendering ("resize(buf, 2048)") to its
// fix-template name ("resize"), the key fix patterns are counted under.
func templateOf(edit string) string {
	if i := strings.IndexByte(edit, '('); i > 0 {
		return edit[:i]
	}
	return edit
}

// countPatterns tallies each edit's template name into the pattern
// table.
func (s *SubjectReport) countPatterns(r *obs.RepairEvent) {
	for _, edit := range r.Edits {
		name := templateOf(edit)
		found := false
		for i := range s.Patterns {
			if s.Patterns[i].Template == name {
				s.Patterns[i].Tried++
				if r.Accepted {
					s.Patterns[i].Accepted++
				}
				found = true
				break
			}
		}
		if !found {
			p := PatternCount{Template: name, Tried: 1}
			if r.Accepted {
				p.Accepted = 1
			}
			s.Patterns = append(s.Patterns, p)
		}
	}
}

// Check verifies the trace's internal consistency: the event stream must
// reproduce exactly the totals the search reported in its repair_done
// snapshot, and the fuzz curve must match the campaign summary. It
// returns one message per violation (empty means the trace is sound).
func (r *Report) Check() []string {
	var problems []string
	for _, s := range r.Subjects {
		tag := ""
		if s.Subject != "" {
			tag = s.Subject + ": "
		}
		if s.RepairDone != nil {
			d := s.RepairDone
			if s.CandidateEvents != d.Attempts {
				problems = append(problems, fmt.Sprintf(
					"%scandidate events (%d) != reported attempts (%d)", tag, s.CandidateEvents, d.Attempts))
			}
			if s.AcceptedEvents != d.Accepted {
				problems = append(problems, fmt.Sprintf(
					"%saccepted events (%d) != reported accepted (%d)", tag, s.AcceptedEvents, d.Accepted))
			}
			if !slices.Equal(s.AcceptedEdits, d.EditLog) {
				problems = append(problems, fmt.Sprintf(
					"%saccepted-edit chain diverges from reported edit log:\n  events: %v\n  stats:  %v",
					tag, s.AcceptedEdits, d.EditLog))
			}
			if s.LastVirtual != d.VirtualSeconds {
				problems = append(problems, fmt.Sprintf(
					"%slast event virtual clock (%.6f) != reported virtual seconds (%.6f)",
					tag, s.LastVirtual, d.VirtualSeconds))
			}
			// The deltas replay the same additions the search performed,
			// but summed in one shot — allow float round-off only.
			if math.Abs(s.SumDeltas-d.VirtualSeconds) > 1e-6*(1+d.VirtualSeconds) {
				problems = append(problems, fmt.Sprintf(
					"%ssummed virtual deltas (%.6f) do not reproduce virtual seconds (%.6f)",
					tag, s.SumDeltas, d.VirtualSeconds))
			}
		}
		if s.FuzzDone != nil && len(s.Coverage) > 0 {
			if got := s.Coverage[len(s.Coverage)-1].Exec; got != s.FuzzDone.Exec {
				problems = append(problems, fmt.Sprintf(
					"%slast fuzz_exec index (%d) != campaign executions (%d)", tag, got, s.FuzzDone.Exec))
			}
			if got := s.Coverage[len(s.Coverage)-1].Covered; got != s.FuzzDone.Covered {
				problems = append(problems, fmt.Sprintf(
					"%sfinal covered outcomes (%d) != campaign summary (%d)", tag, got, s.FuzzDone.Covered))
			}
		}
	}
	return problems
}

// Text renders the full report.
func (r *Report) Text() string {
	var sb strings.Builder
	for i, s := range r.Subjects {
		if i > 0 {
			sb.WriteString("\n")
		}
		s.write(&sb)
	}
	return sb.String()
}

func (s *SubjectReport) write(sb *strings.Builder) {
	head := "run"
	if s.Subject != "" {
		head = s.Subject
	}
	fmt.Fprintf(sb, "== %s ==\n", head)

	if d := s.RepairDone; d != nil {
		status := "incomplete"
		if d.Compatible && d.BehaviorOK {
			status = "compatible"
		}
		fmt.Fprintf(sb, "repair: %s — %d attempts (%d accepted, %d rejected, %d style-rejected), %d HLS invocations, %.1f virtual min\n",
			status, d.Attempts, d.Accepted, d.Rejected, d.StyleRejections,
			d.HLSInvocations, d.VirtualSeconds/60)
		if d.SecondsToCompatible > 0 {
			fmt.Fprintf(sb, "time-to-compatible: %.1f virtual min\n", d.SecondsToCompatible/60)
		}
		if len(d.EditLog) > 0 {
			fmt.Fprintf(sb, "accepted edits: %s\n", strings.Join(d.EditLog, " ; "))
		}
	}
	for _, w := range s.Warnings {
		fmt.Fprintf(sb, "warning: %s\n", w)
	}

	if len(s.Trajectory) > 0 {
		sb.WriteString("\nrepair trajectory (Figure 2: errors remaining / latency vs. virtual time):\n")
		fmt.Fprintf(sb, "  %10s  %6s  %5s  %10s  %s\n", "virt (min)", "errors", "pass", "lat (ms)", "event")
		for _, p := range s.Trajectory {
			lat := "-"
			if p.LatencyMS > 0 {
				lat = fmt.Sprintf("%.3f", p.LatencyMS)
			}
			fmt.Fprintf(sb, "  %10.1f  %6d  %5.2f  %10s  %s %s\n",
				p.VirtualMin, p.Errors, p.PassRatio, lat, bar(p.Errors, 20), p.Label)
		}
	}

	if len(s.Coverage) > 0 {
		sb.WriteString("\ncoverage over executions:\n")
		step := 1
		if len(s.Coverage) > 16 {
			step = len(s.Coverage) / 16
		}
		for i := 0; i < len(s.Coverage); i += step {
			writeCovRow(sb, s.Coverage[i])
		}
		if last := s.Coverage[len(s.Coverage)-1]; (len(s.Coverage)-1)%step != 0 {
			writeCovRow(sb, last)
		}
		if f := s.FuzzDone; f != nil {
			fmt.Fprintf(sb, "  campaign: %d execs, %d tests, %.0f%% coverage", f.Exec, f.Tests, 100*f.Coverage)
			if f.Plateaued {
				sb.WriteString(" (plateaued before budget)")
			}
			sb.WriteString("\n")
		}
	}

	if len(s.Patterns) > 0 {
		sb.WriteString("\nfix-pattern frequency:\n")
		fmt.Fprintf(sb, "  %-22s %6s %9s\n", "template", "tried", "accepted")
		for _, p := range s.Patterns {
			fmt.Fprintf(sb, "  %-22s %6d %9d\n", p.Template, p.Tried, p.Accepted)
		}
	}

	hasBudget := s.Budget.StyleSeconds+s.Budget.CompileSeconds+s.Budget.SimSeconds > 0
	if len(s.Phases) > 0 || hasBudget {
		sb.WriteString("\nvirtual budget breakdown:\n")
		for _, p := range s.Phases {
			fmt.Fprintf(sb, "  phase %-18s %10.1f s\n", p.Name, p.VirtualSeconds)
		}
		if hasBudget {
			fmt.Fprintf(sb, "  repair: style checks     %10.1f s\n", s.Budget.StyleSeconds)
			fmt.Fprintf(sb, "  repair: HLS compilation  %10.1f s\n", s.Budget.CompileSeconds)
			fmt.Fprintf(sb, "  repair: simulation       %10.1f s\n", s.Budget.SimSeconds)
		}
	}
}

func writeCovRow(sb *strings.Builder, c CovPoint) {
	pct := 0.0
	if c.Total > 0 {
		pct = 100 * float64(c.Covered) / float64(c.Total)
	}
	fmt.Fprintf(sb, "  exec %6d  %3d/%-3d outcomes (%5.1f%%)  corpus %3d  %s\n",
		c.Exec, c.Covered, c.Total, pct, c.Corpus, bar(int(pct/5), 20))
}

// bar renders n '#' marks capped at width.
func bar(n, width int) string {
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}
