// Multi-target fitness for the repair search.
//
// The search looks for one program that fits a *set* of (backend,
// device) targets at once — Options.Targets, or the default target
// alone: the synthesizability check and the differential test run once
// per candidate (their verdicts are target-independent up to diagnostic
// dialect), while the capacity gate and the latency model evaluate per
// target, making candidate fitness a per-device vector. The scalar search objective
// aggregates that vector conservatively — error counts sum over
// targets, latency is the worst (slowest) target — and, orthogonally to
// the accept-first-improvement rule, every fully-evaluated candidate
// that is compatible on all targets feeds a latency/resource Pareto
// archive, so the result is a set of non-dominated trade-off programs
// with per-device verdicts rather than a single pass/fail.
//
// Determinism: per-target computation happens inside computeScore
// (pure, worker-safe); the Pareto archive is updated only on the search
// goroutine at commit time, in candidate enumeration order, so results
// and traces stay bit-identical for any Workers value. An empty target
// set is the default target; only a caller-named set gets the verdict
// table and the Pareto archive in its Result.
package repair

import (
	"fmt"
	"strings"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/hls/sim"
)

// targetFit is one target's slice of a candidate's fitness vector.
type targetFit struct {
	errors    int
	fits      bool
	over      []string
	latencyMS float64
}

// TargetVerdict is one target's verdict on a program version — the rows
// of core.Result's per-device verdict table.
type TargetVerdict struct {
	// Target is the canonical "backend:device" name.
	Target string
	// Compatible reports zero diagnostics for this target (synthesizable
	// and within the device's capacity).
	Compatible bool
	// BehaviorOK is the shared differential-test verdict (behaviour is
	// target-independent; it rides along per row for table rendering).
	BehaviorOK bool
	// Fits / Over is the capacity-gate outcome against this device.
	Fits bool
	Over []string
	// Errors counts this target's diagnostics.
	Errors int
	// LatencyMS is the simulated kernel latency under this profile's
	// clock (0 when the design never reached simulation).
	LatencyMS float64
	// Utilization renders the resource estimate against this device.
	Utilization string
}

// ParetoPoint is one non-dominated program of a multi-target search:
// no other archived program is at least as good on every per-target
// latency and every resource axis and strictly better on one.
type ParetoPoint struct {
	// Source is the program's printed HLS-C text.
	Source string
	// PerTarget holds the per-device verdicts (all compatible).
	PerTarget []TargetVerdict
	// Resources is the design's fabric estimate.
	Resources sim.Resources
}

// scoreTargets is the per-target part of a fitness evaluation: the
// capacity gate against every device and, when all fit, the per-target
// latency vector derived from the shared 250 MHz reference simulation.
// It mutates sc in place and reports whether the differential test
// should run. Pure: safe on worker goroutines.
func (s *searcher) scoreTargets(u *cast.Unit, fp string, sc *score) (runDifftest bool, failure error) {
	sc.perTarget = make([]targetFit, len(s.targets))
	if sc.errors > 0 {
		// Compile errors apply to every target; surface the primary
		// backend's dialect in the aggregate diagnostics.
		for i := range sc.perTarget {
			sc.perTarget[i].errors = sc.errors
		}
		sc.diags = translateDiags(s.targets[0].Backend, sc.diags)
		return false, nil
	}
	est, err := s.estimate(u, fp)
	if err != nil {
		return false, err
	}
	sc.res = est
	sc.resOK = true
	var diags []hls.Diagnostic
	for i, rt := range s.targets {
		ok, over := sim.CheckCapacity(est, rt.Profile.Cap)
		sc.perTarget[i].fits = ok
		sc.perTarget[i].over = over
		if !ok {
			sc.perTarget[i].errors = 1
			diags = append(diags, rt.Backend.Translate(hls.Diagnostic{
				Code: "IMPL 200-1",
				Message: fmt.Sprintf(
					"implementation failed: design over-utilizes %s on %s (%s)",
					strings.Join(over, ", "), rt.Profile.Part, rt.Name()),
				Class: hls.ClassLoopParallel,
			}))
		}
	}
	if len(diags) > 0 {
		sc.errors = len(diags)
		sc.diags = diags
		return false, nil
	}
	return true, nil
}

// finishTargets derives the per-target latency vector once the shared
// differential test produced the 250 MHz reference latency, and folds
// the worst target into the scalar objective.
func (s *searcher) finishTargets(sc *score) {
	base := sc.report.FPGAMeanMS()
	worst := 0.0
	for i, rt := range s.targets {
		l := sim.ScaleLatencyMS(base, rt.Profile)
		sc.perTarget[i].latencyMS = l
		if l > worst {
			worst = l
		}
	}
	sc.latencyMS = worst
}

// verdicts renders a score's fitness vector as the exported per-device
// verdict table.
func (s *searcher) verdicts(sc score) []TargetVerdict {
	out := make([]TargetVerdict, len(s.targets))
	for i, rt := range s.targets {
		v := TargetVerdict{Target: rt.Name(), BehaviorOK: sc.behaviorOK}
		if i < len(sc.perTarget) {
			f := sc.perTarget[i]
			v.Errors = f.errors
			v.Fits = f.fits
			v.Over = append([]string(nil), f.over...)
			v.LatencyMS = f.latencyMS
			v.Compatible = f.errors == 0
		}
		if sc.resOK {
			v.Utilization = sim.Utilization(sc.res, rt.Profile.Cap)
		}
		out[i] = v
	}
	return out
}

// translateDiags maps diagnostics into a backend's dialect.
func translateDiags(b hls.Backend, ds []hls.Diagnostic) []hls.Diagnostic {
	out := make([]hls.Diagnostic, len(ds))
	for i, d := range ds {
		out[i] = b.Translate(d)
	}
	return out
}

// paretoCap bounds the archive; beyond it new non-dominated points are
// dropped (deterministically — commit order decides who got in first).
const paretoCap = 64

// considerPareto offers one fully-evaluated candidate to the Pareto
// archive. Called only on the search goroutine, in enumeration order.
// Rejected candidates are offered too: a program the scalar objective
// passed over (slower overall) can still be the archive's cheapest
// design on a small part.
func (s *searcher) considerPareto(u *cast.Unit, sc score) {
	if !s.named || sc.errors != 0 || !sc.behaviorOK || !sc.resOK {
		return
	}
	src := cast.Print(u)
	if s.paretoSeen[src] {
		return
	}
	s.paretoSeen[src] = true
	vec := paretoVector(sc)
	// The archive is mutually non-dominated, so (by transitivity) a
	// newcomer dominated by any archived point dominates none of them:
	// check for a dominator first, then evict what the newcomer beats.
	for _, p := range s.pareto {
		if dominates(p.vec, vec) {
			return
		}
	}
	kept := s.pareto[:0]
	for _, p := range s.pareto {
		if !dominates(vec, p.vec) {
			kept = append(kept, p)
		}
	}
	s.pareto = kept
	if len(s.pareto) >= paretoCap {
		return
	}
	s.pareto = append(s.pareto, paretoEntry{
		vec: vec,
		pt:  ParetoPoint{Source: src, PerTarget: s.verdicts(sc), Resources: sc.res},
	})
}

// paretoEntry pairs an archived point with its objective vector.
type paretoEntry struct {
	vec []float64
	pt  ParetoPoint
}

// paretoVector is the dominance objective: every per-target latency,
// then the four resource axes. Lower is better on every component.
func paretoVector(sc score) []float64 {
	vec := make([]float64, 0, len(sc.perTarget)+4)
	for _, f := range sc.perTarget {
		vec = append(vec, f.latencyMS)
	}
	return append(vec,
		float64(sc.res.LUT), float64(sc.res.FF),
		float64(sc.res.DSP), float64(sc.res.BRAM))
}

// dominates reports a <= b on every component with a < b on at least one.
func dominates(a, b []float64) bool {
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// paretoPoints extracts the archived points in commit order.
func (s *searcher) paretoPoints() []ParetoPoint {
	if len(s.pareto) == 0 {
		return nil
	}
	out := make([]ParetoPoint, len(s.pareto))
	for i, p := range s.pareto {
		out[i] = p.pt
	}
	return out
}

// targetNames lists the resolved set canonically for the done event.
func (s *searcher) targetNames() []string {
	out := make([]string, len(s.targets))
	for i, rt := range s.targets {
		out[i] = rt.Name()
	}
	return out
}
