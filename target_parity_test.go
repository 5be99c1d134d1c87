// Multi-target acceptance on the paper's Figure 2 working example: the
// repair search over two device profiles must return a latency/resource
// Pareto set whose every point is compatible on every device, with a
// per-target verdict table whose latencies reflect each profile's
// clock. This is the api_redesign acceptance criterion run as a normal
// test (the env-gated target-smoke exercises the same contract through
// the real binaries).
package heterogen_test

import (
	"testing"

	"github.com/hetero/heterogen"
	"github.com/hetero/heterogen/internal/hls"
)

func TestFigure2MultiTargetPareto(t *testing.T) {
	targets, err := hls.ParseTargets([]string{"vivado_hls:xcvu9p", "vivado_hls:zc706"})
	if err != nil {
		t.Fatal(err)
	}
	opts := overlapOptions(4)
	opts.Targets = targets

	res, err := heterogen.Repair(overlapKernel, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compatible || !res.BehaviorOK {
		t.Fatalf("Figure 2 subject must repair on both profiles: %v", res.Remaining)
	}
	if len(res.PerTarget) != 2 {
		t.Fatalf("verdict table has %d entries, want 2", len(res.PerTarget))
	}
	for i, v := range res.PerTarget {
		if v.Target != targets[i].String() {
			t.Errorf("verdict %d is for %q, want %q", i, v.Target, targets[i])
		}
		if !v.Compatible || !v.BehaviorOK || !v.Fits {
			t.Errorf("verdict %s: compatible=%v behaviorOK=%v fits=%v (over %v)",
				v.Target, v.Compatible, v.BehaviorOK, v.Fits, v.Over)
		}
		if v.LatencyMS <= 0 {
			t.Errorf("verdict %s: no latency", v.Target)
		}
		if v.Utilization == "" {
			t.Errorf("verdict %s: no utilization rendering", v.Target)
		}
	}
	// zc706 runs the same cycle count at 100 MHz against the 250 MHz
	// reference part, so its latency must be strictly worse.
	if fast, slow := res.PerTarget[0].LatencyMS, res.PerTarget[1].LatencyMS; slow <= fast {
		t.Errorf("zc706 latency %.4fms should exceed xcvu9p's %.4fms", slow, fast)
	}
	if len(res.Pareto) == 0 {
		t.Fatal("multi-target search returned no Pareto set")
	}
	seen := map[string]bool{}
	for _, pt := range res.Pareto {
		if pt.Source == "" {
			t.Fatal("Pareto point without source text")
		}
		if seen[pt.Source] {
			t.Error("duplicate program in the Pareto set")
		}
		seen[pt.Source] = true
		if len(pt.PerTarget) != 2 {
			t.Fatalf("Pareto point has %d verdicts, want 2", len(pt.PerTarget))
		}
		for _, v := range pt.PerTarget {
			if !v.Compatible || !v.Fits {
				t.Errorf("Pareto point is not feasible on %s", v.Target)
			}
		}
	}
}
