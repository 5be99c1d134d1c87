package eval

import (
	"strings"
	"testing"

	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/subjects"
)

// TestTable3Shape runs the quick pipeline on every subject and verifies
// the headline result: HLS compatibility everywhere, performance
// improvement everywhere except P1.
func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline integration test")
	}
	cfg := QuickConfig()
	for _, s := range subjects.All() {
		s := s
		t.Run(s.ID, func(t *testing.T) {
			run, err := RunSubject(s, cfg)
			if err != nil {
				t.Fatalf("%s: %v", s.ID, err)
			}
			if !run.Compatible || !run.BehaviorOK {
				t.Errorf("%s: not repaired (compat=%v behavior=%v); edits: %v",
					s.ID, run.Compatible, run.BehaviorOK, run.EditLog)
			}
			if run.Improved != s.ExpectImproved {
				t.Errorf("%s: improved=%v, Table 3 expects %v (origin %.3fms vs fpga %.3fms)",
					s.ID, run.Improved, s.ExpectImproved,
					run.RuntimeOriginMS, run.RuntimeHGMS)
			}
			if run.DeltaLOC <= 0 {
				t.Errorf("%s: ΔLOC should be positive, got %d", s.ID, run.DeltaLOC)
			}
			if run.Coverage < 0.6 {
				t.Errorf("%s: coverage %.0f%% too low", s.ID, 100*run.Coverage)
			}
			// Table 4: exactly these subjects ship with tests, so the
			// coverage comparison below cannot pass vacuously.
			shipsTests := map[string]bool{"P3": true, "P5": true, "P6": true, "P9": true, "P10": true}[s.ID]
			if (run.ExistingCoverage >= 0) != shipsTests {
				t.Errorf("%s: existing coverage %.2f, want existing tests: %v", s.ID, run.ExistingCoverage, shipsTests)
			}
			if run.ExistingCoverage >= 0 && run.Coverage <= run.ExistingCoverage {
				t.Errorf("%s: generated coverage %.2f not above existing %.2f",
					s.ID, run.Coverage, run.ExistingCoverage)
			}
			if s.HRSupported != run.HRSucceeded {
				t.Errorf("%s: HR success=%v, Table 5 expects %v", s.ID, run.HRSucceeded, s.HRSupported)
			}
			// Table 5: where HeteroRefactor applies, its version is
			// slower than HeteroGen's.
			if (s.ID == "P3" || s.ID == "P8") && !(run.RuntimeHRMS > run.RuntimeHGMS) {
				t.Errorf("%s: HR runtime %.3fms not above HG's %.3fms", s.ID, run.RuntimeHRMS, run.RuntimeHGMS)
			}
			log := strings.Join(run.EditLog, " ")
			for _, want := range s.ExpectedEdits {
				if !strings.Contains(log, want) {
					t.Errorf("%s: edit log missing template %q: %v", s.ID, want, run.EditLog)
				}
			}
		})
	}
}

func TestFigure3Study(t *testing.T) {
	res := Figure3(QuickConfig())
	if res.Total < 300 {
		t.Fatalf("corpus too small: %d", res.Total)
	}
	if res.Accuracy < 0.9 {
		t.Errorf("classifier accuracy %.2f too low", res.Accuracy)
	}
	// The measured distribution must rank the classes like Figure 3:
	// unsupported types most frequent, dynamic data least.
	if res.Percent[hls.ClassUnsupportedType] < res.Percent[hls.ClassTopFunction] {
		t.Errorf("unsupported types should dominate: %+v", res.Percent)
	}
	for c, p := range res.Percent {
		if c == hls.ClassDynamicData {
			continue
		}
		if res.Percent[hls.ClassDynamicData] > p {
			t.Errorf("dynamic data should be rarest: %s=%.1f vs dyn=%.1f",
				c, p, res.Percent[hls.ClassDynamicData])
		}
	}
	text := FormatFigure3(res)
	if !strings.Contains(text, "Figure 3") {
		t.Error("formatting broken")
	}
}

func TestFormatters(t *testing.T) {
	runs := []SubjectRun{{
		ID: "P1", Name: "signal transmission", OriginalLOC: 10,
		Compatible: true, BehaviorOK: true, Improved: false,
		TestsGenerated: 27, GenMinutes: 35, Coverage: 1.0,
		ExistingCoverage: -1, DeltaLOC: 9, ManualDeltaLOC: 12,
		RuntimeOriginMS: 0.21, RuntimeManualMS: 0.11, RuntimeHRMS: -1,
		RuntimeHGMS: 0.35,
	}}
	t3 := FormatTable3(runs)
	if !strings.Contains(t3, "P1") || !strings.Contains(t3, "✓") || !strings.Contains(t3, "✗") {
		t.Errorf("table 3 formatting:\n%s", t3)
	}
	t4 := FormatTable4(runs)
	if !strings.Contains(t4, "N/A") {
		t.Errorf("table 4 should show N/A for missing tests:\n%s", t4)
	}
	t5 := FormatTable5(runs)
	if !strings.Contains(t5, "0.350") {
		t.Errorf("table 5 formatting:\n%s", t5)
	}
	f9 := FormatFigure9([]AblationRun{{ID: "P1", HGMinutes: 2,
		WithoutDepMinutes: 70, WithoutDepOK: true, HGInvokePct: 40, WithoutCheckerPct: 100}})
	if !strings.Contains(f9, "35x") {
		t.Errorf("figure 9 speedup formatting:\n%s", f9)
	}
}

func TestCapSuite(t *testing.T) {
	mk := func(n int) []fuzz.TestCase {
		out := make([]fuzz.TestCase, n)
		for i := range out {
			out[i] = fuzz.TestCase{Args: []fuzz.Arg{
				{Scalar: true, Ints: []int64{int64(i)}, Width: 32}}}
		}
		return out
	}
	// Fewer tests than the cap: unchanged.
	small := mk(5)
	if got := capSuite(small, 10); len(got) != 5 {
		t.Errorf("small suite resized to %d", len(got))
	}
	// More tests: capped, spread across the suite (first element kept,
	// later elements sampled beyond the midpoint).
	big := capSuite(mk(100), 10)
	if len(big) != 10 {
		t.Fatalf("capped length %d", len(big))
	}
	if big[0].Args[0].Ints[0] != 0 {
		t.Error("first test should be kept")
	}
	if last := big[9].Args[0].Ints[0]; last < 50 {
		t.Errorf("sampling not spread: last picked index %d", last)
	}
	// Zero cap disables capping.
	if got := capSuite(mk(100), 0); len(got) != 100 {
		t.Errorf("zero cap should disable: %d", len(got))
	}
}

// TestFigure9Shape checks Figure 9's ordering on every subject: the
// dependence-guided search repairs no slower than random edit order, and
// invokes the full toolchain on no larger a share of its attempts than
// the search without the style checker.
func TestFigure9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation integration test")
	}
	runs, err := Each(subjects.All(), QuickConfig(), RunAblation)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if r.HGMinutes > r.WithoutDepMinutes {
			t.Errorf("%s: HG %.1f min, slower than WithoutDependence's %.1f", r.ID, r.HGMinutes, r.WithoutDepMinutes)
		}
		if r.HGInvokePct > r.WithoutCheckerPct {
			t.Errorf("%s: HG invokes HLS on %.0f%% of attempts, above WithoutChecker's %.0f%%", r.ID, r.HGInvokePct, r.WithoutCheckerPct)
		}
	}
}

func TestRunAblationQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation integration test")
	}
	s, err := subjects.ByID("P1")
	if err != nil {
		t.Fatal(err)
	}
	abl, err := RunAblation(s, QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !abl.HGCompatible {
		t.Error("HG must repair P1")
	}
	if !abl.WithoutDepOK {
		t.Error("random order must also repair P1 (single edit)")
	}
	if !abl.WithoutCheckerCompat {
		t.Error("WithoutChecker must repair P1")
	}
	if abl.WithoutDepMinutes < abl.HGMinutes {
		t.Errorf("random order should not be faster: %v vs %v",
			abl.WithoutDepMinutes, abl.HGMinutes)
	}
}
