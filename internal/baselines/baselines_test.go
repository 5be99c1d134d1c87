package baselines

import (
	"strings"
	"testing"

	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/repair"
	"github.com/hetero/heterogen/internal/subjects"
)

// heteroRefactor runs the HR baseline on a subject, failing the test on
// a stage error.
func heteroRefactor(t *testing.T, s subjects.Subject, tests []fuzz.TestCase) repair.Result {
	t.Helper()
	res, err := HeteroRefactor(s.Source, s.Kernel, tests)
	if err != nil {
		t.Fatalf("%s: %v", s.ID, err)
	}
	return res
}

// TestHeteroRefactorStageErrors checks that the baseline reports the
// repair stage's errors instead of searching: a source that does not
// parse and a kernel the source does not define.
func TestHeteroRefactorStageErrors(t *testing.T) {
	if _, err := HeteroRefactor("int f(", "f", nil); err == nil || !strings.Contains(err.Error(), "parse") {
		t.Errorf("unparsable source: err = %v, want a parse error", err)
	}
	if _, err := HeteroRefactor("int f(int x) { return x; }", "nope", nil); err == nil || !strings.Contains(err.Error(), `kernel "nope" not found`) {
		t.Errorf("unknown kernel: err = %v, want kernel not found", err)
	}
}

func TestHeteroRefactorSucceedsOnDynamicDataSubjects(t *testing.T) {
	for _, id := range []string{"P3", "P8"} {
		s, err := subjects.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		res := heteroRefactor(t, s, s.ExistingTestsOrNil())
		if !res.Compatible || !res.BehaviorOK {
			t.Errorf("%s: HR should succeed (dynamic-data subject): remaining %v, log %v",
				id, res.Remaining, res.Stats.EditLog)
		}
	}
}

func TestHeteroRefactorFailsOutsideItsScope(t *testing.T) {
	// P1's error is an unsupported type; HR's class filter cannot touch it.
	s, err := subjects.ByID("P1")
	if err != nil {
		t.Fatal(err)
	}
	res := heteroRefactor(t, s, nil)
	if res.Compatible {
		t.Errorf("HR must not fix a type error; log %v", res.Stats.EditLog)
	}
	// And the remaining diagnostic is the type error.
	foundType := false
	for _, d := range res.Remaining {
		if d.Class == hls.ClassUnsupportedType {
			foundType = true
		}
	}
	if !foundType {
		t.Errorf("type diagnostic should remain: %v", res.Remaining)
	}
}

func TestHeteroRefactorAppliesNoForeignEdits(t *testing.T) {
	s, err := subjects.ByID("P5") // dynamic data + type error
	if err != nil {
		t.Fatal(err)
	}
	res := heteroRefactor(t, s, s.ExistingTestsOrNil())
	if res.Compatible {
		t.Error("P5 carries a type error HR cannot fix")
	}
	for _, e := range res.Stats.EditLog {
		if strings.Contains(e, "type_trans") || strings.Contains(e, "explore") ||
			strings.Contains(e, "constructor") {
			t.Errorf("HR applied an out-of-scope edit: %s", e)
		}
	}
}

func TestAblationOptionShapes(t *testing.T) {
	wc := WithoutCheckerOptions()
	if wc.UseStyleChecker {
		t.Error("WithoutChecker must disable the style checker")
	}
	if !wc.UseDependence {
		t.Error("WithoutChecker keeps dependence guidance")
	}
	wd := WithoutDependenceOptions()
	if wd.UseDependence {
		t.Error("WithoutDependence must disable dependence guidance")
	}
	if !wd.UseStyleChecker {
		t.Error("WithoutDependence keeps the style checker (per the paper)")
	}
	if wd.Budget != 12*3600 {
		t.Errorf("WithoutDependence budget %v, want 12h", wd.Budget)
	}
	hr := HeteroRefactorOptions()
	if hr.PerfExploration {
		t.Error("HR performs no performance edits")
	}
	if !hr.ClassFilter[hls.ClassDynamicData] || len(hr.ClassFilter) != 1 {
		t.Errorf("HR scope must be dynamic data only: %v", hr.ClassFilter)
	}
}
