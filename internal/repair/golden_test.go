package repair

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/difftest"
	"github.com/hetero/heterogen/internal/evalcache"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/hls"
)

// The golden fixtures under testdata/golden are the recorded reference
// outputs of the repair search: one JSON per run holding the printed
// final program and every verdict, counter, and table of its Result,
// plus the run's JSONL trace. They replace a second implementation as
// the oracle for refactors — a change that moves any byte of any
// fixture changes search behaviour. Regenerate with `make golden` (go
// test -update) only for an intended behaviour change, and review the
// fixture diff like code.

var update = flag.Bool("update", false, "rewrite testdata/golden from the current search instead of comparing")

// goldenCase is one recorded search: an evaluation subject (or "fig2",
// the paper's Figure 2 tree kernel) under the zero Options, optionally
// with an explicit target set.
type goldenCase struct {
	subject string
	targets []string
}

// name is the fixture file stem.
func (c goldenCase) name() string {
	if len(c.targets) == 0 {
		return c.subject
	}
	return c.subject + "-multi"
}

func (c goldenCase) inputs(t *testing.T) (orig, initial *cast.Unit, kernel string, tests []fuzz.TestCase) {
	t.Helper()
	if c.subject == "fig2" {
		return cparser.MustParse(treeKernel), cparser.MustParse(treeKernel), "kernel", treeTests()
	}
	return subjectInputs(t, c.subject)
}

func (c goldenCase) options(t *testing.T) searchOpts {
	var opts searchOpts
	if len(c.targets) > 0 {
		opts.targets = mustTargets(t, c.targets...)
	}
	return opts
}

// untargetedGoldenCases are P1–P10 (trimmed to paritySubjects under
// -short) and the Figure 2 kernel, all without a target set.
func untargetedGoldenCases() []goldenCase {
	var out []goldenCase
	for _, id := range append(paritySubjects(), "fig2") {
		out = append(out, goldenCase{subject: id})
	}
	return out
}

// targetedGoldenCases are P2 and P6 on three profiles across both
// backends, and the Figure 2 kernel on a large and a small part.
func targetedGoldenCases() []goldenCase {
	three := []string{"vivado_hls:xcvu9p", "vivado_hls:zc706", "vitis:aws_f1"}
	return []goldenCase{
		{subject: "P2", targets: three},
		{subject: "P6", targets: three},
		{subject: "fig2", targets: []string{"vivado_hls:xcvu9p", "vivado_hls:zc706"}},
	}
}

// goldenResult is the recorded form of a Result.
type goldenResult struct {
	Targets    []string         `json:"targets,omitempty"`
	Unit       string           `json:"unit"`
	Compatible bool             `json:"compatible"`
	BehaviorOK bool             `json:"behavior_ok"`
	Improved   bool             `json:"improved"`
	Stats      Stats            `json:"stats"`
	Report     difftest.Report  `json:"report"`
	Remaining  []hls.Diagnostic `json:"remaining"`
	PerTarget  []TargetVerdict  `json:"per_target"`
	Pareto     []ParetoPoint    `json:"pareto"`
}

// goldenJSON renders res in the fixture format.
func goldenJSON(t *testing.T, c goldenCase, res Result) []byte {
	t.Helper()
	b, err := json.MarshalIndent(goldenResult{
		Targets:    c.targets,
		Unit:       cast.Print(res.Unit),
		Compatible: res.Compatible,
		BehaviorOK: res.BehaviorOK,
		Improved:   res.Improved,
		Stats:      res.Stats,
		Report:     res.Report,
		Remaining:  res.Remaining,
		PerTarget:  res.PerTarget,
		Pareto:     res.Pareto,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func goldenPath(c goldenCase, ext string) string {
	return filepath.Join("testdata", "golden", c.name()+ext)
}

// runGolden runs the case's search, with mutate (when non-nil) applied
// to its options, and returns the result and its trace.
func runGolden(t *testing.T, c goldenCase, mutate func(*searchOpts)) (Result, []byte) {
	t.Helper()
	orig, initial, kernel, tests := c.inputs(t)
	opts := c.options(t)
	if mutate != nil {
		mutate(&opts)
	}
	return tracedSearch(orig, initial, kernel, tests, opts)
}

// recordGolden rewrites the case's fixtures when -update is set.
func recordGolden(t *testing.T, c goldenCase, res Result, trace []byte) {
	t.Helper()
	if !*update {
		return
	}
	if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(c, ".json"), goldenJSON(t, c, res), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(c, ".jsonl"), trace, 0o644); err != nil {
		t.Fatal(err)
	}
}

// assertGolden compares a run against the case's fixtures, byte for
// byte.
func assertGolden(t *testing.T, c goldenCase, label string, res Result, trace []byte) {
	t.Helper()
	want, err := os.ReadFile(goldenPath(c, ".json"))
	if err != nil {
		t.Fatalf("%s: %v (run `make golden` to record fixtures)", label, err)
	}
	assertTracesIdentical(t, label+" result vs "+goldenPath(c, ".json"), want, goldenJSON(t, c, res))
	wantTrace, err := os.ReadFile(goldenPath(c, ".jsonl"))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	assertTracesIdentical(t, label+" trace vs "+goldenPath(c, ".jsonl"), wantTrace, trace)
}

// TestFastEvalParity pins the evaluation path to the recorded goldens:
// for every untargeted golden case, the sequential and the speculative
// (Workers=4) search reproduce the fixture's Result — printed program,
// verdicts, the whole Stats struct down to the virtual clock, the final
// difftest Report — and its JSONL trace byte for byte. With -update
// the sequential run rewrites the fixtures.
func TestFastEvalParity(t *testing.T) {
	for _, c := range untargetedGoldenCases() {
		t.Run(c.subject, func(t *testing.T) {
			seq, seqTrace := runGolden(t, c, nil)
			recordGolden(t, c, seq, seqTrace)
			assertGolden(t, c, "workers=1", seq, seqTrace)

			par, parTrace := runGolden(t, c, func(o *searchOpts) { o.Workers = 4 })
			assertGolden(t, c, "workers=4", par, parTrace)
		})
	}
}

// TestFastEvalTargetsParity is TestFastEvalParity for the targeted
// golden cases: verdict table and Pareto archive included.
func TestFastEvalTargetsParity(t *testing.T) {
	for _, c := range targetedGoldenCases() {
		t.Run(c.subject, func(t *testing.T) {
			seq, seqTrace := runGolden(t, c, nil)
			recordGolden(t, c, seq, seqTrace)
			assertGolden(t, c, "workers=1", seq, seqTrace)

			par, parTrace := runGolden(t, c, func(o *searchOpts) { o.Workers = 4 })
			assertGolden(t, c, "workers=4", par, parTrace)
		})
	}
}

// TestFastEvalCacheParity: cold and warm evaluation-cache runs
// reproduce the goldens for any Workers value (cache off is
// TestFastEvalParity), and the warm run is actually served from the
// cache.
func TestFastEvalCacheParity(t *testing.T) {
	for _, id := range []string{"P2", "P6"} {
		c := goldenCase{subject: id}
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", id, workers), func(t *testing.T) {
				cache, err := evalcache.New(evalcache.Options{})
				if err != nil {
					t.Fatal(err)
				}
				withCache := func(o *searchOpts) { o.Workers, o.env.Cache = workers, cache }
				cold, coldTrace := runGolden(t, c, withCache)
				before := cache.Stats()
				warm, warmTrace := runGolden(t, c, withCache)
				if cache.Stats().Sub(before).Hits() == 0 {
					t.Error("warm run never hit the cache")
				}
				assertGolden(t, c, "cold", cold, coldTrace)
				assertGolden(t, c, "warm", warm, warmTrace)
			})
		}
	}
}
