package fuzz

import (
	"fmt"
	"testing"

	"github.com/hetero/heterogen/internal/cparser"
)

const minimizeKernel = `
int kernel(int x, int y) {
	int acc = 0;
	if (x > 10) { acc = acc + 1; } else { acc = acc - 1; }
	if (y > 10) { acc = acc + 2; } else { acc = acc - 2; }
	while (acc > 0) { acc = acc - 3; }
	return acc;
}`

func minimizeSuite(t *testing.T) []TestCase {
	t.Helper()
	u := cparser.MustParse(minimizeKernel)
	sp, err := SpecOf(u, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	var suite []TestCase
	for _, xy := range [][2]int64{
		{0, 0}, {20, 0}, {0, 20}, {20, 20}, {11, 11}, {-5, -5},
		{0, 0}, {20, 0}, {0, 20}, {20, 20}, // duplicates
	} {
		tc := TestCase{Args: []Arg{sp.Params[0].Clone(), sp.Params[1].Clone()}}
		tc.Args[0].Ints[0], tc.Args[1].Ints[0] = xy[0], xy[1]
		suite = append(suite, tc)
	}
	return suite
}

// The minimized suite must witness every branch outcome the full suite
// witnesses — the set-cover invariant, checked directly on the hit
// sets rather than through an end-to-end campaign.
func TestMinimizePreservesOutcomeWitnesses(t *testing.T) {
	u := cparser.MustParse(minimizeKernel)
	suite := minimizeSuite(t)
	min, err := Minimize(u, "kernel", suite)
	if err != nil {
		t.Fatal(err)
	}
	if len(min) >= len(suite) {
		t.Fatalf("minimization kept %d of %d tests", len(min), len(suite))
	}
	outcomes := func(tests []TestCase) map[int]bool {
		res, err := collectHits(u, "kernel", tests)
		if err != nil {
			t.Fatal(err)
		}
		set := map[int]bool{}
		for _, r := range res {
			if r.crashed {
				continue
			}
			for _, b := range r.hits {
				set[b] = true
			}
		}
		return set
	}
	full, kept := outcomes(suite), outcomes(min)
	for b := range full {
		if !kept[b] {
			t.Errorf("outcome %d lost by minimization", b)
		}
	}
}

// Minimization is a pure function of the input suite: repeated runs
// give the identical result.
func TestMinimizeDeterministic(t *testing.T) {
	u := cparser.MustParse(minimizeKernel)
	suite := minimizeSuite(t)
	render := func(tests []TestCase) string {
		s := ""
		for _, tc := range tests {
			s += fmt.Sprintf("(%d,%d)", tc.Args[0].Ints[0], tc.Args[1].Ints[0])
		}
		return s
	}
	first, err := Minimize(u, "kernel", suite)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		got, err := Minimize(u, "kernel", suite)
		if err != nil {
			t.Fatal(err)
		}
		if render(got) != render(first) {
			t.Fatalf("run %d: %s != %s", run, render(got), render(first))
		}
	}
}

// Suites of size zero and one pass through untouched (no execution).
func TestMinimizeTrivialSuites(t *testing.T) {
	u := cparser.MustParse(minimizeKernel)
	if got, err := Minimize(u, "kernel", nil); err != nil || len(got) != 0 {
		t.Fatalf("nil suite: %v, %v", got, err)
	}
	one := minimizeSuite(t)[:1]
	got, err := Minimize(u, "kernel", one)
	if err != nil || len(got) != 1 {
		t.Fatalf("singleton suite: %v, %v", got, err)
	}
}

// A branchless kernel has no outcomes to cover; exactly one clean
// witness survives so differential testing still observes behaviour.
func TestMinimizeBranchlessKeepsOneWitness(t *testing.T) {
	u := cparser.MustParse(`int kernel(int x) { return x * 3 + 1; }`)
	sp, err := SpecOf(u, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	var suite []TestCase
	for i := int64(0); i < 5; i++ {
		tc := TestCase{Args: []Arg{sp.Params[0].Clone()}}
		tc.Args[0].Ints[0] = i
		suite = append(suite, tc)
	}
	min, err := Minimize(u, "kernel", suite)
	if err != nil {
		t.Fatal(err)
	}
	if len(min) != 1 {
		t.Fatalf("branchless kernel kept %d tests, want 1", len(min))
	}
	if min[0].Args[0].Ints[0] != 0 {
		t.Errorf("kept witness %d, want the earliest (0)", min[0].Args[0].Ints[0])
	}
}

// When every test crashes, minimization falls back to the first test
// rather than returning an empty suite.
func TestMinimizeAllCrashing(t *testing.T) {
	u := cparser.MustParse(`int kernel(int x) { return 10 / (x - x); }`)
	sp, err := SpecOf(u, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	var suite []TestCase
	for i := int64(0); i < 3; i++ {
		tc := TestCase{Args: []Arg{sp.Params[0].Clone()}}
		tc.Args[0].Ints[0] = i
		suite = append(suite, tc)
	}
	min, err := Minimize(u, "kernel", suite)
	if err != nil {
		t.Fatal(err)
	}
	if len(min) != 1 {
		t.Fatalf("all-crashing suite kept %d tests, want the fallback single test", len(min))
	}
}
