package repair

import (
	"reflect"
	"testing"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/difftest"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/interp"
	"github.com/hetero/heterogen/internal/subjects"
)

// aliasSrc has several functions, pragmas on declarations and in
// bodies, and pragma-targetable loops, so the registry produces scoped
// (structure-sharing) candidates from several templates.
const aliasSrc = `
#pragma HLS top name=kernel
void helper(int a[16], int b[16]) {
#pragma HLS inline
    for (int i = 0; i < 16; i++) {
#pragma HLS pipeline
        b[i] = a[i] * 3;
    }
}
int other(int x) {
    int acc = 0;
    for (int i = 0; i < 8; i++) { acc = acc + x; }
    return acc;
}
int kernel(int a[16], int b[16]) {
#pragma HLS dataflow
    helper(a, b);
    int s = 0;
    for (int i = 0; i < 16; i++) { s = s + b[i]; }
    return s + other(3);
}`

// sharesFuncDecl reports whether a and b contain the same *cast.FuncDecl
// pointer — the signature of a structure-sharing clone.
func sharesFuncDecl(a, b *cast.Unit) bool {
	ptrs := map[*cast.FuncDecl]bool{}
	for _, d := range a.Decls {
		if f, ok := d.(*cast.FuncDecl); ok {
			ptrs[f] = true
		}
	}
	for _, d := range b.Decls {
		if f, ok := d.(*cast.FuncDecl); ok && ptrs[f] {
			return true
		}
	}
	return false
}

// TestScopedCloneAliasing is the aliasing-safety contract of
// structure-sharing candidate construction: generating candidates with
// FastClone never mutates the parent unit, and generating a second
// generation of candidates from each candidate never mutates the parent
// or any sibling — even though all of them share unedited FuncDecl
// pointers.
func TestScopedCloneAliasing(t *testing.T) {
	u := cparser.MustParse(aliasSrc)
	parentBefore := cast.Print(u)

	st := NewState()
	st.FastClone = true
	cands := append(RandomCandidates(u, nil, st), PerfCandidates(u, st)...)
	if len(cands) == 0 {
		t.Fatal("no candidates generated")
	}
	if got := cast.Print(u); got != parentBefore {
		t.Fatalf("candidate generation mutated the parent unit:\n--- before ---\n%s\n--- after ---\n%s", parentBefore, got)
	}

	shared := 0
	for _, c := range cands {
		if sharesFuncDecl(u, c.Unit) {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no candidate shares a FuncDecl with the parent — structure sharing is not engaged")
	}
	t.Logf("%d/%d candidates share structure with the parent", shared, len(cands))

	snaps := make([]string, len(cands))
	for i, c := range cands {
		snaps[i] = cast.Print(c.Unit)
	}

	// Second generation: grow candidates from every first-generation
	// candidate. Scoped applies on a child must never write through the
	// shared decls into the parent or a sibling.
	for _, c := range cands {
		st2 := NewState()
		st2.FastClone = true
		for _, e := range c.Edits {
			st2.MarkApplied(e)
		}
		RandomCandidates(c.Unit, nil, st2)
		PerfCandidates(c.Unit, st2)
	}
	if got := cast.Print(u); got != parentBefore {
		t.Fatal("second-generation candidate construction mutated the grandparent unit")
	}
	for i, c := range cands {
		if got := cast.Print(c.Unit); got != snaps[i] {
			t.Errorf("candidate %d (%v) mutated by a sibling's candidate generation:\n--- before ---\n%s\n--- after ---\n%s",
				i, c.Edits, snaps[i], got)
		}
	}
}

// TestLineCounterPinsReport pins the ΔLOC numbers the evaluation report
// renders: the reusable LineCounter agrees with the one-shot
// EditedLines on known edits, repeated calls do not consume the base
// multiset, and the exact counts are pinned so a change to line
// accounting shows up as a diff here, not as silently shifted tables.
func TestLineCounterPinsReport(t *testing.T) {
	orig := cparser.MustParse(aliasSrc)
	lc := NewLineCounter(orig)

	if got := lc.EditedLines(orig); got != 0 {
		t.Errorf("unedited unit reports %d edited lines, want 0", got)
	}

	st := NewState()
	st.FastClone = true
	cands := RandomCandidates(orig, nil, st)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for i, c := range cands {
		want := EditedLines(orig, c.Unit)
		if got := lc.EditedLines(c.Unit); got != want {
			t.Errorf("candidate %d: LineCounter=%d, EditedLines=%d", i, got, want)
		}
		// Reuse must be non-destructive: same answer twice.
		if got := lc.EditedLines(c.Unit); got != want {
			t.Errorf("candidate %d: second call diverged: %d vs %d", i, got, want)
		}
	}

	// Pin exact counts for two hand-made edits.
	ins := cast.CloneUnit(orig)
	for _, d := range ins.Decls {
		if f, ok := d.(*cast.FuncDecl); ok && f.Name == "other" {
			f.Pragmas = append(f.Pragmas, &cast.Pragma{Text: "HLS INLINE"})
		}
	}
	if got := lc.EditedLines(ins); got != 1 {
		t.Errorf("one inserted pragma: %d edited lines, want 1", got)
	}
	if got := EditedLines(orig, ins); got != 1 {
		t.Errorf("one inserted pragma (one-shot): %d edited lines, want 1", got)
	}
}

// TestRunnerMatchesOneShotRun: the search's differential tester —
// structure-sharing candidates, cached reference outcomes, compiled
// code keyed by fingerprint — reports exactly what a one-shot
// difftest.Run reports on a full clone, for every
// candidate of a random-mode iteration on the Figure 2 kernel. The
// candidate set is generated twice, so the second round runs fresh
// pointers against content-keyed compiled code.
func TestRunnerMatchesOneShotRun(t *testing.T) {
	orig := cparser.MustParse(treeKernel)
	tests := treeTests()
	cfg := hls.DefaultConfig("kernel")
	runner := difftest.NewRunner(orig, "kernel", cfg, tests, interp.NewCodebase(), cast.NewFingerprints())
	for round := 0; round < 2; round++ {
		st := NewState()
		st.FastClone = true
		cands := append(RandomCandidates(orig, nil, st), PerfCandidates(orig, st)...)
		if len(cands) == 0 {
			t.Fatal("no candidates for the Figure 2 kernel")
		}
		for _, c := range cands {
			full := cast.CloneUnit(orig)
			for _, e := range c.Edits {
				if err := e.Apply(full); err != nil {
					t.Fatalf("%s does not re-apply to a full clone: %v", c.Describe(), err)
				}
			}
			want := difftest.Run(orig, full, "kernel", cfg, tests)
			if got := runner.Run(c.Unit); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d, %s:\n  runner:   %+v\n  one-shot: %+v", round, c.Describe(), got, want)
			}
		}
	}
}

// TestFingerprintLinesMatchCountLines checks the memoized line count
// computeScore charges compilation by against cast.CountLines, on
// P1–P10, the Figure 2 kernel, and two generations of candidates grown
// from each through one shared memo (structure-sharing candidates hit it
// for every unedited declaration). -short keeps the first generation.
func TestFingerprintLinesMatchCountLines(t *testing.T) {
	ids := []string{"fig2"}
	units := []*cast.Unit{cparser.MustParse(treeKernel)}
	for _, s := range subjects.All() {
		ids, units = append(ids, s.ID), append(units, s.MustParse())
	}
	for i, u := range units {
		id := ids[i]
		fps := cast.NewFingerprints()
		check := func(what string, u *cast.Unit) {
			if got, want := fps.Lines(u), cast.CountLines(u); got != want {
				t.Errorf("%s %s: memoized line count %d, CountLines %d", id, what, got, want)
			}
		}
		check("unit", u)
		st := NewState()
		st.FastClone = true
		cands := append(RandomCandidates(u, nil, st), PerfCandidates(u, st)...)
		if len(cands) == 0 {
			t.Errorf("%s: no candidates", id)
		}
		for _, c := range cands {
			check(c.Describe(), c.Unit)
			if testing.Short() {
				continue
			}
			st2 := NewState()
			st2.FastClone = true
			for _, e := range c.Edits {
				st2.MarkApplied(e)
			}
			for _, c2 := range append(RandomCandidates(c.Unit, nil, st2), PerfCandidates(c.Unit, st2)...) {
				check(c.Describe()+" ; "+c2.Describe(), c2.Unit)
			}
		}
	}
}
