package repair

import (
	"testing"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/cparser"
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
