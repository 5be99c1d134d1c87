package repair

import (
	"context"
	"strings"
	"testing"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/hls/check"
	"github.com/hetero/heterogen/internal/obs"
)

// treeKernel is the paper's Figure 2 working example shape: dynamic tree
// construction (malloc + pointers) with a recursive traversal. Insertion
// is iterative, as kernels ported to accelerators typically are.
const treeKernel = `
struct Node {
    int val;
    struct Node *left;
    struct Node *right;
};
int total;
void traverse(struct Node *curr) {
    if (curr == 0) { return; }
    total = total + curr->val;
    traverse(curr->left);
    traverse(curr->right);
}
int kernel(int n) {
    if (n < 0) { n = -n; }
    if (n > 24) { n = 24; }
    struct Node *root = 0;
    for (int i = 0; i < n; i++) {
        int v = (i * 37) % 101;
        struct Node *nn = (struct Node *)malloc(sizeof(struct Node));
        nn->val = v;
        nn->left = 0;
        nn->right = 0;
        if (root == 0) { root = nn; }
        else {
            struct Node *p = root;
            while (1) {
                if (v < p->val) {
                    if (p->left == 0) { p->left = nn; break; }
                    p = p->left;
                } else {
                    if (p->right == 0) { p->right = nn; break; }
                    p = p->right;
                }
            }
        }
    }
    total = 0;
    traverse(root);
    return total;
}`

func treeTests() []fuzz.TestCase {
	var out []fuzz.TestCase
	for _, n := range []int64{0, 1, 3, 8, 24, 17} {
		out = append(out, intTC(n))
	}
	return out
}

func TestSearchRepairsTreeKernel(t *testing.T) {
	orig := cparser.MustParse(treeKernel)
	initial := cparser.MustParse(treeKernel)

	pre := check.Run(initial, hls.DefaultConfig("kernel"))
	if pre.OK {
		t.Fatal("tree kernel should start broken")
	}

	res := search(context.Background(), orig, initial, "kernel", treeTests(), searchOpts{})
	if !res.Compatible {
		t.Fatalf("search did not reach compatibility; remaining: %v\nlog: %v",
			res.Remaining, res.Stats.EditLog)
	}
	if !res.BehaviorOK {
		t.Fatalf("behaviour not preserved: %s\nlog: %v",
			res.Report.FirstDiff, res.Stats.EditLog)
	}
	// The repaired design passes an independent full check.
	rep := check.Run(res.Unit, hls.DefaultConfig("kernel"))
	if !rep.OK {
		t.Errorf("final unit fails independent check: %v", rep.Diags)
	}
	// The expected templates all fired.
	log := strings.Join(res.Stats.EditLog, " ")
	for _, want := range []string{"insert", "pointer", "stack_trans"} {
		if !strings.Contains(log, want) {
			t.Errorf("edit log missing %q: %v", want, res.Stats.EditLog)
		}
	}
	if res.Stats.HLSInvocations == 0 || res.Stats.VirtualSeconds == 0 {
		t.Error("virtual accounting missing")
	}
	// The repaired source is printable and reparses.
	printed := cast.Print(res.Unit)
	if _, err := cparser.Parse(printed); err != nil {
		t.Errorf("final unit does not reparse: %v", err)
	}
	// Edits added lines (ΔLOC > 0).
	if EditedLines(orig, res.Unit) == 0 {
		t.Error("ΔLOC should be positive")
	}
}

func TestSearchWithoutDependenceIsSlower(t *testing.T) {
	orig := cparser.MustParse(treeKernel)
	mkInitial := func() *cast.Unit { return cparser.MustParse(treeKernel) }

	fast := search(context.Background(), orig, mkInitial(), "kernel", treeTests(), searchOpts{})
	if !fast.Compatible || !fast.BehaviorOK {
		t.Fatalf("dependence-guided search must succeed: %v", fast.Stats.EditLog)
	}

	var slowOpts searchOpts
	slowOpts.WithoutDependence = true
	slowOpts.Budget = 12 * 3600
	slowOpts.MaxIterations = 256
	slow := search(context.Background(), orig, mkInitial(), "kernel", treeTests(), slowOpts)

	if slow.Compatible && slow.Stats.VirtualSeconds <= fast.Stats.VirtualSeconds {
		t.Errorf("random order should cost more virtual time: dep=%.0fs random=%.0fs",
			fast.Stats.VirtualSeconds, slow.Stats.VirtualSeconds)
	}
	if slow.Stats.CandidatesTried <= fast.Stats.CandidatesTried {
		t.Errorf("random order should try more candidates: dep=%d random=%d",
			fast.Stats.CandidatesTried, slow.Stats.CandidatesTried)
	}
}

func TestSearchWithoutCheckerCompilesMore(t *testing.T) {
	orig := cparser.MustParse(treeKernel)
	mkInitial := func() *cast.Unit { return cparser.MustParse(treeKernel) }

	var withOpts searchOpts
	with := search(context.Background(), orig, mkInitial(), "kernel", treeTests(), withOpts)

	var withoutOpts searchOpts
	withoutOpts.WithoutChecker = true
	without := search(context.Background(), orig, mkInitial(), "kernel", treeTests(), withoutOpts)

	if !with.Compatible || !without.Compatible {
		t.Fatal("both configurations must succeed on the tree kernel")
	}
	// Without the style checker every tried candidate pays a compile.
	if without.Stats.HLSInvocations < with.Stats.HLSInvocations {
		t.Errorf("WithoutChecker should compile at least as many candidates: with=%d without=%d",
			with.Stats.HLSInvocations, without.Stats.HLSInvocations)
	}
}

func TestSearchBudgetExhaustion(t *testing.T) {
	orig := cparser.MustParse(treeKernel)
	initial := cparser.MustParse(treeKernel)
	var opts searchOpts
	opts.Budget = 1 // one virtual second: cannot even compile once more
	res := search(context.Background(), orig, initial, "kernel", treeTests(), opts)
	if res.Compatible && res.BehaviorOK {
		t.Error("a one-second budget cannot finish the repair")
	}
	if res.Stats.VirtualSeconds <= 0 {
		t.Error("virtual time not accounted")
	}
}

func TestSearchAlreadyCleanProgramImproves(t *testing.T) {
	src := `
void kernel(int a[64], int b[64]) {
    for (int i = 0; i < 64; i++) {
        b[i] = a[i] * 3 + 1;
    }
}`
	orig := cparser.MustParse(src)
	initial := cparser.MustParse(src)
	mk := func() fuzz.TestCase {
		in := fuzz.Arg{Ints: make([]int64, 64), Width: 32}
		for i := range in.Ints {
			in.Ints[i] = int64(i * 7 % 50)
		}
		return fuzz.TestCase{Args: []fuzz.Arg{in, {Ints: make([]int64, 64), Width: 32}}}
	}
	res := search(context.Background(), orig, initial, "kernel", []fuzz.TestCase{mk()}, searchOpts{})
	if !res.Compatible || !res.BehaviorOK {
		t.Fatalf("clean program must stay correct: %v", res.Report.FirstDiff)
	}
	// Performance exploration should have added pragmas.
	printed := cast.Print(res.Unit)
	if !strings.Contains(printed, "#pragma HLS") {
		t.Errorf("no pragmas applied during performance exploration:\n%s", printed)
	}
}

func TestSearchResizeLoopConverges(t *testing.T) {
	// A recursion whose stack need (≈2×depth) exceeds the initial guess,
	// forcing at least one resize before behaviour passes.
	src := `
int acc;
void walk(int depth) {
    if (depth <= 0) { return; }
    acc = acc + depth;
    walk(depth - 1);
}
int kernel(int n) {
    if (n < 0) { n = 0; }
    if (n > 60) { n = 60; }
    acc = 0;
    walk(n);
    return acc;
}`
	orig := cparser.MustParse(src)
	initial := cparser.MustParse(src)
	tests := []fuzz.TestCase{intTC(0), intTC(5), intTC(60)}
	res := search(context.Background(), orig, initial, "kernel", tests, searchOpts{})
	if !res.Compatible || !res.BehaviorOK {
		t.Fatalf("resize loop did not converge: %v / %v", res.Remaining, res.Stats.EditLog)
	}
	log := strings.Join(res.Stats.EditLog, " ")
	if !strings.Contains(log, "resize") {
		t.Errorf("expected a resize edit in the log: %v", res.Stats.EditLog)
	}
}

// Two dynamically allocated struct types in one program: the pool and
// pointer templates must convert each independently.
func TestSearchRepairsTwoPooledStructs(t *testing.T) {
	src := `
struct A { int v; struct A *next; };
struct B { int w; struct B *next; };
int kernel(int n) {
    if (n < 0) { n = 0; }
    if (n > 20) { n = 20; }
    struct A *as = 0;
    struct B *bs = 0;
    for (int i = 0; i < n; i++) {
        struct A *a = (struct A *)malloc(sizeof(struct A));
        a->v = i * 2;
        a->next = as;
        as = a;
        struct B *b = (struct B *)malloc(sizeof(struct B));
        b->w = i * 3;
        b->next = bs;
        bs = b;
    }
    int s = 0;
    struct A *pa = as;
    while (pa != 0) { s += pa->v; pa = pa->next; }
    struct B *pb = bs;
    while (pb != 0) { s -= pb->w; pb = pb->next; }
    return s;
}`
	orig := cparser.MustParse(src)
	initial := cparser.MustParse(src)
	tests := []fuzz.TestCase{intTC(0), intTC(5), intTC(20)}
	res := search(context.Background(), orig, initial, "kernel", tests, searchOpts{})
	if !res.Compatible || !res.BehaviorOK {
		t.Fatalf("two-struct repair failed: %v\nlog: %v", res.Remaining, res.Stats.EditLog)
	}
	log := strings.Join(res.Stats.EditLog, " ")
	for _, want := range []string{"insert(A", "insert(B", "pointer(A", "pointer(B"} {
		if !strings.Contains(log, want) {
			t.Errorf("edit log missing %q: %v", want, res.Stats.EditLog)
		}
	}
}

// dataflowKernel chains two loop processes in its top function. A
// dataflow pragma there fails the check (buffer b is used by both
// processes), so the first perf step rejects insert_pragma and accepts
// the explore_all sweep; the sweep leaves insert_pragma on offer,
// unchanged, for the second perf step.
const dataflowKernel = `
void scale(int a[12], int b[12]) {
    for (int i = 0; i < 12; i++) { b[i] = a[i] * 3; }
}
void shift(int b[12], int c[12]) {
    for (int i = 0; i < 12; i++) { c[i] = b[i] + 1; }
}
int kernel(int a[12]) {
    int b[12];
    int c[12];
    scale(a, b);
    shift(b, c);
    int s = 0;
    for (int i = 0; i < 12; i++) { s += c[i]; }
    return s;
}`

// perfTrials collects the perf-phase candidate events of a search.
type perfTrials []obs.RepairEvent

func (p *perfTrials) Emit(e obs.Event) {
	if e.Type == obs.EvCandidate && e.Repair.Step == "perf" {
		*p = append(*p, *e.Repair)
	}
}

// TestPerfStepSkipsRejectedConfiguration pins perfStep's dedupe
// (triedPerf): a configuration rejected in one perf step comes back in
// the next, and there it is skipped — neither charged nor traced.
func TestPerfStepSkipsRejectedConfiguration(t *testing.T) {
	const dataflow = "insert_pragma(kernel, insert dataflow)"
	u := cparser.MustParse(dataflowKernel)
	var tests []fuzz.TestCase
	for seed := int64(0); seed < 4; seed++ {
		arg := fuzz.Arg{Ints: make([]int64, 12), Width: 32}
		for i := range arg.Ints {
			arg.Ints[i] = (seed*7 + int64(i)*3) % 50
		}
		tests = append(tests, fuzz.TestCase{Args: []fuzz.Arg{arg}})
	}
	for _, workers := range []int{1, 4} {
		var opts searchOpts
		opts.Workers = workers
		var trials perfTrials
		opts.env.Obs = &trials
		res := search(context.Background(), u, cast.CloneUnit(u), "kernel", tests, opts)
		if got := strings.Join(res.Stats.EditLog, " ; "); got != "explore_all(program, pragma sweep over all loops)" {
			t.Fatalf("workers=%d: edit log %q, want the explore_all sweep alone", workers, got)
		}
		reoffered := false
		for _, c := range PerfCandidates(res.Unit, NewState()) {
			reoffered = reoffered || c.Describe() == dataflow
		}
		if !reoffered {
			t.Fatalf("workers=%d: %s is not re-enumerated after the sweep; the test no longer reaches the skip", workers, dataflow)
		}
		var tries, secondStep int
		for _, tr := range trials {
			if tr.Iter == 2 {
				secondStep++
			}
			if len(tr.Edits) == 1 && tr.Edits[0] == dataflow {
				tries++
				if tr.Accepted {
					t.Fatalf("workers=%d: %s was accepted", workers, dataflow)
				}
			}
		}
		if secondStep == 0 {
			t.Fatalf("workers=%d: no second perf step ran", workers)
		}
		if tries != 1 {
			t.Errorf("workers=%d: %s charged %d times, want once (rejected configurations are skipped in later perf steps)",
				workers, dataflow, tries)
		}
	}
}
