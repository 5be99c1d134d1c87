package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/obs"
	"github.com/hetero/heterogen/internal/subjects"
)

func smallOptions(t *testing.T, id string) (Options, string) {
	t.Helper()
	s, err := subjects.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Kernel: s.Kernel}
	opts.Fuzz = fuzz.Options{MaxExecs: 150, Plateau: 60}
	return opts, id
}

// TestRunUnitContextPreCancelled: a context cancelled before the call
// must return promptly with an error wrapping context.Canceled and a
// valid best-so-far Result — here the original program, since no phase
// got to run.
func TestRunUnitContextPreCancelled(t *testing.T) {
	opts, _ := smallOptions(t, "P2")
	s, _ := subjects.ByID("P2")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	start := time.Now()
	res, err := RunUnitContext(ctx, s.MustParse(), opts)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want one wrapping context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("pre-cancelled run took %v, want prompt return", elapsed)
	}
	if res.Final == nil || res.Source == "" {
		t.Error("cancelled run must still carry the best-so-far program")
	}
}

// cancelAfter is an observer that cancels a context once it has seen n
// events of the given type (any type when typ is empty) — a
// deterministic way to interrupt the pipeline mid-phase.
type cancelAfter struct {
	n      int
	typ    obs.Type
	seen   int
	cancel context.CancelFunc
}

func (c *cancelAfter) Emit(e obs.Event) {
	if c.typ != "" && e.Type != c.typ {
		return
	}
	c.seen++
	if c.seen == c.n {
		c.cancel()
	}
}

// TestRunUnitContextMidRunCancel cancels during the fuzzing phase (the
// 20th structured event lands well inside it) and checks the documented
// partial-result semantics: a prompt return, an error wrapping
// context.Canceled, and the best-so-far source in the Result.
func TestRunUnitContextMidRunCancel(t *testing.T) {
	opts, _ := smallOptions(t, "P2")
	s, _ := subjects.ByID("P2")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts.Obs = &cancelAfter{n: 20, cancel: cancel}

	res, err := RunUnitContext(ctx, s.MustParse(), opts)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want one wrapping context.Canceled", err)
	}
	if res.Final == nil || res.Source == "" {
		t.Error("cancelled run must still carry the best-so-far program")
	}
	// A run cancelled mid-campaign must not have paid the full budget.
	if res.Campaign.Execs >= opts.Fuzz.MaxExecs {
		t.Errorf("campaign ran to its full budget (%d execs) despite cancellation", res.Campaign.Execs)
	}
}

// TestRunUnitContextMidSearchCancel cancels on the third committed
// repair candidate — inside the search proper — and checks that the
// Result carries the most advanced program version reached plus its
// partial repair log, the acceptance bar for TranspileContext's
// best-so-far semantics.
// midSearchKernel carries several error classes at once (dynamic tree:
// malloc, pointer links, recursion, a global), so the random-mode
// search tries tens of candidates — enough room to cancel mid-search.
// The evaluation subjects converge in single-digit candidates and
// cannot be interrupted reliably.
const midSearchKernel = `
struct Node {
    int val;
    struct Node *next;
};
int total;
void walk(struct Node *curr) {
    if (curr == 0) { return; }
    total = total + curr->val;
    walk(curr->next);
}
int kernel(int n) {
    if (n < 0) { n = -n; }
    if (n > 16) { n = 16; }
    struct Node *head = 0;
    for (int i = 0; i < n; i++) {
        struct Node *nn = (struct Node *)malloc(sizeof(struct Node));
        nn->val = (i * 37) % 101;
        nn->next = head;
        head = nn;
    }
    total = 0;
    walk(head);
    return total;
}`

func TestRunUnitContextMidSearchCancel(t *testing.T) {
	u := cparser.MustParse(midSearchKernel)
	opts := Options{Kernel: "kernel"}
	opts.Fuzz = fuzz.Options{MaxExecs: 150, Plateau: 60}
	opts.Repair.WithoutDependence = true
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obsCancel := &cancelAfter{n: 3, typ: obs.EvCandidate, cancel: cancel}
	opts.Obs = obsCancel

	full, err := RunUnitContext(context.Background(), cparser.MustParse(midSearchKernel), Options{Kernel: opts.Kernel, Fuzz: opts.Fuzz, Repair: opts.Repair})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunUnitContext(ctx, u, opts)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want one wrapping context.Canceled", err)
	}
	if res.Final == nil || res.Source == "" {
		t.Fatal("cancelled run must still carry the best-so-far program")
	}
	if obsCancel.seen < 3 {
		t.Fatalf("search emitted only %d candidate events before returning", obsCancel.seen)
	}
	// The interrupted search must have stopped early, not run to the end.
	if res.Repair.Stats.CandidatesTried >= full.Repair.Stats.CandidatesTried {
		t.Errorf("cancelled search tried %d candidates, full search %d — no early stop",
			res.Repair.Stats.CandidatesTried, full.Repair.Stats.CandidatesTried)
	}
}

// TestRunUnitContextBackground: RunUnitContext over a parsed unit with
// a background context must behave exactly like RunContext over the
// source text.
func TestRunUnitContextBackground(t *testing.T) {
	opts, _ := smallOptions(t, "P2")
	s, _ := subjects.ByID("P2")
	viaSrc, err := RunContext(context.Background(), s.Source, opts)
	if err != nil {
		t.Fatal(err)
	}
	viaUnit, err := RunUnitContext(context.Background(), s.MustParse(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if viaSrc.Source != viaUnit.Source || viaSrc.Summary() != viaUnit.Summary() {
		t.Error("RunUnitContext(Background) diverges from RunContext")
	}
}
