package conform

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/hls/check"
	"github.com/hetero/heterogen/internal/progen"
)

func smallCount(t *testing.T, full, short int) int {
	if testing.Short() {
		return short
	}
	return full
}

// A batch of generated programs passes every stage: clean twins are
// checker-clean, all planted violations are flagged, repair converges,
// and parity holds on the sampled seeds.
func TestRunPasses(t *testing.T) {
	n := smallCount(t, 15, 5)
	rep, err := RunContext(context.Background(), Options{Seed: 1, Count: n, ParityEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		for _, f := range rep.Failures {
			t.Errorf("seed %d stage %s: %s", f.Seed, f.Stage, f.Detail)
		}
		t.Fatalf("%d conformance failures", len(rep.Failures))
	}
	if rep.Programs != n || rep.CleanOK != n || rep.Converged != n {
		t.Fatalf("inconsistent counts: %s", rep.Summary())
	}
	if rep.Violations == 0 || rep.Flagged != rep.Violations {
		t.Fatalf("oracle counts wrong: %s", rep.Summary())
	}
	if want := (n + 4) / 5; rep.ParityOK != want {
		t.Fatalf("parity_ok = %d, want %d", rep.ParityOK, want)
	}
}

// Two identical runs produce byte-identical summaries — the acceptance
// criterion behind `hgconform -seed 1 -n 100` determinism.
func TestRunDeterministic(t *testing.T) {
	opts := Options{Seed: 40, Count: smallCount(t, 10, 4), ParityEvery: 5}
	a, err := RunContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary() != b.Summary() {
		t.Fatalf("summaries differ:\n%s\n%s", a.Summary(), b.Summary())
	}
}

// CheckOnly stops after the oracle stage: no convergence or parity
// counts, much faster.
func TestCheckOnly(t *testing.T) {
	rep, err := RunContext(context.Background(), Options{Seed: 1, Count: 25, CheckOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("failures in check-only run: %s", rep.Summary())
	}
	if rep.Converged != 0 || rep.ParityOK != 0 {
		t.Fatalf("check-only ran later stages: %s", rep.Summary())
	}
	if rep.Flagged != rep.Violations || rep.Violations == 0 {
		t.Fatalf("oracle counts wrong: %s", rep.Summary())
	}
}

// Cancellation between seeds returns the partial report and an error.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := RunContext(ctx, Options{Seed: 1, Count: 50, CheckOnly: true})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if rep.Programs != 0 {
		t.Fatalf("pre-cancelled run processed %d programs", rep.Programs)
	}
}

// The failure path: minimization must bring the reproducer to at most
// 25% of the original AST node count, and the reproducer file must be
// written with a parseable metadata header. Exercised directly through
// the harness (generated programs currently pass all stages, so a
// synthetic predicate stands in for a checker bug).
func TestFailurePathWritesReducedReproducer(t *testing.T) {
	dir := t.TempDir()
	h := &harness{opts: Options{OutDir: dir}.withDefaults(), rep: &Report{}}
	p := progen.MustGenerate(progen.Options{Seed: 11, Kinds: []progen.Kind{progen.KindMalloc}})
	v := p.Planted[0]
	h.fail(11, p.Unit, Failure{
		Seed: 11, Stage: "oracle", Kind: v.Kind, Subject: v.Subject,
		Detail: "synthetic failure for the reducer path",
	}, 0, func(u *cast.Unit) bool {
		ru, ok := reparse(u)
		return ok && progen.Present(ru, v)
	})

	if len(h.rep.Failures) != 1 {
		t.Fatalf("recorded %d failures, want 1", len(h.rep.Failures))
	}
	f := h.rep.Failures[0]
	if f.ReducedNodes*4 > f.OriginalNodes {
		t.Fatalf("reduced to %d of %d nodes, want <= 25%%", f.ReducedNodes, f.OriginalNodes)
	}
	if f.Path == "" {
		t.Fatal("no reproducer path recorded")
	}
	data, err := os.ReadFile(f.Path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{"seed=11", "stage=oracle", "kind=malloc", "hgconform reproducer"} {
		if !strings.Contains(text, want) {
			t.Errorf("reproducer header missing %q:\n%s", want, text)
		}
	}
	u, err := cparser.Parse(text)
	if err != nil {
		t.Fatalf("reproducer does not parse: %v", err)
	}
	if !progen.Present(u, v) {
		t.Fatal("reproducer lost the planted construct")
	}

	// The checker does flag malloc, so the recorded failure is "fixed"
	// from Replay's point of view: replaying must succeed.
	if err := Replay(f.Path); err != nil {
		t.Fatalf("Replay on a fixed failure: %v", err)
	}
}

// Replay catches a reproducer whose bug has come back: a clean-stage
// file containing a violation makes the checker report diagnostics.
func TestReplayDetectsRegression(t *testing.T) {
	p := progen.MustGenerate(progen.Options{Seed: 11, Kinds: []progen.Kind{progen.KindMalloc}})
	if check.Run(p.Unit, hls.DefaultConfig("kernel")).OK {
		t.Fatal("test premise broken: malloc program passes the checker")
	}
	path := filepath.Join(t.TempDir(), "seed11_clean.c")
	src := "// seed=11 stage=clean\n" + cast.Print(p.Unit)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Replay(path); err == nil {
		t.Fatal("Replay accepted a clean-stage reproducer that still has diagnostics")
	}
}

// Replay rejects malformed reproducers instead of panicking.
func TestReplayMalformed(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"nostage.c":  "// seed=1\nint kernel(int a[4], int s, int out[4]) { return s; }\n",
		"badstage.c": "// seed=1 stage=bogus\nint kernel(int a[4], int s, int out[4]) { return s; }\n",
		"badkind.c":  "// seed=1 stage=oracle kind=bogus subject=x\nint kernel(int a[4], int s, int out[4]) { return s; }\n",
		"nosrc.c":    "// seed=1 stage=roundtrip\n%%% not c at all\n",
	}
	for name, content := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := Replay(path); err == nil {
			t.Errorf("%s: Replay accepted a malformed reproducer", name)
		}
	}
	if err := Replay(filepath.Join(dir, "absent.c")); err == nil {
		t.Error("Replay accepted a missing file")
	}
}

// The committed corpus stays green: every reproducer under
// testdata/conform must replay (its recorded bug must stay fixed).
func TestReplayCorpus(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "conform")
	if err := ReplayDir(dir); err != nil {
		t.Fatal(err)
	}
}
