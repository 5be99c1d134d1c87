package repair

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/hls/check"
	"github.com/hetero/heterogen/internal/progen"
	"github.com/hetero/heterogen/internal/subjects"
)

// orderGoldenPath pins the order in which the search meets its
// candidates: per input and step, the dependence chains repairStep
// tries, its cross-class fallback and the performance step's list, one
// line per candidate with its edit chain and the fingerprint of the
// program it builds. Regenerate with `make golden` only for an intended
// change of enumeration order.
var orderGoldenPath = filepath.Join("testdata", "golden", "order.txt")

// orderProgenSeeds is how many generated kernels join P1–P10 and the
// Figure 2 kernel as enumeration inputs.
const orderProgenSeeds = 50

type orderInput struct {
	name, kernel string
	unit         *cast.Unit
}

func orderInputs(t *testing.T) []orderInput {
	t.Helper()
	var out []orderInput
	for _, s := range subjects.All() {
		out = append(out, orderInput{s.ID, s.Kernel, s.MustParse()})
	}
	out = append(out, orderInput{"fig2", "kernel", cparser.MustParse(treeKernel)})
	for seed := int64(1); seed <= orderProgenSeeds; seed++ {
		p, err := progen.Generate(progen.Options{Seed: seed, MaxViolations: 5})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, orderInput{fmt.Sprintf("progen%d", seed), p.Kernel, p.Unit})
	}
	return out
}

// chainOrder is the dependence-chain list repairStep tries for diags,
// deduplicated, with no class filter.
func chainOrder(u *cast.Unit, diags []hls.Diagnostic, st *State) []Candidate {
	return dependenceChains(u, diags, st, nil).drain()
}

// renderOrder writes every enumeration of one input: step 0 on the
// parsed program, step 1 on the first chain candidate with its edits
// accepted into the state, the way the search moves on. Building a
// candidate must leave the program it was cloned from untouched, branch
// numbers included: candidates share that program's declarations.
func renderOrder(t *testing.T, sb *strings.Builder, in orderInput) {
	t.Helper()
	cfg := hls.DefaultConfig(in.kernel)
	u, st := in.unit, NewState()
	for step := 0; step < 2; step++ {
		before := programState(u)
		diags := check.Run(u, cfg).Diags
		chains := chainOrder(u, diags, st)
		lists := []struct {
			name  string
			cands []Candidate
		}{
			{"chain", chains},
			{"fallback", RandomCandidates(u, diags, st)},
			{"perf", PerfCandidates(u, st)},
		}
		for _, l := range lists {
			for i, c := range l.cands {
				fmt.Fprintf(sb, "%s s%d %s %d %s %s\n", in.name, step, l.name, i,
					cast.FingerprintUnit(c.Unit)[:16], c.Describe())
			}
		}
		if programState(u) != before {
			t.Errorf("%s step %d: building the candidates edited the program they were cloned from", in.name, step)
		}
		if len(chains) == 0 {
			return
		}
		for _, e := range chains[0].Edits {
			st.MarkApplied(e)
			if e.OnAccept != nil {
				e.OnAccept(st)
			}
		}
		u = chains[0].Unit
	}
}

// registerChainTail adds a template that extends every insert ->
// pointer chain by a third edit, in two variants of which the second
// never applies: the built-in registry has no chain longer than two.
func registerChainTail(t *testing.T) {
	t.Helper()
	err := RegisterTemplate(Template{
		ID:       "order_tail",
		Class:    hls.ClassDynamicData,
		Requires: []string{"pointer"},
		Instantiate: func(u *cast.Unit, d hls.Diagnostic, st *State) []Edit {
			var out []Edit
			for _, note := range []string{"applies", "fails"} {
				out = append(out, Edit{
					Template: "order_tail", Class: hls.ClassDynamicData,
					Target: d.Subject, Note: note,
					Apply: func(u *cast.Unit) error {
						if note == "fails" {
							return fmt.Errorf("order_tail: refused")
						}
						u.Decls = append(u.Decls, &cast.PragmaDecl{Text: "HLS order_tail " + d.Subject})
						return nil
					},
				})
			}
			return out
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// programState renders what a candidate build could disturb in a
// shared program: its printed text and every branch number.
func programState(u *cast.Unit) string {
	var sb strings.Builder
	sb.WriteString(cast.Print(u))
	fmt.Fprintf(&sb, "branches=%d:", u.NumBranches)
	cast.Inspect(u, func(n cast.Node) bool {
		if f := reflect.Indirect(reflect.ValueOf(n)).FieldByName("BranchID"); f.IsValid() {
			fmt.Fprintf(&sb, " %d", f.Int())
		}
		return true
	})
	return sb.String()
}

// TestEnumerationOrderGolden: the candidates every step enumerates, and
// the programs they build, match the recorded order position by
// position. The last section repeats the inputs that reach an insert
// -> pointer chain with a third chain level registered.
func TestEnumerationOrderGolden(t *testing.T) {
	var sb strings.Builder
	inputs := orderInputs(t)
	for _, in := range inputs {
		renderOrder(t, &sb, in)
	}
	defer ResetExtensions()
	registerChainTail(t)
	for _, in := range inputs {
		if in.name == "fig2" || in.name == "P5" || in.name == "P8" || in.name == "P9" {
			in.name += "+tail"
			renderOrder(t, &sb, in)
		}
	}
	got := sb.String()
	if *update {
		if err := os.WriteFile(orderGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(orderGoldenPath)
	if err != nil {
		t.Fatalf("%v (run `make golden` to record fixtures)", err)
	}
	assertTracesIdentical(t, "enumeration order vs "+orderGoldenPath, want, []byte(got))
}

// TestSearchBuildsOnlyTriedCandidates: the sequential search builds a
// candidate (clones the program and applies its edit) only when it
// reaches it. A step that accepts its first buildable candidate applies
// the edits before it that fail, then that one, and none behind it.
func TestSearchBuildsOnlyTriedCandidates(t *testing.T) {
	defer ResetExtensions()
	const class = hls.ErrorClass(100)
	RegisterClassifier(func(msg string) hls.ErrorClass {
		if strings.Contains(msg, "configuration names") {
			return class
		}
		return hls.ClassNone
	})
	const variants, refused = 5, 2
	applies := 0
	err := RegisterTemplate(Template{
		ID:    "top_drop",
		Class: class,
		Instantiate: func(u *cast.Unit, d hls.Diagnostic, st *State) []Edit {
			var out []Edit
			for i := 0; i < variants; i++ {
				out = append(out, Edit{
					Template: "top_drop", Class: class, Target: d.Subject, Note: fmt.Sprint(i),
					Apply: func(u *cast.Unit) error {
						applies++
						if i < refused {
							return fmt.Errorf("top_drop: variant %d refused", i)
						}
						u.Func("kernel").Pragmas = nil
						return nil
					},
				})
			}
			return out
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const src = `
#pragma HLS top name=wrong
int kernel(int x) { return x + 1; }
`
	res := search(context.Background(), cparser.MustParse(src), cparser.MustParse(src), "kernel",
		[]fuzz.TestCase{intTC(3), intTC(7)}, searchOpts{Options: Options{WithoutPerfExploration: true}})
	if !res.Compatible || !res.BehaviorOK || res.Stats.CandidatesTried != 1 {
		t.Fatalf("want the first buildable candidate accepted: %s", res.Summary())
	}
	if want := res.Stats.CandidatesTried + refused; applies != want {
		t.Errorf("built %d candidates, want %d: the %d tried and the %d refused before it",
			applies, want, res.Stats.CandidatesTried, refused)
	}
}
