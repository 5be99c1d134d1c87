package interp_test

// Differential-testing belt for the compiled fast path: every generated
// program runs twice — once on the tree walker, once with Options.Code
// set — and the two executions must agree on everything observable:
// return value (exact bits), mutated argument arrays (exact bits), cost,
// raw step count, printed output, coverage bitmap, value-range profiles,
// error message text and position, and step-budget classification. The
// sweep covers clean and fault-injected progen programs, CPU and FPGA
// modes, and a tight step budget that forces mid-execution cutoffs.
//
// By default the belt runs a 200-seed slice (fast enough for `make
// check`); setting INTERP_DIFF=1 widens it to the full 2000-seed sweep
// used by the `interp-diff-smoke` CI job.

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/interp"
	"github.com/hetero/heterogen/internal/progen"
)

const diffDefaultSeeds = 200
const diffFullSeeds = 2000

func diffSeedCount() int {
	if os.Getenv("INTERP_DIFF") != "" {
		return diffFullSeeds
	}
	return diffDefaultSeeds
}

// diffCase fills a kernel's argument prototypes deterministically from
// the seed. Float payloads include NaN and both infinities so the belt
// exercises interp.Equal's non-finite identity rules and the walkers'
// NaN propagation; integer payloads are wrapped to their declared width.
func diffCase(sp fuzz.Spec, seed int64) fuzz.TestCase {
	rng := rand.New(rand.NewSource(seed*2654435761 + 97))
	tc := fuzz.TestCase{Args: make([]fuzz.Arg, len(sp.Params))}
	for i, p := range sp.Params {
		a := p.Clone()
		if a.IsFloat {
			for j := range a.Floats {
				switch rng.Intn(12) {
				case 0:
					a.Floats[j] = math.NaN()
				case 1:
					a.Floats[j] = math.Inf(1)
				case 2:
					a.Floats[j] = math.Inf(-1)
				case 3:
					a.Floats[j] = 0
				default:
					a.Floats[j] = rng.NormFloat64() * 100
				}
			}
		} else {
			for j := range a.Ints {
				v := rng.Int63n(1 << 16)
				if rng.Intn(2) == 0 {
					v = -v
				}
				a.Ints[j] = interp.WrapInt(v, a.Width, a.Unsigned)
			}
		}
		tc.Args[i] = a
	}
	return tc
}

func diffValueBits(v interp.Value) string {
	switch v.Kind {
	case interp.VInt:
		return fmt.Sprintf("i%d/w%d/u%v", v.Int, v.Width, v.Unsigned)
	case interp.VFloat:
		return fmt.Sprintf("f%016x/syn%v", math.Float64bits(v.Float), v.FloatSyn)
	case interp.VPtr:
		if v.Obj == nil {
			return "nullptr"
		}
		return fmt.Sprintf("ptr+%d", v.Off)
	case interp.VStruct:
		parts := make([]string, len(v.Fields))
		for i, f := range v.Fields {
			parts[i] = diffValueBits(f)
		}
		return "struct{" + strings.Join(parts, ",") + "}"
	case interp.VVoid:
		return "void"
	}
	return "?" + v.String()
}

// diffOutcome renders one execution as a canonical string so that a
// divergence shows up as a plain text diff in the failure message.
func diffOutcome(u *cast.Unit, kernel string, vals []interp.Value, opts interp.Options) string {
	in, err := interp.New(u, opts)
	if err != nil {
		return "new-error: " + err.Error()
	}
	res, err := in.CallKernel(kernel, vals)
	var sb strings.Builder
	if err != nil {
		// A failed call's Result is zero; the interpreter still holds
		// the cost and output accumulated up to the fault.
		fmt.Fprintf(&sb, "err=%q budget=%v cost=%d output=%q\n", err.Error(), interp.IsBudget(err), in.Cost(), in.Output())
	}
	fmt.Fprintf(&sb, "ret=%s cost=%d steps=%d\n", diffValueBits(res.Ret), res.Cost, res.Steps)
	fmt.Fprintf(&sb, "output=%q\n", res.Output)
	for i, v := range vals {
		if v.Kind == interp.VPtr && v.Obj != nil {
			fmt.Fprintf(&sb, "arg%d=", i)
			for _, e := range v.Obj.Elems {
				sb.WriteString(diffValueBits(e))
				sb.WriteByte(' ')
			}
			sb.WriteByte('\n')
		} else {
			fmt.Fprintf(&sb, "arg%d=%s\n", i, diffValueBits(v))
		}
	}
	sb.WriteString("cov=")
	for _, b := range in.CoverageBits {
		if b {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	sb.WriteByte('\n')
	keys := make([]string, 0, len(in.Profiles))
	for k := range in.Profiles {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		r := in.Profiles[k]
		fmt.Fprintf(&sb, "profile %s=[%d,%d,%v]\n", k, r.Min, r.Max, r.Seen)
	}
	return sb.String()
}

// TestDiffVMAgainstTree is the belt itself: tree walker vs compiled code
// over generated programs, in both modes, with and without a starved
// step budget, requiring byte-identical outcomes.
func TestDiffVMAgainstTree(t *testing.T) {
	n := diffSeedCount()
	code := interp.NewCodebase()
	divergences := 0
	for seed := 0; seed < n; seed++ {
		prog, err := progen.Generate(progen.Options{Seed: int64(seed), Clean: seed%2 == 0})
		if err != nil {
			t.Fatalf("seed %d: progen: %v", seed, err)
		}
		sp, err := fuzz.SpecOf(prog.Unit, prog.Kernel)
		if err != nil {
			t.Fatalf("seed %d: spec: %v", seed, err)
		}
		tc := diffCase(sp, int64(seed))
		for _, mode := range []interp.Mode{interp.CPU, interp.FPGA} {
			for _, maxSteps := range []int64{0, 2500} {
				opts := interp.Options{Mode: mode, Coverage: true, Profile: true, MaxSteps: maxSteps}
				want := diffOutcome(prog.Unit, prog.Kernel, tc.Values(), opts)
				opts.Code = code
				got := diffOutcome(prog.Unit, prog.Kernel, tc.Values(), opts)
				if want != got {
					divergences++
					t.Errorf("seed %d mode=%v maxSteps=%d clean=%v diverged:\n--- tree ---\n%s--- compiled ---\n%s",
						seed, mode, maxSteps, seed%2 == 0, want, got)
					if divergences >= 10 {
						t.Fatalf("stopping after %d divergences", divergences)
					}
				}
			}
		}
	}
	if code.Size() == 0 {
		t.Fatal("compiled-code cache is empty: the fast path never engaged")
	}
	t.Logf("diff belt: %d seeds, %d compiled functions (%d fallbacks), %d divergences",
		n, code.Size(), code.Fallbacks(), divergences)
}

// TestDiffEqualVerdicts pins the paper's differential-comparison rule on
// the two paths: when both executions of the same program succeed, their
// return values must satisfy interp.Equal under the differential-testing
// tolerance — including the NaN==NaN and same-signed-infinity identity
// cases that exact bit equality already implies.
func TestDiffEqualVerdicts(t *testing.T) {
	code := interp.NewCodebase()
	for seed := 0; seed < 64; seed++ {
		prog := progen.MustGenerate(progen.Options{Seed: int64(seed), Clean: true})
		sp, err := fuzz.SpecOf(prog.Unit, prog.Kernel)
		if err != nil {
			t.Fatalf("seed %d: spec: %v", seed, err)
		}
		tc := diffCase(sp, int64(seed)+7777)
		treeIn, err := interp.New(prog.Unit, interp.Options{})
		if err != nil {
			t.Fatalf("seed %d: new: %v", seed, err)
		}
		vmIn, err := interp.New(prog.Unit, interp.Options{Code: code})
		if err != nil {
			t.Fatalf("seed %d: new vm: %v", seed, err)
		}
		treeRes, treeErr := treeIn.CallKernel(prog.Kernel, tc.Values())
		vmRes, vmErr := vmIn.CallKernel(prog.Kernel, tc.Values())
		if (treeErr == nil) != (vmErr == nil) {
			t.Fatalf("seed %d: error parity: tree=%v vm=%v", seed, treeErr, vmErr)
		}
		if treeErr != nil {
			if treeErr.Error() != vmErr.Error() {
				t.Fatalf("seed %d: error text: tree=%q vm=%q", seed, treeErr, vmErr)
			}
			continue
		}
		if !interp.Equal(treeRes.Ret, vmRes.Ret, 1e-6) {
			t.Fatalf("seed %d: Equal verdict false: tree=%s vm=%s", seed, treeRes.Ret, vmRes.Ret)
		}
	}
}
