package interp_test

// Outcome belt for the interpreter: every generated program's execution
// must reproduce its recorded outcome in everything observable: return
// value (exact bits), mutated argument arrays (exact bits), cost, raw
// step count, printed output, coverage bitmap, value-range profiles,
// error message text and position, and step-budget classification. The
// sweep covers clean and fault-injected progen programs, CPU and FPGA
// modes, and a tight step budget that forces mid-execution cutoffs.
//
// testdata/golden/belt.txt holds one sha256 of the canonical outcome
// string per seed, mode and budget. The hashes were recorded from the
// tree-walking interpreter the compiled one replaced, so they pin the
// semantics both implemented. `go test -update` rewrites the file; only
// an intended behaviour change may, and its diff gets reviewed.
//
// By default the belt runs a 200-seed slice (fast enough for `make
// check`); setting INTERP_DIFF=1 widens it to the full 2000-seed sweep
// used by the `interp-diff-smoke` CI job.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/interp"
	"github.com/hetero/heterogen/internal/progen"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current interpreter instead of comparing")

const diffDefaultSeeds = 200
const diffFullSeeds = 2000

// beltRuns are the executions recorded per belt seed, in belt.txt's
// column order.
var beltRuns = []struct {
	mode     interp.Mode
	maxSteps int64
}{{interp.CPU, 0}, {interp.CPU, 2500}, {interp.FPGA, 0}, {interp.FPGA, 2500}}

func beltOptions(mode interp.Mode, maxSteps int64) interp.Options {
	return interp.Options{Mode: mode, Coverage: true, Profile: true, MaxSteps: maxSteps}
}

const beltPath = "testdata/golden/belt.txt"

func outcomeHash(outcome string) string {
	sum := sha256.Sum256([]byte(outcome))
	return hex.EncodeToString(sum[:])
}

// readBelt loads belt.txt: one line per seed, the seed followed by one
// outcome hash per beltRuns entry.
func readBelt(t *testing.T) [][]string {
	t.Helper()
	f, err := os.Open(beltPath)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -update)", err)
	}
	defer f.Close()
	var rows [][]string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 1+len(beltRuns) || fields[0] != strconv.Itoa(len(rows)) {
			t.Fatalf("%s:%d: malformed line %q", beltPath, len(rows)+1, sc.Text())
		}
		rows = append(rows, fields[1:])
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

func writeBelt(t *testing.T, rows [][]string) {
	t.Helper()
	var sb strings.Builder
	for seed, row := range rows {
		fmt.Fprintf(&sb, "%d %s\n", seed, strings.Join(row, " "))
	}
	writeGolden(t, beltPath, sb.String())
}

func writeGolden(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// beltProgram generates belt seed's program and test case.
func beltProgram(t *testing.T, seed int) (progen.Program, fuzz.TestCase) {
	t.Helper()
	prog, err := progen.Generate(progen.Options{Seed: int64(seed), Clean: seed%2 == 0})
	if err != nil {
		t.Fatalf("seed %d: progen: %v", seed, err)
	}
	sp, err := fuzz.SpecOf(prog.Unit, prog.Kernel)
	if err != nil {
		t.Fatalf("seed %d: spec: %v", seed, err)
	}
	return prog, diffCase(sp, int64(seed))
}

func diffSeedCount() int {
	if os.Getenv("INTERP_DIFF") != "" {
		return diffFullSeeds
	}
	return diffDefaultSeeds
}

// diffCase fills a kernel's argument prototypes deterministically from
// the seed. Float payloads include NaN and both infinities so the belt
// exercises interp.Equal's non-finite identity rules and the interpreter's
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
		return "new-error: " + err.Error() + "\n"
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

// TestDiffVMAgainstTree is the belt itself: compiled execution of
// generated programs, in both modes, with and without a starved step
// budget, against the tree walker's recorded outcome hashes.
func TestDiffVMAgainstTree(t *testing.T) {
	n := diffSeedCount()
	var want [][]string
	if *update {
		n = diffFullSeeds
	} else if want = readBelt(t); len(want) < n {
		t.Fatalf("%s records %d seeds, want %d", beltPath, len(want), n)
	}
	rows := make([][]string, n)
	code := interp.NewCodebase()
	divergences := 0
	for seed := 0; seed < n; seed++ {
		prog, tc := beltProgram(t, seed)
		rows[seed] = make([]string, len(beltRuns))
		for i, r := range beltRuns {
			opts := beltOptions(r.mode, r.maxSteps)
			opts.Code = code
			got := diffOutcome(prog.Unit, prog.Kernel, tc.Values(), opts)
			rows[seed][i] = outcomeHash(got)
			if want != nil && rows[seed][i] != want[seed][i] {
				t.Errorf("seed %d %s maxSteps=%d clean=%v: outcome no longer hashes to the recorded %s:\n%s",
					seed, modeName(r.mode), r.maxSteps, seed%2 == 0, want[seed][i], got)
				if divergences++; divergences >= 10 {
					t.Fatalf("stopping after %d divergences", divergences)
				}
			}
		}
	}
	if *update {
		writeBelt(t, rows)
	}
	if code.Size() == 0 {
		t.Fatal("compiled-code cache is empty: the fast path never engaged")
	}
	t.Logf("diff belt: %d seeds, %d compiled functions, %d divergences", n, code.Size(), divergences)
}

// outcomeGolden is a file of recorded full outcome strings under
// testdata/golden: each record is a "=== <key>" line followed by the
// outcome text. check compares against the record; under -update the
// file is rewritten from the outcomes checked, in check order, when the
// test finishes.
type outcomeGolden struct {
	path string
	want map[string]string
	keys []string
	got  map[string]string
}

func loadOutcomes(t *testing.T, name string) *outcomeGolden {
	t.Helper()
	g := &outcomeGolden{path: filepath.Join("testdata", "golden", name), want: map[string]string{}, got: map[string]string{}}
	if *update {
		t.Cleanup(func() {
			var sb strings.Builder
			for _, k := range g.keys {
				fmt.Fprintf(&sb, "=== %s\n%s", k, g.got[k])
			}
			writeGolden(t, g.path, sb.String())
		})
		return g
	}
	data, err := os.ReadFile(g.path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -update)", err)
	}
	key := ""
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if k, ok := strings.CutPrefix(line, "=== "); ok {
			key = strings.TrimSuffix(k, "\n")
			g.want[key] = ""
			continue
		}
		g.want[key] += line
	}
	return g
}

func (g *outcomeGolden) check(t *testing.T, key, got string) {
	t.Helper()
	if _, dup := g.got[key]; dup {
		t.Fatalf("duplicate outcome key %q", key)
	}
	g.keys = append(g.keys, key)
	g.got[key] = got
	if *update {
		return
	}
	want, ok := g.want[key]
	if !ok {
		t.Errorf("%s: no recorded outcome for %q (regenerate with go test -update)", g.path, key)
	} else if got != want {
		t.Errorf("%s: outcome differs from the record:\n--- recorded ---\n%s--- got ---\n%s", key, want, got)
	}
}

func modeName(m interp.Mode) string {
	if m == interp.FPGA {
		return "FPGA"
	}
	return "CPU"
}
