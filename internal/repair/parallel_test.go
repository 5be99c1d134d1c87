package repair

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/cparser"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/obs"
	"github.com/hetero/heterogen/internal/subjects"
)

// tracedSearch runs SearchContext with a JSONL trace writer attached and
// returns the result plus the raw trace bytes.
func tracedSearch(orig, initial *cast.Unit, kernel string, tests []fuzz.TestCase, opts Options) (Result, []byte) {
	var buf bytes.Buffer
	tw := obs.NewTraceWriter(&buf)
	opts.Obs = tw
	res := SearchContext(context.Background(), orig, initial, kernel, tests, opts)
	if err := tw.Flush(); err != nil {
		panic(err)
	}
	return res, buf.Bytes()
}

// assertTracesIdentical is the observability half of the Workers
// contract: events are emitted at commit time on the commit goroutine,
// so the JSONL trace must be byte-identical for any worker count. The
// golden checks use it for any recorded bytes, want being the
// reference.
func assertTracesIdentical(t *testing.T, name string, want, got []byte) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("%s: reference is empty", name)
	}
	if !bytes.Equal(want, got) {
		wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
		for i := 0; i < len(wl) && i < len(gl); i++ {
			if !bytes.Equal(wl[i], gl[i]) {
				t.Fatalf("%s: diverges at line %d:\n  want: %s\n  got:  %s",
					name, i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("%s: differs in length: %d vs %d lines", name, len(wl), len(gl))
	}
}

// subjectInputs returns the determinism-test inputs: real evaluation
// subjects with multiple error classes, driven by small deterministic
// fuzzing campaigns. The programs are parsed afresh on every call; the
// suites are read-only and memoized per subject, because the campaign
// is deterministic and costs far more than the searches that use it.
func subjectInputs(t *testing.T, id string) (orig, initial *cast.Unit, kernel string, tests []fuzz.TestCase) {
	t.Helper()
	s, err := subjects.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	orig = s.MustParse()
	suitesMu.Lock()
	defer suitesMu.Unlock()
	suite, ok := suites[id]
	if !ok {
		fopts := fuzz.DefaultOptions()
		fopts.MaxExecs = 150
		fopts.Plateau = 60
		camp, err := fuzz.RunContext(context.Background(), orig, s.Kernel, fopts)
		if err != nil {
			t.Fatal(err)
		}
		suite = camp.Tests
		if len(suite) > 8 {
			suite = suite[:8]
		}
		suites[id] = suite
	}
	return orig, s.MustParse(), s.Kernel, suite
}

var (
	suitesMu sync.Mutex
	suites   = map[string][]fuzz.TestCase{}
)

// assertIdentical compares two search results bit-for-bit: accepted
// edit sequence, final printed program, and the complete Stats struct
// (iterations, candidate counts, and the virtual clock down to the last
// float addition).
func assertIdentical(t *testing.T, name string, seq, par Result) {
	t.Helper()
	if !reflect.DeepEqual(seq.Stats.EditLog, par.Stats.EditLog) {
		t.Errorf("%s: accepted edits diverge:\n  seq: %v\n  par: %v", name, seq.Stats.EditLog, par.Stats.EditLog)
	}
	if sp, pp := cast.Print(seq.Unit), cast.Print(par.Unit); sp != pp {
		t.Errorf("%s: final programs differ:\n--- sequential ---\n%s\n--- parallel ---\n%s", name, sp, pp)
	}
	if seq.Stats.Iterations != par.Stats.Iterations {
		t.Errorf("%s: iterations %d (seq) vs %d (par)", name, seq.Stats.Iterations, par.Stats.Iterations)
	}
	if !reflect.DeepEqual(seq.Stats, par.Stats) {
		t.Errorf("%s: stats diverge:\n  seq: %+v\n  par: %+v", name, seq.Stats, par.Stats)
	}
	if seq.Compatible != par.Compatible || seq.BehaviorOK != par.BehaviorOK || seq.Improved != par.Improved {
		t.Errorf("%s: verdicts diverge: seq=%v/%v/%v par=%v/%v/%v", name,
			seq.Compatible, seq.BehaviorOK, seq.Improved,
			par.Compatible, par.BehaviorOK, par.Improved)
	}
}

// TestParallelSearchDeterminism runs the sequential and the Workers=4
// searches over every evaluation subject and asserts bit-identical
// outcomes — the contract documented on Options.Workers — and
// byte-identical JSONL traces.
func TestParallelSearchDeterminism(t *testing.T) {
	ids := []string{"P1", "P2", "P3", "P6"}
	if !testing.Short() {
		ids = []string{"P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10"}
	}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			orig, initial, kernel, tests := subjectInputs(t, id)
			opts := DefaultOptions()
			opts.Workers = 1
			seq, seqTrace := tracedSearch(orig, cast.CloneUnit(initial), kernel, tests, opts)
			opts.Workers = 4
			par, parTrace := tracedSearch(orig, cast.CloneUnit(initial), kernel, tests, opts)
			assertIdentical(t, id, seq, par)
			assertTracesIdentical(t, id, seqTrace, parTrace)
		})
	}
}

// TestParallelSearchDeterminismWithoutDependence exercises the random
// (WithoutDependence) mode, whose candidate picks come from the seeded
// rng: the pre-drawn pick stream must make Workers irrelevant there
// too.
func TestParallelSearchDeterminismWithoutDependence(t *testing.T) {
	orig := cparser.MustParse(treeKernel)
	opts := DefaultOptions()
	opts.UseDependence = false
	opts.Budget = 12 * 3600
	opts.MaxIterations = 96
	opts.Workers = 1
	seq := SearchContext(context.Background(), orig, cparser.MustParse(treeKernel), "kernel", treeTests(), opts)
	opts.Workers = 4
	par := SearchContext(context.Background(), orig, cparser.MustParse(treeKernel), "kernel", treeTests(), opts)
	assertIdentical(t, "tree/WithoutDependence", seq, par)
}

// TestParallelSearchDeterminismTightBudget stops the search mid-step by
// budget exhaustion, the trickiest commit path: the worker pool's
// speculative outcomes past the stop point must be discarded without a
// trace in the accounting.
func TestParallelSearchDeterminismTightBudget(t *testing.T) {
	orig := cparser.MustParse(treeKernel)
	for _, budget := range []hls.VirtualCost{120, 400, 900} {
		opts := DefaultOptions()
		opts.Budget = budget
		opts.Workers = 1
		seq, seqTrace := tracedSearch(orig, cparser.MustParse(treeKernel), "kernel", treeTests(), opts)
		opts.Workers = 4
		par, parTrace := tracedSearch(orig, cparser.MustParse(treeKernel), "kernel", treeTests(), opts)
		assertIdentical(t, "tree/tight-budget", seq, par)
		assertTracesIdentical(t, "tree/tight-budget", seqTrace, parTrace)
	}
}

// TestParallelPoolContention drives the worker pool well past the CPU
// count and from several concurrent searches at once; run under
// `go test -race` (the Makefile's race target) this is the data-race
// proof for the shared-budget mutex and the outcome slices.
func TestParallelPoolContention(t *testing.T) {
	orig := cparser.MustParse(treeKernel)
	var wg sync.WaitGroup
	results := make([]Result, 3)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := DefaultOptions()
			opts.Workers = 8
			results[i] = SearchContext(context.Background(), orig, cparser.MustParse(treeKernel), "kernel", treeTests(), opts)
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if !r.Compatible || !r.BehaviorOK {
			t.Fatalf("search %d failed under contention: %v", i, r.Stats.EditLog)
		}
		assertIdentical(t, "contention", results[0], r)
	}
}
