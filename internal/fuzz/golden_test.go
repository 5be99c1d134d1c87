package fuzz_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/interp"
	"github.com/hetero/heterogen/internal/obs"
	"github.com/hetero/heterogen/internal/profile"
	"github.com/hetero/heterogen/internal/subjects"
)

// The golden fixtures under testdata/golden are the recorded reference
// outputs of test generation and bitwidth profiling: one JSON per
// evaluation subject holding its fuzz campaign (every retained test,
// the coverage counts, the execution count and the plateau flag), its
// JSONL event trace, and profile.Generate's rewrites and value ranges
// over the campaign's tests. The budget is the repository benchmark's
// transpile_suite budget. A change that moves any byte of any fixture
// changes what the pipeline feeds the repair search. Regenerate with
// `make golden` (go test -update) only for an intended behaviour
// change, and review the fixture diff like code.

var update = flag.Bool("update", false, "rewrite testdata/golden from the current campaigns instead of comparing")

// goldenOptions is the transpile_suite fuzz budget.
func goldenOptions(s subjects.Subject, workers int) fuzz.Options {
	opts := fuzz.DefaultOptions()
	opts.Seed, opts.MaxExecs, opts.Plateau = 1, 24, 90
	opts.HostMain = s.HostMain
	opts.Workers = workers
	return opts
}

// goldenTest records one test case: its diagnostic summary and a digest
// of its exact payload (array payloads run to thousands of elements).
type goldenTest struct {
	Summary string `json:"summary"`
	SHA256  string `json:"sha256"`
}

func recordTest(tc fuzz.TestCase) goldenTest {
	h := sha256.New()
	for _, a := range tc.Args {
		elem := "" // scalars carry no element type
		if a.Elem != nil {
			elem = a.Elem.C("")
		}
		fmt.Fprintf(h, "%s|%v|%v|%d|%v|%d|%d\n", elem, a.IsFloat, a.Scalar,
			a.Width, a.Unsigned, len(a.Ints), len(a.Floats))
		for _, v := range a.Ints {
			fmt.Fprintf(h, "%d,", v)
		}
		for _, f := range a.Floats {
			fmt.Fprintf(h, "%x,", math.Float64bits(f))
		}
		h.Write([]byte{'\n'})
	}
	return goldenTest{Summary: tc.String(), SHA256: hex.EncodeToString(h.Sum(nil))}
}

type goldenCampaign struct {
	Tests           []goldenTest `json:"tests"`
	Coverage        float64      `json:"coverage"`
	CoveredOutcomes int          `json:"covered_outcomes"`
	TotalOutcomes   int          `json:"total_outcomes"`
	Execs           int          `json:"execs"`
	VirtualSeconds  float64      `json:"virtual_seconds"`
	SeededFromHost  bool         `json:"seeded_from_host"`
	Plateaued       bool         `json:"plateaued"`
	StageFailures   int          `json:"stage_failures"`
}

type goldenProfile struct {
	Error   string                   `json:"error,omitempty"`
	Retyped []string                 `json:"retyped"`
	Ranges  map[string]*interp.Range `json:"ranges"`
}

type goldenRecord struct {
	Subject  string         `json:"subject"`
	Kernel   string         `json:"kernel"`
	Campaign goldenCampaign `json:"campaign"`
	Profile  goldenProfile  `json:"profile"`
}

// runGoldenCase runs the subject's campaign and profiling and returns
// the fixture JSON and the campaign's trace.
func runGoldenCase(t *testing.T, s subjects.Subject, workers int) ([]byte, []byte) {
	t.Helper()
	u := s.MustParse()
	var trace bytes.Buffer
	tw := obs.NewTraceWriter(&trace)
	opts := goldenOptions(s, workers)
	opts.Obs = tw
	camp, err := fuzz.Run(u, s.Kernel, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	rec := goldenRecord{Subject: s.ID, Kernel: s.Kernel, Campaign: goldenCampaign{
		Coverage:        camp.Coverage,
		CoveredOutcomes: camp.CoveredOutcomes,
		TotalOutcomes:   camp.TotalOutcomes,
		Execs:           camp.Execs,
		VirtualSeconds:  camp.VirtualSeconds,
		SeededFromHost:  camp.SeededFromHost,
		Plateaued:       camp.Plateaued,
		StageFailures:   camp.StageFailures,
	}}
	for _, tc := range camp.Tests {
		rec.Campaign.Tests = append(rec.Campaign.Tests, recordTest(tc))
	}
	prof, err := profile.Generate(u, s.Kernel, camp.Tests)
	if err != nil {
		rec.Profile.Error = err.Error()
	} else {
		rec.Profile.Retyped, rec.Profile.Ranges = prof.Retyped, prof.Ranges
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false) // keep the retyped "int -> fpga_uint<8>" lines readable
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		t.Fatal(err)
	}
	return b.Bytes(), trace.Bytes()
}

func goldenPath(id, ext string) string {
	return filepath.Join("testdata", "golden", id+ext)
}

// assertGoldenFile compares got with the fixture byte for byte and
// names the first differing line.
func assertGoldenFile(t *testing.T, label, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (run `make golden` to record fixtures)", label, err)
	}
	if bytes.Equal(want, got) {
		return
	}
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) {
			t.Fatalf("%s differs from %s at line %d:\nwant: %s\ngot:  %s", label, path, i+1, w, g)
		}
	}
}

// TestCampaignGolden pins test generation and bitwidth profiling to the
// recorded goldens: for every evaluation subject, the sequential and
// the pooled (Workers=4) campaign reproduce the fixture — retained
// tests, coverage, execution count, plateau flag, profile rewrites and
// ranges — and its JSONL trace byte for byte. With -update the
// sequential run rewrites the fixtures.
func TestCampaignGolden(t *testing.T) {
	for _, s := range subjects.All() {
		t.Run(s.ID, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				got, trace := runGoldenCase(t, s, workers)
				if *update && workers == 1 {
					if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(goldenPath(s.ID, ".json"), got, 0o644); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(goldenPath(s.ID, ".jsonl"), trace, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				label := fmt.Sprintf("workers=%d", workers)
				assertGoldenFile(t, label+" campaign", goldenPath(s.ID, ".json"), got)
				assertGoldenFile(t, label+" trace", goldenPath(s.ID, ".jsonl"), trace)
			}
		})
	}
}
