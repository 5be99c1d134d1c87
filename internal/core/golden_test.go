package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/difftest"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/hls/sim"
	"github.com/hetero/heterogen/internal/interp"
	"github.com/hetero/heterogen/internal/repair"
	"github.com/hetero/heterogen/internal/subjects"
)

// The golden fixtures under testdata/golden are the recorded end-to-end
// outputs of the pipeline: one JSON per evaluation subject and one for
// the paper's Figure 2 tree kernel, each a full Run at the repository
// benchmark's transpile_suite budget (fuzz seed 1, 24 executions,
// plateau 90, one repair worker, no cache). They hold everything Result
// reports except CacheStats and the AST pointers: the final source, the
// campaign (every test by summary and payload digest), the profile, the
// repair outcome with its virtual clock, the verdicts, the LOC delta,
// the runtimes, the resource estimate and the Markdown report. A change
// that moves any byte of any fixture changes what the pipeline hands
// back. Regenerate with `make golden` (go test -update) only for an
// intended behaviour change, and review the fixture diff like code.

var update = flag.Bool("update", false, "rewrite testdata/golden from the current pipeline instead of comparing")

// figure2Kernel is the paper's Figure 2 working example: a dynamic tree
// built with malloc and pointer links, summed by a recursive traversal.
const figure2Kernel = `
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

type goldenRun struct {
	id, kernel, hostMain, src string
}

func goldenRuns() []goldenRun {
	var out []goldenRun
	for _, s := range subjects.All() {
		out = append(out, goldenRun{id: s.ID, kernel: s.Kernel, hostMain: s.HostMain, src: s.Source})
	}
	return append(out, goldenRun{id: "fig2", kernel: "kernel", src: figure2Kernel})
}

// goldenOptions is the transpile_suite budget.
func goldenOptions(r goldenRun) Options {
	fo := fuzz.DefaultOptions()
	fo.Seed, fo.MaxExecs, fo.Plateau = 1, 24, 90
	ro := repair.DefaultOptions()
	ro.Workers = 1
	return Options{Kernel: r.kernel, HostMain: r.hostMain, Fuzz: fo, Repair: ro}
}

type goldenTest struct {
	Summary string `json:"summary"`
	SHA256  string `json:"sha256"`
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
	Retyped []string                 `json:"retyped"`
	Ranges  map[string]*interp.Range `json:"ranges"`
}

type goldenRepair struct {
	Unit       string                 `json:"unit"`
	Compatible bool                   `json:"compatible"`
	BehaviorOK bool                   `json:"behavior_ok"`
	Improved   bool                   `json:"improved"`
	Stats      repair.Stats           `json:"stats"`
	Report     difftest.Report        `json:"report"`
	Remaining  []hls.Diagnostic       `json:"remaining"`
	PerTarget  []repair.TargetVerdict `json:"per_target"`
	Pareto     []repair.ParetoPoint   `json:"pareto"`
}

type goldenResult struct {
	Subject    string         `json:"subject"`
	Kernel     string         `json:"kernel"`
	Source     string         `json:"source"`
	Campaign   goldenCampaign `json:"campaign"`
	Profiled   goldenProfile  `json:"profiled"`
	Repair     goldenRepair   `json:"repair"`
	Compatible bool           `json:"compatible"`
	BehaviorOK bool           `json:"behavior_ok"`
	Improved   bool           `json:"improved"`
	DeltaLOC   int            `json:"delta_loc"`
	CPUMeanMS  float64        `json:"cpu_mean_ms"`
	FPGAMeanMS float64        `json:"fpga_mean_ms"`
	Resources  sim.Resources  `json:"resources"`
	Markdown   string         `json:"markdown"`
}

func goldenJSON(t *testing.T, r goldenRun, res Result) []byte {
	t.Helper()
	c := res.Campaign
	rec := goldenResult{
		Subject: r.id, Kernel: r.kernel, Source: res.Source,
		Campaign: goldenCampaign{
			Coverage: c.Coverage, CoveredOutcomes: c.CoveredOutcomes, TotalOutcomes: c.TotalOutcomes,
			Execs: c.Execs, VirtualSeconds: c.VirtualSeconds, SeededFromHost: c.SeededFromHost,
			Plateaued: c.Plateaued, StageFailures: c.StageFailures,
		},
		Profiled: goldenProfile{Retyped: res.Profiled.Retyped, Ranges: res.Profiled.Ranges},
		Repair: goldenRepair{
			Unit: cast.Print(res.Repair.Unit), Compatible: res.Repair.Compatible,
			BehaviorOK: res.Repair.BehaviorOK, Improved: res.Repair.Improved,
			Stats: res.Repair.Stats, Report: res.Repair.Report, Remaining: res.Repair.Remaining,
			PerTarget: res.Repair.PerTarget, Pareto: res.Repair.Pareto,
		},
		Compatible: res.Compatible, BehaviorOK: res.BehaviorOK, Improved: res.Improved,
		DeltaLOC: res.DeltaLOC, CPUMeanMS: res.CPUMeanMS, FPGAMeanMS: res.FPGAMeanMS,
		Resources: res.Resources, Markdown: res.Markdown(r.kernel),
	}
	for _, tc := range c.Tests {
		sum := sha256.Sum256([]byte(fuzz.CorpusFingerprint([]fuzz.TestCase{tc})))
		rec.Campaign.Tests = append(rec.Campaign.Tests, goldenTest{Summary: tc.String(), SHA256: hex.EncodeToString(sum[:])})
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestPipelineGolden runs the pipeline end to end on every subject and
// the Figure 2 kernel and compares each Result with its fixture, byte
// for byte.
func TestPipelineGolden(t *testing.T) {
	for _, r := range goldenRuns() {
		t.Run(r.id, func(t *testing.T) {
			res, err := Run(r.src, goldenOptions(r))
			if err != nil {
				t.Fatal(err)
			}
			got := goldenJSON(t, r, res)
			path := filepath.Join("testdata", "golden", r.id+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `make golden` to record fixtures)", err)
			}
			if !bytes.Equal(want, got) {
				t.Errorf("%s: result differs from the fixture:\n--- recorded ---\n%s\n--- got ---\n%s", path, want, got)
			}
		})
	}
}
