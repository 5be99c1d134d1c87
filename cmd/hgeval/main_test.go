package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the hgeval golden files")

// goldenDir holds the recorded hgeval outputs.
const goldenDir = "testdata/golden"

// TestMain lets a test re-run this binary as the hgeval command: with
// HGEVAL_RUN_MAIN set, the test binary executes main instead of the
// tests, so the output is that of the real command.
func TestMain(m *testing.M) {
	if os.Getenv("HGEVAL_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestEvalGolden runs the evaluation harness at its CI size and compares
// each run's exit status, stdout and stderr (and -trace file, where
// taken) with the goldens in testdata/golden: the whole quick
// evaluation (Figure 3, Tables 3–5, the §6 summary, Figure 9 and the
// extra ablations), one subject through every table and figure (and
// the extra ablations, which ignore -subject), and one subject's
// Table 3 against a named two-target set. Every number is independent of
// -workers and of scheduling, so the outputs are byte-deterministic.
func TestEvalGolden(t *testing.T) {
	for _, c := range []struct {
		name  string
		trace bool
		args  []string
	}{
		{"quick", false, []string{"-quick"}},
		{"p3", true, []string{"-quick", "-subject", "P3"}},
		{"p3_table3_targets", true, []string{"-quick", "-subject", "P3", "-table3",
			"-target", "vivado_hls:zc706", "-target", "vitis:aws_f1"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			args := c.args
			trace := filepath.Join(t.TempDir(), "t.jsonl")
			if c.trace {
				args = append([]string{"-trace", trace}, args...)
			}
			exe, err := os.Executable()
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(exe, args...)
			cmd.Env = append(os.Environ(), "HGEVAL_RUN_MAIN=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			code := 0
			if err := cmd.Run(); err != nil {
				ee, ok := err.(*exec.ExitError)
				if !ok {
					t.Fatal(err)
				}
				code = ee.ExitCode()
			}
			got := fmt.Sprintf("exit %d\n-- stdout --\n%s-- stderr --\n%s", code, stdout.Bytes(), stderr.Bytes())
			checkGolden(t, c.name+".golden", []byte(got))
			if c.trace {
				b, err := os.ReadFile(trace)
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, c.name+".trace.jsonl", b)
			}
		})
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join(goldenDir, name)
	if *update {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden (run with -update to rewrite):\n--- got ---\n%s", name, got)
	}
}
