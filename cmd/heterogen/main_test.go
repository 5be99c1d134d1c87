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

var update = flag.Bool("update", false, "rewrite the CLI golden files")

// goldenDir holds the CLI goldens and the C inputs they run on.
const goldenDir = "testdata/cli"

// TestMain lets a test re-run this binary as the heterogen command: with
// HETEROGEN_RUN_MAIN set, the test binary executes main instead of the
// tests, so exit paths (os.Exit skips deferred calls) and the output
// are those of the real command.
func TestMain(m *testing.M) {
	if os.Getenv("HETEROGEN_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const kernelSrc = `
int kernel(int n) {
    if (n < 0) { n = -n; }
    if (n > 16) { n = 16; }
    int *buf = (int *)malloc(16 * sizeof(int));
    int s = 0;
    for (int i = 0; i < n; i++) { buf[i] = i * 3; s = s + buf[i]; }
    free(buf);
    return s;
}
`

// TestErrorExitFlushesCache fails the run after the repair, on an
// unwritable -report path, and checks that the persistent cache still
// reached the disk: a failing run keeps its buffered entries and the
// stats sidecar.
func TestErrorExitFlushesCache(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "k.c")
	if err := os.WriteFile(src, []byte(kernelSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(dir, "cache")
	cmd := exec.Command(os.Args[0], "-kernel", "kernel", "-quick", "-cache-dir", cacheDir,
		"-out", filepath.Join(dir, "out.c"),
		"-report", filepath.Join(dir, "missing", "r.md"), src)
	cmd.Env = append(os.Environ(), "HETEROGEN_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("want exit status 1 from the unwritable -report, got %v\n%s", err, out)
	}
	if fi, err := os.Stat(filepath.Join(cacheDir, "entries.jsonl")); err != nil || fi.Size() == 0 {
		t.Errorf("entries.jsonl is missing or empty after an error exit (stat err %v)", err)
	}
	if _, err := os.Stat(filepath.Join(cacheDir, "stats.json")); err != nil {
		t.Errorf("stats.json after an error exit: %v", err)
	}
}

// TestCLIGolden runs the fuzz and check subcommands on recorded inputs
// (and the transpiler's usage, parse-error and unknown-kernel paths)
// and compares each run's exit status, stdout, stderr and -trace file
// with the goldens in testdata/cli. fig2_repaired.c is the output of
// `heterogen -kernel kernel -quick fig2.c`. dataflow6.c has one dataflow
// region with six over-consumed buffers: its transpile pins that the
// checker's diagnostic order, which the repair search follows, does not
// depend on map iteration.
func TestCLIGolden(t *testing.T) {
	for _, c := range []struct {
		name  string
		trace bool
		args  []string
	}{
		{"transpile_usage", false, []string{"p3.c"}},
		{"transpile_unparsable", false, []string{"-kernel", "f", "unparsable.c"}},
		{"transpile_unknown_kernel", false, []string{"-kernel", "nope", "p3.c"}},
		{"transpile_dataflow6", false, []string{"-kernel", "kernel", "-quick", "-workers", "1", "dataflow6.c"}},
		{"fuzz_p3", true, []string{"fuzz", "-kernel", "kernel", "p3.c"}},
		{"fuzz_fig2", false, []string{"fuzz", "-kernel", "kernel", "fig2.c"}},
		{"fuzz_fig2_seed7_execs0", false, []string{"fuzz", "-kernel", "kernel", "-execs", "0", "-seed", "7", "fig2.c"}},
		{"fuzz_usage", false, []string{"fuzz", "p3.c"}},
		{"fuzz_bad_target", false, []string{"fuzz", "-kernel", "kernel", "-target", "bogus", "p3.c"}},
		{"check_p3", false, []string{"check", "-kernel", "kernel", "p3.c"}},
		{"check_fig2_repaired", false, []string{"check", "-kernel", "kernel", "fig2_repaired.c"}},
		{"check_p3_targets", false, []string{"check", "-kernel", "kernel", "-target", "vivado_hls:xcvu9p", "-target", "vitis:aws_f1", "p3.c"}},
		{"check_usage", false, []string{"check", "p3.c"}},
		{"check_bad_target", false, []string{"check", "-kernel", "kernel", "-target", "bogus", "p3.c"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			args := c.args
			trace := filepath.Join(t.TempDir(), "t.jsonl")
			if c.trace {
				args = append([]string{args[0], "-trace", trace}, args[1:]...)
			}
			exe, err := os.Executable()
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(exe, args...)
			cmd.Dir = goldenDir
			cmd.Env = append(os.Environ(), "HETEROGEN_RUN_MAIN=1")
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
