package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain lets a test re-run this binary as the heterogen command: with
// HETEROGEN_RUN_MAIN set, the test binary executes main instead of the
// tests, so exit paths (os.Exit skips deferred calls) are exercised for
// real.
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
