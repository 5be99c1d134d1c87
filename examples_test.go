package heterogen

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var updateExamples = flag.Bool("update", false, "rewrite testdata/examples from the current examples instead of comparing")

// TestExamplesOutput builds every program under examples/ and compares
// its standard output with the record in testdata/examples/<name>.txt,
// byte for byte. Every example is deterministic, so a moved byte means
// the public API behaves differently. Regenerate with `make golden`
// only for an intended behaviour change.
func TestExamplesOutput(t *testing.T) {
	mains, _ := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if len(mains) == 0 {
		t.Fatal("no examples/*/main.go files found")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, main := range mains {
		name := filepath.Base(filepath.Dir(main))
		t.Run(name, func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("%v\n%s", err, stderr.Bytes())
			}
			path := filepath.Join("testdata", "examples", name+".txt")
			if *updateExamples {
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
				t.Errorf("%s: output differs from the record:\n--- recorded ---\n%s\n--- got ---\n%s", path, want, got)
			}
		})
	}
}
