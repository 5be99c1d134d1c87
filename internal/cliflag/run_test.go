package cliflag

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/hetero/heterogen/internal/obs"
)

// TestSessionCloseFlushes opens a traced, cached, targeted session the
// way a CLI does and checks that Close leaves the stamped trace and the
// cache's stats sidecar on disk, and that a second Close is a no-op.
func TestSessionCloseFlushes(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "run.jsonl")
	cacheDir := filepath.Join(dir, "cache")
	var run Run
	var g Guard
	var tf Target
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	run.Register(fs)
	g.Register(fs)
	tf.Register(fs)
	if err := fs.Parse([]string{"-trace", trace, "-cache-dir", cacheDir, "-target", "vitis:aws_f1"}); err != nil {
		t.Fatal(err)
	}
	targets, err := tf.Targets()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open("test", &run, &g, targets)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cache == nil || s.Guard != nil || s.metrics != nil {
		t.Fatalf("session = %+v, want a cache and no guard or registry", s)
	}
	s.Obs.Emit(obs.Event{Type: obs.EvWarning, Warn: "hello"})
	s.Close()
	s.Close()

	b, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(b, []byte("\n")) != 1 || !bytes.Contains(b, []byte(`"target":"vitis:aws_f1"`)) {
		t.Errorf("trace after Close:\n%s", b)
	}
	if _, err := os.Stat(filepath.Join(cacheDir, "stats.json")); err != nil {
		t.Errorf("stats sidecar after Close: %v", err)
	}
}

// TestOpenNoCache: -no-cache without -trace or -metrics builds a session
// with no cache and a disabled observer.
func TestOpenNoCache(t *testing.T) {
	s, err := Open("test", &Run{NoCache: true}, &Guard{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cache != nil || obs.Enabled(s.Obs) {
		t.Fatalf("-no-cache session = %+v, want no cache and a disabled observer", s)
	}
	s.Close()
}
