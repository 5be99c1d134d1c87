package evalcache

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hetero/heterogen/internal/obs"
)

// TestUnopenableDirDegradesToMemory: a persistent tier that cannot be
// opened must never fail the run — the cache comes up in-memory with
// one warning, a DiskWriteFailures count, and a metric.
func TestUnopenableDirDegradesToMemory(t *testing.T) {
	// A regular file where the directory should be.
	dir := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(dir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var warnings []string
	reg := obs.NewRegistry()
	c, err := New(Options{Dir: dir, Metrics: reg,
		Warn: func(m string) { warnings = append(warnings, m) }})
	if err != nil {
		t.Fatalf("degraded open must not error: %v", err)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "persistent tier disabled") {
		t.Fatalf("warnings = %v", warnings)
	}
	if n := c.Stats().DiskWriteFailures; n != 1 {
		t.Errorf("DiskWriteFailures = %d, want 1", n)
	}
	if n := reg.Counter("cache.disk_degraded"); n != 1 {
		t.Errorf("cache.disk_degraded = %d, want 1", n)
	}

	// The in-memory tier keeps working.
	c.Put(StageCheck, "k1", 42)
	var got int
	if !c.Get(StageCheck, "k1", &got) || got != 42 {
		t.Errorf("in-memory tier broken after degrade: %d", got)
	}
	if err := c.Close(); err != nil {
		t.Errorf("Close after degrade: %v", err)
	}
}

// TestFailedAppendDegradesOnce: a disk-write failure mid-run drops the
// persistent tier, warns once, and leaves Get/Put functional.
func TestFailedAppendDegradesOnce(t *testing.T) {
	dir := t.TempDir()
	var warnings []string
	c, err := New(Options{Dir: dir, Warn: func(m string) { warnings = append(warnings, m) }})
	if err != nil {
		t.Fatal(err)
	}
	if c.shards[0].store == nil {
		t.Fatal("no disk store opened")
	}
	// Close the store's file behind its back so the next flushed append
	// fails; a value larger than the 4 KiB bufio buffer forces the flush
	// inside Put.
	if err := c.shards[0].store.f.Close(); err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("x", 64<<10)
	c.Put(StageCheck, "a", big)
	c.Put(StageCheck, "b", 2)
	if len(warnings) != 1 {
		t.Fatalf("want exactly one warning, got %v", warnings)
	}
	if c.shards[0].store != nil {
		t.Error("store not dropped after failed append")
	}
	if n := c.Stats().DiskWriteFailures; n != 1 {
		t.Errorf("DiskWriteFailures = %d, want 1 (second Put has no store)", n)
	}
	var gotBig string
	if !c.Get(StageCheck, "a", &gotBig) || gotBig != big {
		t.Error("memory tier lost the entry that failed to persist")
	}
	var got int
	if !c.Get(StageCheck, "b", &got) || got != 2 {
		t.Error("memory tier lost entries after degrade")
	}
}

// TestDifftestSaltIncludesInterpSteps pins the cache-correctness half
// of the step-budget satellite: verdicts produced under different
// budgets must never collide.
func TestDifftestSaltIncludesInterpSteps(t *testing.T) {
	a := DifftestSalt("be", "top", "dev", 250, 0, "k", "orig", "corpus")
	b := DifftestSalt("be", "top", "dev", 250, 500, "k", "orig", "corpus")
	if a == b {
		t.Error("salt ignores the interpreter step budget")
	}
	if a != DifftestSalt("be", "top", "dev", 250, 0, "k", "orig", "corpus") {
		t.Error("salt not deterministic")
	}
}
