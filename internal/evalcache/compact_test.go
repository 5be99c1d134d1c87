package evalcache

import (
	"fmt"
	"os"
	"os/exec"
	"testing"

	"github.com/hetero/heterogen/internal/crashpoint"
)

// fillGarbage writes n keys, each overwritten rounds times, and closes
// the cache — leaving rounds-1 stale copies of every entry on disk.
func fillGarbage(t *testing.T, dir string, shards, n, rounds int) {
	t.Helper()
	c, err := New(Options{Dir: dir, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			c.Put(StageCheck, fmt.Sprintf("key-%03d", i), fmt.Sprintf("val-%03d-round-%d", i, r))
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// assertLive verifies every key holds its final-round value.
func assertLive(t *testing.T, c *Cache, n, rounds int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var got string
		if !c.Get(StageCheck, fmt.Sprintf("key-%03d", i), &got) {
			t.Fatalf("key-%03d lost", i)
		}
		if want := fmt.Sprintf("val-%03d-round-%d", i, rounds-1); got != want {
			t.Fatalf("key-%03d = %q, want %q (stale copy won)", i, got, want)
		}
	}
}

// TestCompactionRewrites: a garbage-heavy store shrinks on open, keeps
// every live entry, and counts the rewrite into Stats.
func TestCompactionRewrites(t *testing.T) {
	dir := t.TempDir()
	fillGarbage(t, dir, 1, 40, 8)
	before := storeBytes(dir)

	c, err := New(Options{Dir: dir, CompactMinBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	after := storeBytes(dir)
	if after >= before {
		t.Fatalf("store did not shrink: %d -> %d bytes", before, after)
	}
	st := c.Stats()
	if st.Compactions != 1 {
		t.Errorf("Compactions = %d, want 1", st.Compactions)
	}
	if st.CompactedBytes != before-after {
		t.Errorf("CompactedBytes = %d, want %d", st.CompactedBytes, before-after)
	}
	assertLive(t, c, 40, 8)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// The compacted store must itself reload cleanly — and not compact
	// again (no garbage left).
	c2, err := New(Options{Dir: dir, CompactMinBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := c2.Stats().Compactions; n != 0 {
		t.Errorf("clean store recompacted (%d)", n)
	}
	assertLive(t, c2, 40, 8)
	c2.Close()
}

// TestCompactionThresholds: a store below the size floor or the
// garbage fraction is left byte-for-byte alone.
func TestCompactionThresholds(t *testing.T) {
	t.Run("below-min-bytes", func(t *testing.T) {
		dir := t.TempDir()
		fillGarbage(t, dir, 1, 10, 4)
		before := storeBytes(dir)
		c, err := New(Options{Dir: dir, CompactMinBytes: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if got := storeBytes(dir); got != before {
			t.Errorf("store rewritten below min bytes: %d -> %d", before, got)
		}
	})
	t.Run("below-garbage-fraction", func(t *testing.T) {
		dir := t.TempDir()
		fillGarbage(t, dir, 1, 10, 1) // no overwrites: ~0% garbage
		before := storeBytes(dir)
		c, err := New(Options{Dir: dir, CompactMinBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if got := storeBytes(dir); got != before {
			t.Errorf("garbage-free store rewritten: %d -> %d", before, got)
		}
	})
}

// TestCompactionShardCountChange: compaction re-routes entries under
// the new shard count and removes files outside the new layout.
func TestCompactionShardCountChange(t *testing.T) {
	dir := t.TempDir()
	fillGarbage(t, dir, 4, 40, 4)
	if files := entriesFiles(dir); len(files) != 4 {
		t.Fatalf("setup wrote %d files, want 4", len(files))
	}

	c, err := New(Options{Dir: dir, Shards: 1, CompactMinBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if files := entriesFiles(dir); len(files) != 1 || files[0] != entriesFile {
		t.Fatalf("files after shrink = %v, want [%s]", files, entriesFile)
	}
	assertLive(t, c, 40, 4)
	c.Close()
}

// TestCompactionPreservesSidecar: the stats.json sidecar survives a
// compaction and keeps accumulating across it.
func TestCompactionPreservesSidecar(t *testing.T) {
	dir := t.TempDir()
	fillGarbage(t, dir, 1, 20, 6)
	prior, err := SummarizeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if prior.Stats.Stages[StageCheck].Stores == 0 {
		t.Fatal("setup produced no sidecar stores")
	}

	c, err := New(Options{Dir: dir, CompactMinBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	var v string
	c.Get(StageCheck, "key-000", &v)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	sum, err := SummarizeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sum.Stats.Stages[StageCheck].Stores, prior.Stats.Stages[StageCheck].Stores; got != want {
		t.Errorf("sidecar stores = %d, want %d (history lost)", got, want)
	}
	if sum.Stats.Compactions != 1 {
		t.Errorf("sidecar compactions = %d, want 1", sum.Stats.Compactions)
	}
}

// crashHelper re-executes this test binary as a child process with one
// crash site armed, runs fn in the child, and reports whether the
// child was SIGKILLed (true) or exited cleanly (false — the site was
// never reached, i.e. the matrix is exhausted).
func crashHelper(t *testing.T, testName, dir, arm string) bool {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+testName+"$", "-test.v")
	cmd.Env = append(os.Environ(),
		"EVALCACHE_CRASH_CHILD=1",
		"EVALCACHE_CRASH_DIR="+dir,
		crashpoint.EnvVar+"="+arm)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return false
	}
	if cmd.ProcessState != nil && cmd.ProcessState.ExitCode() == -1 {
		return true // killed by the armed crash point
	}
	t.Fatalf("child failed for a reason other than the crash point:\n%s", out)
	return false
}

// childCompact is what the kill-matrix child runs: open the garbage
// store with compaction on (the armed crashpoint kills it mid-rewrite).
func childCompact() {
	dir := os.Getenv("EVALCACHE_CRASH_DIR")
	c, err := New(Options{Dir: dir, Shards: 2, CompactMinBytes: 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	c.Close()
}

// TestCompactionKillMatrix SIGKILLs a real child process at every step
// boundary of a compaction (each tmp build, each rename, each stale
// delete) and asserts the survivor store still serves every live
// entry. The matrix walks N upward until a child runs clean — meaning
// every kill point has been exercised.
func TestCompactionKillMatrix(t *testing.T) {
	if os.Getenv("EVALCACHE_CRASH_CHILD") == "1" {
		childCompact()
		return
	}
	const keys, rounds = 30, 5
	for n := 1; n <= 32; n++ {
		dir := t.TempDir()
		// 4 shard files going in, 2 coming out: the matrix covers tmp
		// builds, renames, AND stale-file deletes.
		fillGarbage(t, dir, 4, keys, rounds)
		killed := crashHelper(t, "TestCompactionKillMatrix", dir,
			fmt.Sprintf("evalcache.compact:%d", n))

		c, err := New(Options{Dir: dir})
		if err != nil {
			t.Fatalf("kill point %d: reopen: %v", n, err)
		}
		assertLive(t, c, keys, rounds)
		c.Close()
		if !killed {
			t.Logf("kill matrix exhausted after %d points", n-1)
			return
		}
	}
	t.Fatal("compaction has more than 32 kill points; widen the matrix")
}

// childAppend is the torn-append child: reopen the store and put one
// more entry — the armed crashpoint tears that append mid-line.
func childAppend() {
	dir := os.Getenv("EVALCACHE_CRASH_DIR")
	c, err := New(Options{Dir: dir})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	c.Put(StageCheck, "victim", "torn-value")
	c.Close()
}

// TestAppendKillLeavesLoadableStore: a SIGKILL mid-append leaves a
// torn final line; reopening skips it (counted) and every prior entry
// survives.
func TestAppendKillLeavesLoadableStore(t *testing.T) {
	if os.Getenv("EVALCACHE_CRASH_CHILD") == "1" {
		childAppend()
		return
	}
	dir := t.TempDir()
	fillGarbage(t, dir, 1, 10, 1)
	if !crashHelper(t, "TestAppendKillLeavesLoadableStore", dir, "evalcache.append:1") {
		t.Fatal("child was not killed — the append crash point never fired")
	}

	c, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st := c.Stats()
	if st.DiskSkipped == 0 {
		t.Error("torn line was not detected on reload")
	}
	assertLive(t, c, 10, 1)
	var v string
	if c.Get(StageCheck, "victim", &v) {
		t.Errorf("torn entry resurrected as %q", v)
	}
}

// childPutMany is the kill-keeps-earlier-puts child: put keys into a
// fresh four-shard store until the armed crashpoint kills it.
func childPutMany() {
	c, err := New(Options{Dir: os.Getenv("EVALCACHE_CRASH_DIR"), Shards: 4})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for i := 0; i < 20; i++ {
		c.Put(StageCheck, fmt.Sprintf("key-%03d", i), i)
	}
	c.Close()
}

// TestAppendKillKeepsEarlierPuts: every put reaches the kernel before
// the next begins, so a SIGKILL at the ninth append leaves the eight
// verdicts before it loadable on every shard, not only on the one the
// kill tore. hgserve re-runs an interrupted job against this store.
func TestAppendKillKeepsEarlierPuts(t *testing.T) {
	if os.Getenv("EVALCACHE_CRASH_CHILD") == "1" {
		childPutMany()
		return
	}
	dir := t.TempDir()
	if !crashHelper(t, "TestAppendKillKeepsEarlierPuts", dir, "evalcache.append:9") {
		t.Fatal("child was not killed — the append crash point never fired")
	}
	c, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Stats().DiskLoaded; got != 8 {
		t.Errorf("reloaded %d entries after a kill at the ninth append, want 8", got)
	}
}
