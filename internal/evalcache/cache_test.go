package evalcache

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hetero/heterogen/internal/obs"
)

type verdict struct {
	OK    bool
	Score float64
	Notes []string
}

func TestFingerprintBoundaries(t *testing.T) {
	if Fingerprint("ab", "c") == Fingerprint("a", "bc") {
		t.Error("component boundaries must be part of the fingerprint")
	}
	if Fingerprint("x") == Fingerprint("x", "") {
		t.Error("empty trailing components must change the fingerprint")
	}
	if Fingerprint("x") != Fingerprint("x") {
		t.Error("fingerprints must be deterministic")
	}
}

func TestGetPutRoundTrip(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := verdict{OK: true, Score: 0.1 + 0.2, Notes: []string{"a", "b"}}
	key := Fingerprint("k")
	var missed verdict
	if c.Get(StageCheck, key, &missed) {
		t.Fatal("hit on an empty cache")
	}
	c.Put(StageCheck, key, want)
	var got verdict
	if !c.Get(StageCheck, key, &got) {
		t.Fatal("miss after Put")
	}
	if got.OK != want.OK || got.Score != want.Score || len(got.Notes) != 2 {
		t.Fatalf("round trip mangled the value: %+v", got)
	}
	// Hits must never alias: mutating one restored copy cannot leak
	// into the next (repair scores hold diagnostic slices).
	got.Notes[0] = "mutated"
	var again verdict
	if !c.Get(StageCheck, key, &again) {
		t.Fatal("second Get missed")
	}
	if again.Notes[0] != "a" {
		t.Error("restored values alias each other")
	}
	// Same hash under a different stage is a distinct entry.
	var other verdict
	if c.Get(StageSim, key, &other) {
		t.Error("stages must namespace keys")
	}
	st := c.Stats()
	if st.Stages[StageCheck].Hits != 2 || st.Stages[StageCheck].Misses != 1 {
		t.Errorf("check stats = %+v, want 2 hits / 1 miss", st.Stages[StageCheck])
	}
}

func TestLRUEviction(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := New(Options{Capacity: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(StageCheck, "a", 1)
	c.Put(StageCheck, "b", 2)
	// Touch "a" so "b" is the LRU victim when "c" arrives.
	var v int
	if !c.Get(StageCheck, "a", &v) {
		t.Fatal("expected hit on a")
	}
	c.Put(StageCheck, "c", 3)
	if c.Len() != 2 {
		t.Fatalf("LRU holds %d entries, capacity is 2", c.Len())
	}
	if c.Get(StageCheck, "b", &v) {
		t.Error("least-recently-used entry b survived eviction")
	}
	if !c.Get(StageCheck, "a", &v) || !c.Get(StageCheck, "c", &v) {
		t.Error("recently used entries were evicted")
	}
	if ev := c.Stats().Stages[StageCheck].Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache
	var v int
	if c.Get(StageCheck, "k", &v) {
		t.Error("nil cache hit")
	}
	c.Put(StageCheck, "k", 1) // must not panic
	if err := c.Close(); err != nil {
		t.Error(err)
	}
	if got := c.Stats(); got.Hits() != 0 || got.Misses() != 0 {
		t.Error("nil cache counted activity")
	}
}

func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c1.Put(StageCheck, "k1", verdict{OK: true, Score: 1.5})
	c1.Put(StageDifftest, "k2", verdict{Score: -0.25, Notes: []string{"x"}})
	// Overwrites must respect last-write-wins on reload.
	c1.Put(StageCheck, "k1", verdict{OK: true, Score: 2.5})
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Stats().DiskLoaded != 2 {
		t.Errorf("loaded %d entries, want 2", c2.Stats().DiskLoaded)
	}
	var got verdict
	if !c2.Get(StageCheck, "k1", &got) || got.Score != 2.5 {
		t.Errorf("reloaded k1 = %+v, want Score 2.5", got)
	}
	if !c2.Get(StageDifftest, "k2", &got) || got.Score != -0.25 {
		t.Errorf("reloaded k2 = %+v", got)
	}

	sum, err := SummarizeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Entries[StageCheck] != 1 || sum.Entries[StageDifftest] != 1 {
		t.Errorf("summary entries = %v", sum.Entries)
	}
	if sum.Stats.Stages[StageCheck].Stores != 2 {
		t.Errorf("cumulative stores = %+v, want 2 for check", sum.Stats.Stages[StageCheck])
	}
	if !strings.Contains(sum.Text(), "evaluation cache") {
		t.Error("summary text missing header")
	}
}

// TestCorruptDiskEntries: a store with garbage, truncated, and
// incomplete lines must open fine, serve the intact entries, and count
// the rest.
func TestCorruptDiskEntries(t *testing.T) {
	dir := t.TempDir()
	lines := []string{
		`{"stage":"check","hash":"good1","val":{"OK":true,"Score":1,"Notes":null}}`,
		`this is not json`,
		`{"stage":"check","hash":"nocontent"}`,
		`{"stage":"","hash":"nostage","val":1}`,
		`{"stage":"difftest","hash":"good2","val":{"OK":false,"Score":3,"Notes":null}}`,
		`{"stage":"check","hash":"trunc","val":{"OK":tr`, // killed mid-write
	}
	if err := os.WriteFile(filepath.Join(dir, entriesFile),
		[]byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	// A corrupt stats sidecar must be ignored too.
	if err := os.WriteFile(filepath.Join(dir, statsFile), []byte("{oops"), 0o644); err != nil {
		t.Fatal(err)
	}

	c, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatalf("corrupt store must not be fatal: %v", err)
	}
	defer c.Close()
	st := c.Stats()
	if st.DiskLoaded != 2 || st.DiskSkipped != 4 {
		t.Errorf("loaded=%d skipped=%d, want 2/4", st.DiskLoaded, st.DiskSkipped)
	}
	var got verdict
	if !c.Get(StageCheck, "good1", &got) || got.Score != 1 {
		t.Error("intact entry good1 lost")
	}
	if !c.Get(StageDifftest, "good2", &got) || got.Score != 3 {
		t.Error("intact entry good2 lost")
	}
	if c.Get(StageCheck, "trunc", &got) {
		t.Error("truncated entry served")
	}
}

// TestEntriesAfterLongCorruptLine: a corrupt line counts as one skip
// whatever its length, and the entries after it still load. (Through
// a 64 MiB line scanner, a longer line ended the scan and cost every
// entry after it.)
func TestEntriesAfterLongCorruptLine(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, entriesFile))
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"stage":"check","hash":"before","val":1}` + "\n")
	chunk := []byte(strings.Repeat("x", 1<<20))
	for i := 0; i <= 64; i++ {
		if _, err := f.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	f.WriteString("\n" + `{"stage":"check","hash":"after","val":2}` + "\n")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	c, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if st := c.Stats(); st.DiskLoaded != 2 || st.DiskSkipped != 1 {
		t.Errorf("loaded=%d skipped=%d, want 2/1", st.DiskLoaded, st.DiskSkipped)
	}
	var got int
	if !c.Get(StageCheck, "after", &got) || got != 2 {
		t.Error("entry after the long corrupt line lost")
	}
}

func TestEncodeFailureSkipsCaching(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	type bad struct{ F func() }
	c.Put(StageSim, "k", bad{})
	var out bad
	if c.Get(StageSim, "k", &out) {
		t.Error("unserializable value was cached")
	}
	if c.Stats().EncodeFailures != 1 {
		t.Errorf("EncodeFailures = %d, want 1", c.Stats().EncodeFailures)
	}
}

// TestMemo checks the memoized stage call: a failed compute is not
// stored (the next call computes again), a success is stored under the
// key compute was handed and served without computing, and a nil cache
// computes every time without asking for a key.
func TestMemo(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	key := func() string { return "k" }
	compute := func(fail bool) func(string) (verdict, error) {
		return func(k string) (verdict, error) {
			calls++
			if k != "k" {
				t.Errorf("compute got key %q, want k", k)
			}
			if fail {
				return verdict{}, errors.New("stage failed")
			}
			return verdict{OK: true, Score: 2}, nil
		}
	}
	if _, err := Memo(c, StageCheck, key, compute(true)); err == nil {
		t.Fatal("Memo dropped compute's error")
	}
	for i := 0; i < 2; i++ {
		v, err := Memo(c, StageCheck, key, compute(false))
		if err != nil || !v.OK || v.Score != 2 {
			t.Fatalf("call %d: Memo = %+v, %v", i, v, err)
		}
	}
	if calls != 2 {
		t.Errorf("compute ran %d times, want 2 (the failure, then one miss before the hit)", calls)
	}
	if st := c.Stats().Stages[StageCheck]; st.Hits != 1 || st.Misses != 2 || st.Stores != 1 {
		t.Errorf("stats = %+v, want 1 hit, 2 misses, 1 store", st)
	}

	var nilCache *Cache
	for i := 0; i < 2; i++ {
		v, err := Memo(nilCache, StageCheck,
			func() string { t.Error("nil cache computed a key"); return "" },
			func(k string) (verdict, error) {
				if k != "" {
					t.Errorf("nil cache handed compute key %q", k)
				}
				return verdict{OK: true}, nil
			})
		if err != nil || !v.OK {
			t.Fatalf("nil cache: Memo = %+v, %v", v, err)
		}
	}
}

func TestGetIfRejectionCountsAsMiss(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(StageFuzz, "k", verdict{OK: true})
	var v verdict
	if c.GetIf(StageFuzz, "k", &v, func() bool { return false }) {
		t.Error("rejected entry reported as hit")
	}
	st := c.Stats().Stages[StageFuzz]
	if st.Hits != 0 || st.Misses != 1 {
		t.Errorf("stats = %+v, want the rejection counted as a miss", st)
	}
}

func TestStatsSubAndString(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	c.Put(StageCheck, "k", 1)
	var v int
	c.Get(StageCheck, "k", &v)
	c.Get(StageCheck, "missing", &v)
	d := c.Stats().Sub(before)
	if st := d.Stages[StageCheck]; st.Hits != 1 || st.Misses != 1 || st.Stores != 1 {
		t.Errorf("delta = %+v", st)
	}
	if s := d.String(); !strings.Contains(s, "check 1h/1m") {
		t.Errorf("String() = %q", s)
	}
	if (Stats{}).String() != "idle" {
		t.Errorf("empty stats String() = %q", (Stats{}).String())
	}
}
