package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/evalcache"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/obs"
	"github.com/hetero/heterogen/internal/repair"
	"github.com/hetero/heterogen/internal/stage"
	"github.com/hetero/heterogen/internal/subjects"
)

// cachedRun executes the full pipeline with a JSONL trace attached and
// an optional evaluation cache, returning the result plus the raw trace
// bytes.
func cachedRun(t *testing.T, id string, workers int, cache *evalcache.Cache) (Result, []byte) {
	t.Helper()
	s, err := subjects.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw := obs.NewTraceWriter(&buf)
	opts := Options{Kernel: s.Kernel, Workers: workers, Obs: tw, Cache: cache}
	opts.Fuzz = fuzz.Options{MaxExecs: 150, Plateau: 60}
	res, err := RunUnitContext(context.Background(), s.MustParse(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// assertResultParity compares two pipeline results field by field,
// excluding CacheStats (the one documented out-of-band field: hit/miss
// counts legitimately differ between disabled, cold, and warm runs, and
// with worker speculation). Test suites are compared by their canonical
// fingerprint rather than reflect.DeepEqual so float NaN inputs — which
// the fuzzer does generate — compare by bit pattern.
func assertResultParity(t *testing.T, name string, want, got Result) {
	t.Helper()
	if want.Source != got.Source {
		t.Errorf("%s: final sources differ:\n--- want ---\n%s\n--- got ---\n%s", name, want.Source, got.Source)
	}
	if want.Compatible != got.Compatible || want.BehaviorOK != got.BehaviorOK {
		t.Errorf("%s: verdicts diverge: want %v/%v got %v/%v", name,
			want.Compatible, want.BehaviorOK, got.Compatible, got.BehaviorOK)
	}
	if !reflect.DeepEqual(want.Repair.Stats, got.Repair.Stats) {
		t.Errorf("%s: repair stats diverge:\n  want: %+v\n  got:  %+v", name, want.Repair.Stats, got.Repair.Stats)
	}
	wc, gc := want.Campaign, got.Campaign
	if wc.Coverage != gc.Coverage || wc.Execs != gc.Execs ||
		wc.CoveredOutcomes != gc.CoveredOutcomes || wc.TotalOutcomes != gc.TotalOutcomes ||
		wc.VirtualSeconds != gc.VirtualSeconds || wc.Plateaued != gc.Plateaued ||
		wc.SeededFromHost != gc.SeededFromHost || len(wc.Tests) != len(gc.Tests) {
		t.Errorf("%s: campaigns diverge:\n  want: %s\n  got:  %s", name, wc.Summary(), gc.Summary())
	}
	if fuzz.CorpusFingerprint(wc.Tests) != fuzz.CorpusFingerprint(gc.Tests) {
		t.Errorf("%s: generated test suites diverge", name)
	}
	if want.Resources != got.Resources {
		t.Errorf("%s: resource estimates diverge: want %+v got %+v", name, want.Resources, got.Resources)
	}
}

// TestPipelineCacheParity is the acceptance check for the evaluation
// cache: for every subject and for Workers∈{1,4}, the pipeline result
// and the byte-exact JSONL trace must be identical with the cache
// disabled, cold, and warm — the cache may only change wall-clock,
// never a reported number or an emitted event. The warm run must
// actually hit.
func TestPipelineCacheParity(t *testing.T) {
	ids := []string{"P2", "P6"}
	if !testing.Short() {
		ids = []string{"P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10"}
	}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				base, baseTrace := cachedRun(t, id, workers, nil)
				if n := base.CacheStats.Hits() + base.CacheStats.Misses(); n != 0 {
					t.Errorf("workers=%d: cache-disabled run reports %d cache lookups", workers, n)
				}
				cache, err := evalcache.New(evalcache.Options{})
				if err != nil {
					t.Fatal(err)
				}
				cold, coldTrace := cachedRun(t, id, workers, cache)
				warm, warmTrace := cachedRun(t, id, workers, cache)

				assertResultParity(t, id+"/cold", base, cold)
				assertResultParity(t, id+"/warm", base, warm)
				if !bytes.Equal(baseTrace, coldTrace) {
					t.Errorf("workers=%d: cold-cache trace differs from cache-disabled trace (%d vs %d bytes)",
						workers, len(coldTrace), len(baseTrace))
				}
				if !bytes.Equal(baseTrace, warmTrace) {
					t.Errorf("workers=%d: warm-cache trace differs from cache-disabled trace (%d vs %d bytes)",
						workers, len(warmTrace), len(baseTrace))
				}
				if warm.CacheStats.Hits() == 0 {
					t.Errorf("workers=%d: warm run never hit the cache: %s", workers, warm.CacheStats)
				}
			}
		})
	}
}

// TestPipelineShardedCacheParity is the acceptance check for cache
// sharding at the pipeline level: with the cache split across N
// independent shards, the Result and the byte-exact JSONL trace must be
// identical to the unsharded cache's, cold and warm — and, for a
// sequential run, even the out-of-band CacheStats must agree, because
// lookup order is deterministic and sharding only changes which lock an
// entry lives behind.
func TestPipelineShardedCacheParity(t *testing.T) {
	flat, err := evalcache.New(evalcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	flatCold, flatColdTrace := cachedRun(t, "P2", 1, flat)
	flatWarm, flatWarmTrace := cachedRun(t, "P2", 1, flat)

	sharded, err := evalcache.New(evalcache.Options{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	cold, coldTrace := cachedRun(t, "P2", 1, sharded)
	warm, warmTrace := cachedRun(t, "P2", 1, sharded)

	assertResultParity(t, "sharded/cold", flatCold, cold)
	assertResultParity(t, "sharded/warm", flatWarm, warm)
	if !bytes.Equal(flatColdTrace, coldTrace) {
		t.Errorf("sharded cold trace differs from unsharded (%d vs %d bytes)", len(coldTrace), len(flatColdTrace))
	}
	if !bytes.Equal(flatWarmTrace, warmTrace) {
		t.Errorf("sharded warm trace differs from unsharded (%d vs %d bytes)", len(warmTrace), len(flatWarmTrace))
	}
	if !reflect.DeepEqual(flatCold.CacheStats.Stages, cold.CacheStats.Stages) {
		t.Errorf("sequential cold-run cache stats diverge:\n  flat:    %+v\n  sharded: %+v",
			flatCold.CacheStats.Stages, cold.CacheStats.Stages)
	}
	if !reflect.DeepEqual(flatWarm.CacheStats.Stages, warm.CacheStats.Stages) {
		t.Errorf("sequential warm-run cache stats diverge:\n  flat:    %+v\n  sharded: %+v",
			flatWarm.CacheStats.Stages, warm.CacheStats.Stages)
	}
	if warm.CacheStats.Hits() == 0 {
		t.Errorf("sharded warm run never hit: %s", warm.CacheStats)
	}
}

// TestPipelineCacheDiskWarm exercises the persistent store end to end:
// a cold run populates a directory, a fresh cache opened on the same
// directory serves the warm run from disk, and the result and trace
// stay identical to a cache-free run.
func TestPipelineCacheDiskWarm(t *testing.T) {
	dir := t.TempDir()
	base, baseTrace := cachedRun(t, "P2", 1, nil)

	c1, err := evalcache.New(evalcache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cold, _ := cachedRun(t, "P2", 1, c1)
	assertResultParity(t, "disk/cold", base, cold)
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := evalcache.New(evalcache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	warm, warmTrace := cachedRun(t, "P2", 1, c2)
	assertResultParity(t, "disk/warm", base, warm)
	if !bytes.Equal(baseTrace, warmTrace) {
		t.Errorf("disk-warm trace differs from cache-disabled trace (%d vs %d bytes)",
			len(warmTrace), len(baseTrace))
	}
	if warm.CacheStats.Hits() == 0 {
		t.Errorf("disk-warm run never hit: %s", warm.CacheStats)
	}
	if got := c2.Stats().DiskLoaded; got == 0 {
		t.Error("reopened cache loaded no entries from disk")
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}

	sum, err := evalcache.SummarizeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Entries) == 0 {
		t.Error("SummarizeDir found no entries after two persistent runs")
	}
	var stores, hits int64
	for _, st := range sum.Stats.Stages {
		stores += st.Stores
		hits += st.Hits
	}
	if stores == 0 || hits == 0 {
		t.Errorf("cumulative stats.json not merged across runs: stores=%d hits=%d", stores, hits)
	}
}

// TestFinalEstimateSharesSearchKey pins the resource-estimate key: the
// repair search caches every estimate it computes under the design's
// fingerprint, so the pipeline's estimate of the final design must be
// served from that entry.
func TestFinalEstimateSharesSearchKey(t *testing.T) {
	s, err := subjects.ByID("P3")
	if err != nil {
		t.Fatal(err)
	}
	cache, err := evalcache.New(evalcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	orig := s.MustParse()
	res := repair.SearchContext(context.Background(), stage.Env{Cache: cache}, orig, cast.CloneUnit(orig),
		s.Kernel, s.ExistingTests(), nil, repair.Options{})
	if !res.Compatible {
		t.Fatalf("P3 must repair: %v", res.Remaining)
	}
	before := cache.Stats()
	if _, err := estimateResources(cache, nil, res.Unit); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats().Sub(before).Stages[evalcache.StageSim]; st.Hits != 1 || st.Misses != 0 {
		t.Errorf("final estimate: %d hits, %d misses; want the search's entry (1 hit)", st.Hits, st.Misses)
	}
}
