package evalcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/hetero/heterogen/internal/obs"
)

// Stage names one cached verdict kind. Keys are namespaced per stage,
// and hit/miss statistics are broken out per stage.
type Stage string

const (
	// StageCheck caches hls.Report verdicts of the full
	// synthesizability checker.
	StageCheck Stage = "check"
	// StageSim caches sim.Resources estimates of the FPGA simulator.
	StageSim Stage = "sim"
	// StageDifftest caches difftest.Report outcomes (pass/fail per
	// test, first divergence, CPU/FPGA mean latency).
	StageDifftest Stage = "difftest"
	// StageFuzz caches whole fuzzing campaigns (generated corpus,
	// coverage, virtual clock, and — when tracing — the event stream).
	StageFuzz Stage = "fuzz"
)

// Stages lists every stage in reporting order.
func Stages() []Stage {
	return []Stage{StageCheck, StageSim, StageDifftest, StageFuzz}
}

// formatVersion salts every fingerprint. Bump it whenever the
// serialized form of any cached verdict, or the meaning of any key
// component, changes: old on-disk entries then miss instead of
// deserializing into the wrong shape. Version 3: the repair search
// addresses per-candidate entries by incremental content fingerprint
// (cast.Fingerprints) instead of the full printed text. Version 4:
// toolchain salts always name the backend (an untargeted run is keyed
// as the default target), so version 3 entries are a clean miss.
// Version 5: the pipeline's final resource estimate is keyed by
// fingerprint like the search's, not by printed text. Version 6: every
// key names program content by fingerprint — the pipeline's check
// stage stores the untranslated report under the search's key, and
// fuzz campaigns and difftest salts drop printed text. Version 7: check
// reports drop diagnostic source positions, the one part of a stored
// report that was not a function of its key.
const formatVersion = 7

// Fingerprint hashes an ordered list of key components into a hex
// content address. Components are length-prefixed, so the boundary
// between them is part of the hash ("ab","c" differs from "a","bc"),
// and the cache format version salts every key.
func Fingerprint(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(formatVersion))
	h.Write(n[:])
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Options configures a cache.
type Options struct {
	// Capacity bounds the in-memory LRU tier in entries (default 4096).
	// With Shards > 1 the bound is divided evenly across shards
	// (rounding up), so the whole-cache bound stays within one entry
	// per shard of the configured value.
	Capacity int
	// Dir, when non-empty, enables the persistent tier: entries append
	// to <dir>/entries.jsonl (shard 0; additional shards use
	// <dir>/entries-<i>.jsonl) and cumulative statistics merge into
	// <dir>/stats.json on Close. The directory is created if missing.
	// On open, every entries file present is loaded and each entry is
	// routed to its owning shard under the current shard count, so a
	// directory written with any Shards value serves a cache opened
	// with any other.
	Dir string
	// Shards splits the cache into that many independent shards, each
	// with its own lock, LRU tier, disk image, and append file, keyed
	// by a hash of the entry's content address. Concurrent jobs (the
	// hgserve pool) then contend on len(shards) locks instead of one.
	// 0 or 1 keeps the single-shard layout; sharded and unsharded
	// caches return byte-identical verdicts (TestShardParity).
	Shards int
	// Metrics, when non-nil, mirrors hit/miss/store/evict counters into
	// the run's metrics registry as cache.<kind>.<stage>. Statistics
	// never ride in traces, which is what keeps traces byte-identical
	// across cold and warm runs (hit counts legitimately differ).
	Metrics *obs.Registry
	// Warn, when non-nil, receives the one-line notice emitted when the
	// persistent tier degrades (unopenable directory, failed append).
	// Emitted at most once per cache.
	Warn func(string)
	// CompactMinBytes enables on-open compaction of the persistent
	// tier: when the entries files total at least this many bytes AND
	// at least half of them are garbage (bytes not backing a live
	// entry — stale overwrites, shard-count leftovers, corrupt lines),
	// the store is rewritten to exactly the live entries under the
	// current shard count. The rewrite is crash-safe at every point:
	// new shard images build as invisible .tmp files, are fsynced, and
	// replace the old files by atomic rename; a kill anywhere leaves a
	// store that loads every live entry (possibly duplicated across old
	// and new copies — either is valid, the content address never
	// lies). 0 disables compaction.
	CompactMinBytes int64
}

// DefaultCapacity is the in-memory LRU bound when Options.Capacity is
// zero. Sized for a full hgeval sweep: the largest repair searches try
// a few hundred candidates, each contributing at most three entries.
const DefaultCapacity = 4096

// StageStats counts one stage's cache activity.
type StageStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Stores    int64 `json:"stores"`
	Evictions int64 `json:"evictions"`
}

func (s StageStats) add(o StageStats) StageStats {
	return StageStats{
		Hits:      s.Hits + o.Hits,
		Misses:    s.Misses + o.Misses,
		Stores:    s.Stores + o.Stores,
		Evictions: s.Evictions + o.Evictions,
	}
}

// Stats is a point-in-time snapshot of cache activity, per stage plus
// persistence health counters. For a sharded cache every field is the
// aggregate over all shards.
type Stats struct {
	Stages map[Stage]StageStats `json:"stages,omitempty"`
	// DiskLoaded / DiskSkipped count persistent entries restored and
	// rejected (corrupt or truncated lines) when the cache opened.
	DiskLoaded  int64 `json:"disk_loaded,omitempty"`
	DiskSkipped int64 `json:"disk_skipped,omitempty"`
	// EncodeFailures counts values that could not be serialized (and
	// were therefore not cached — Put degrades to a no-op).
	EncodeFailures int64 `json:"encode_failures,omitempty"`
	// DiskWriteFailures counts persistent-tier writes that failed. After
	// the first one the affected shard degrades to in-memory operation:
	// verdicts stay correct, they just stop persisting.
	DiskWriteFailures int64 `json:"disk_write_failures,omitempty"`
	// Compactions counts on-open store rewrites (Options.CompactMinBytes);
	// CompactedBytes is the total file-size reduction they achieved.
	Compactions    int64 `json:"compactions,omitempty"`
	CompactedBytes int64 `json:"compacted_bytes,omitempty"`
}

// Hits sums hits over all stages.
func (s Stats) Hits() int64 {
	var n int64
	for _, st := range s.Stages {
		n += st.Hits
	}
	return n
}

// Misses sums misses over all stages.
func (s Stats) Misses() int64 {
	var n int64
	for _, st := range s.Stages {
		n += st.Misses
	}
	return n
}

// Sub returns the activity between snapshot prev and this one, for
// attributing deltas to one pipeline run on a shared cache.
func (s Stats) Sub(prev Stats) Stats {
	out := Stats{
		DiskLoaded:        s.DiskLoaded - prev.DiskLoaded,
		DiskSkipped:       s.DiskSkipped - prev.DiskSkipped,
		EncodeFailures:    s.EncodeFailures - prev.EncodeFailures,
		DiskWriteFailures: s.DiskWriteFailures - prev.DiskWriteFailures,
		Compactions:       s.Compactions - prev.Compactions,
		CompactedBytes:    s.CompactedBytes - prev.CompactedBytes,
	}
	for stage, st := range s.Stages {
		p := prev.Stages[stage]
		d := StageStats{
			Hits:      st.Hits - p.Hits,
			Misses:    st.Misses - p.Misses,
			Stores:    st.Stores - p.Stores,
			Evictions: st.Evictions - p.Evictions,
		}
		if d != (StageStats{}) {
			if out.Stages == nil {
				out.Stages = map[Stage]StageStats{}
			}
			out.Stages[stage] = d
		}
	}
	return out
}

// merge accumulates another snapshot (used for the cumulative
// stats.json sidecar and for aggregating shard snapshots).
func (s Stats) merge(o Stats) Stats {
	out := Stats{
		DiskLoaded:        s.DiskLoaded + o.DiskLoaded,
		DiskSkipped:       s.DiskSkipped + o.DiskSkipped,
		EncodeFailures:    s.EncodeFailures + o.EncodeFailures,
		DiskWriteFailures: s.DiskWriteFailures + o.DiskWriteFailures,
		Compactions:       s.Compactions + o.Compactions,
		CompactedBytes:    s.CompactedBytes + o.CompactedBytes,
	}
	for _, src := range []Stats{s, o} {
		for stage, st := range src.Stages {
			if out.Stages == nil {
				out.Stages = map[Stage]StageStats{}
			}
			out.Stages[stage] = out.Stages[stage].add(st)
		}
	}
	return out
}

// String renders the snapshot as a compact per-stage summary, e.g.
// "check 12h/3m; difftest 9h/3m".
func (s Stats) String() string {
	var parts []string
	for _, stage := range Stages() {
		st, ok := s.Stages[stage]
		if !ok || (st.Hits == 0 && st.Misses == 0) {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %dh/%dm", stage, st.Hits, st.Misses))
	}
	if len(parts) == 0 {
		return "idle"
	}
	return strings.Join(parts, "; ")
}

// key addresses one entry.
type key struct {
	stage Stage
	hash  string
}

// entry is one LRU element's payload.
type entry struct {
	k   key
	val json.RawMessage
}

// shard is one independent slice of the cache: its own lock, LRU tier,
// persistent image, append handle, and statistics. All cross-shard
// aggregation happens in Cache; a shard never touches another shard.
type shard struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	mem      map[key]*list.Element
	// disk is the persistent tier's in-process image: entries loaded
	// from Dir at open plus everything stored since. It is unbounded —
	// persistence means never forgetting within a run — while the LRU
	// tier alone bounds memory for purely in-memory caches.
	disk  map[key]json.RawMessage
	store *diskStore
	stats Stats
}

// Cache is the two-tier, optionally sharded verdict store. All methods
// are safe for concurrent use (repair workers, parallel eval subjects,
// and hgserve jobs share one cache), and all are nil-safe: a nil *Cache
// behaves as a disabled cache (Get always misses without counting, Put
// and Close are no-ops), so callers never need to branch on whether
// caching is on.
type Cache struct {
	shards  []*shard
	dir     string
	metrics *obs.Registry

	// diskLoaded / diskSkipped / compactions / compactedBytes are set
	// once at open, before the cache is shared.
	diskLoaded     int64
	diskSkipped    int64
	compactions    int64
	compactedBytes int64
	// encodeFailures counts Put values that failed to serialize; it is
	// the one counter incremented before an entry is routed to a shard.
	encodeFailures atomic.Int64

	warnMu sync.Mutex
	warn   func(string)
	warned bool
}

// New opens a cache. With Options.Dir set, existing entries are loaded
// (corrupt or truncated lines are counted and skipped, never fatal)
// and one append store is opened per shard. A persistent tier that
// cannot be opened is never fatal either: the cache degrades to
// in-memory operation with a one-line warning and a DiskWriteFailures
// count — verdicts are an optimization, so losing persistence must not
// abort the run. The returned error is always nil today; the signature
// keeps room for future hard failures.
func New(opts Options) (*Cache, error) {
	nshards := opts.Shards
	if nshards <= 0 {
		nshards = 1
	}
	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	perShard := (capacity + nshards - 1) / nshards
	c := &Cache{
		shards:  make([]*shard, nshards),
		metrics: opts.Metrics,
		warn:    opts.Warn,
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			capacity: perShard,
			ll:       list.New(),
			mem:      map[key]*list.Element{},
			stats:    Stats{Stages: map[Stage]StageStats{}},
		}
	}
	if opts.Dir != "" {
		c.dir = opts.Dir
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			// The whole persistent tier is unusable: every shard stays
			// memory-only.
			c.shards[0].stats.DiskWriteFailures++
			c.degradeNotice(fmt.Sprintf("evalcache: persistent tier disabled: create dir: %v", err))
			return c, nil
		}
		loaded, skipped := scanDir(opts.Dir)
		c.diskLoaded = int64(len(loaded))
		c.diskSkipped = skipped
		// Leftover .tmp images from a compaction a crash interrupted are
		// dead weight: they were never renamed into place and are always
		// rebuilt from scratch, so sweep them before deciding anew.
		removeStaleTmps(opts.Dir)
		if opts.CompactMinBytes > 0 {
			if due, before := compactionDue(opts.Dir, loaded, opts.CompactMinBytes); due {
				if err := compactDir(opts.Dir, loaded, nshards); err != nil {
					c.degradeNotice(fmt.Sprintf("evalcache: compaction failed: %v", err))
				} else {
					after := storeBytes(opts.Dir)
					c.compactions = 1
					c.compactedBytes = before - after
					if opts.Metrics != nil {
						opts.Metrics.Add("cache.compactions", 1)
						opts.Metrics.Add("cache.compacted_bytes", before-after)
					}
				}
			}
		}
		for i, sh := range c.shards {
			sh.disk = map[key]json.RawMessage{}
			store, err := openAppend(opts.Dir, i)
			if err != nil {
				sh.stats.DiskWriteFailures++
				c.degradeNotice(fmt.Sprintf("evalcache: persistent tier disabled: %v", err))
				continue
			}
			sh.store = store
		}
		// Entries are routed to their owning shard under the *current*
		// shard count, regardless of which file they were read from, so
		// reopening a directory with a different Shards value loses
		// nothing.
		for k, raw := range loaded {
			c.shardFor(k.hash).disk[k] = raw
		}
	}
	return c, nil
}

// shardFor routes a content address to its owning shard. The routing
// hash is independent of the sha256 content address' own structure, so
// any key string — hex or not — distributes.
func (c *Cache) shardFor(hash string) *shard {
	return c.shards[shardIndex(hash, len(c.shards))]
}

// shardIndex is the routing function itself, shared with compaction
// (which rewrites files under the current shard count before any shard
// struct exists).
func shardIndex(hash string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(hash))
	return int(h.Sum32() % uint32(n))
}

// degradeNotice emits the once-per-cache persistence warning and the
// per-occurrence metric. Counting into shard stats is the caller's job
// (it owns the relevant lock).
func (c *Cache) degradeNotice(msg string) {
	c.warnMu.Lock()
	first := !c.warned
	c.warned = true
	warn := c.warn
	c.warnMu.Unlock()
	if c.metrics != nil {
		c.metrics.Add("cache.disk_degraded", 1)
	}
	if first && warn != nil {
		warn(msg)
	}
}

// degradeShard records a persistent-tier failure on one shard and drops
// that shard to in-memory operation. Other shards keep persisting.
func (c *Cache) degradeShard(sh *shard, msg string) {
	sh.mu.Lock()
	if sh.store != nil {
		_ = sh.store.Close()
		sh.store = nil
	}
	sh.stats.DiskWriteFailures++
	sh.mu.Unlock()
	c.degradeNotice(msg)
}

// Get looks an entry up and, on a hit, unmarshals the stored verdict
// into out (a pointer), always into freshly allocated storage — two
// hits never alias. Returns false (a counted miss) when absent or when
// the stored bytes no longer decode.
func (c *Cache) Get(stage Stage, hash string, out any) bool {
	return c.GetIf(stage, hash, out, nil)
}

// GetIf is Get with an acceptance predicate, consulted after a
// successful decode: an entry the caller rejects counts as a miss (the
// caller will recompute and overwrite). The fuzz stage uses it — a
// campaign memoized without its event stream cannot serve a traced
// run.
func (c *Cache) GetIf(stage Stage, hash string, out any, accept func() bool) bool {
	if c == nil {
		return false
	}
	k := key{stage, hash}
	sh := c.shardFor(hash)
	sh.mu.Lock()
	raw, found := sh.lookup(k)
	sh.mu.Unlock()
	ok := found
	if ok && json.Unmarshal(raw, out) != nil {
		ok = false
	}
	if ok && accept != nil && !accept() {
		ok = false
	}
	c.count(sh, stage, ok)
	return ok
}

// lookup consults the LRU tier then the persistent image, promoting
// hits to the LRU front. Caller holds sh.mu.
func (sh *shard) lookup(k key) (json.RawMessage, bool) {
	if el, ok := sh.mem[k]; ok {
		sh.ll.MoveToFront(el)
		return el.Value.(*entry).val, true
	}
	if raw, ok := sh.disk[k]; ok {
		sh.insert(k, raw)
		return raw, true
	}
	return nil, false
}

// count records one hit or miss under the shard lock and mirrors it to
// the metrics registry outside it.
func (c *Cache) count(sh *shard, stage Stage, hit bool) {
	sh.mu.Lock()
	st := sh.stats.Stages[stage]
	if hit {
		st.Hits++
	} else {
		st.Misses++
	}
	sh.stats.Stages[stage] = st
	sh.mu.Unlock()
	if c.metrics != nil {
		if hit {
			c.metrics.Add("cache.hits."+string(stage), 1)
		} else {
			c.metrics.Add("cache.misses."+string(stage), 1)
		}
	}
}

// Put stores a verdict under its content address. Values that fail to
// serialize (e.g. NaN latencies) are skipped — the cache degrades to a
// recomputation, never an error.
func (c *Cache) Put(stage Stage, hash string, val any) {
	if c == nil {
		return
	}
	raw, err := json.Marshal(val)
	if err != nil {
		c.encodeFailures.Add(1)
		return
	}
	k := key{stage, hash}
	sh := c.shardFor(hash)
	var evicted int64
	sh.mu.Lock()
	if el, ok := sh.mem[k]; ok {
		el.Value.(*entry).val = raw
		sh.ll.MoveToFront(el)
	} else {
		sh.insert(k, raw)
	}
	if sh.disk != nil {
		sh.disk[k] = raw
	}
	st := sh.stats.Stages[stage]
	st.Stores++
	sh.stats.Stages[stage] = st
	for sh.ll.Len() > sh.capacity {
		back := sh.ll.Back()
		victim := back.Value.(*entry)
		delete(sh.mem, victim.k)
		sh.ll.Remove(back)
		vs := sh.stats.Stages[victim.k.stage]
		vs.Evictions++
		sh.stats.Stages[victim.k.stage] = vs
		evicted++
	}
	var storeErr error
	if sh.store != nil {
		storeErr = sh.store.put(k, raw)
	}
	sh.mu.Unlock()
	if storeErr != nil {
		// A failed append only loses persistence on this shard: drop its
		// disk tier, keep serving from memory.
		c.degradeShard(sh, fmt.Sprintf("evalcache: persistent tier disabled: %v", storeErr))
	}
	if c.metrics != nil {
		c.metrics.Add("cache.stores."+string(stage), 1)
		if evicted > 0 {
			c.metrics.Add("cache.evictions", evicted)
		}
	}
}

// Memo is the one memoized stage call: the verdict stored for stage
// under key(), else compute's, stored only when compute succeeds. The
// lookup comes before compute on purpose: only successful verdicts are
// stored, so a hit never replays a failure, and a hit skips whatever
// compute would have run. compute receives the key. A nil cache calls
// neither key nor Get/Put and hands compute an empty key, so uncached
// runs pay for no fingerprint or key.
func Memo[T any](c *Cache, stage Stage, key func() string, compute func(key string) (T, error)) (T, error) {
	if c == nil {
		return compute("")
	}
	k := key()
	var v T
	if c.Get(stage, k, &v) {
		return v, nil
	}
	v, err := compute(k)
	if err != nil {
		return v, err
	}
	c.Put(stage, k, v)
	return v, nil
}

// insert adds a fresh LRU entry at the front. Caller holds sh.mu.
func (sh *shard) insert(k key, raw json.RawMessage) {
	sh.mem[k] = sh.ll.PushFront(&entry{k: k, val: raw})
}

// Stats snapshots current activity, aggregated over all shards.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	out := Stats{
		DiskLoaded:     c.diskLoaded,
		DiskSkipped:    c.diskSkipped,
		EncodeFailures: c.encodeFailures.Load(),
		Compactions:    c.compactions,
		CompactedBytes: c.compactedBytes,
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		snap := Stats{DiskWriteFailures: sh.stats.DiskWriteFailures}
		if len(sh.stats.Stages) > 0 {
			snap.Stages = make(map[Stage]StageStats, len(sh.stats.Stages))
			for k, v := range sh.stats.Stages {
				snap.Stages[k] = v
			}
		}
		sh.mu.Unlock()
		out = out.merge(snap)
	}
	return out
}

// Shards reports the shard count (1 for an unsharded cache, 0 for nil).
func (c *Cache) Shards() int {
	if c == nil {
		return 0
	}
	return len(c.shards)
}

// Len reports the in-memory LRU entry count over all shards.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.ll.Len()
		sh.mu.Unlock()
	}
	return n
}

// Close flushes every shard's persistent tier and merges this cache's
// lifetime statistics into <dir>/stats.json, so hgstat can report
// cumulative hit rates across runs. A nil or memory-only cache closes
// trivially. The first flush error is returned; the sidecar is still
// written for the shards that flushed.
func (c *Cache) Close() error {
	if c == nil {
		return nil
	}
	stats := c.Stats()
	var firstErr error
	hadStore := false
	for _, sh := range c.shards {
		sh.mu.Lock()
		store := sh.store
		sh.store = nil
		sh.mu.Unlock()
		if store == nil {
			continue
		}
		hadStore = true
		if err := store.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if !hadStore {
		return nil
	}
	if err := mergeSidecar(c.dir, stats); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// sortedStages returns a Stats' stages in canonical reporting order
// (known stages first, unknown ones alphabetically after).
func sortedStages(m map[Stage]StageStats) []Stage {
	known := map[Stage]bool{}
	var out []Stage
	for _, s := range Stages() {
		if _, ok := m[s]; ok {
			out = append(out, s)
			known[s] = true
		}
	}
	var rest []Stage
	for s := range m {
		if !known[s] {
			rest = append(rest, s)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
	return append(out, rest...)
}
