package evalcache

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"

	"github.com/hetero/heterogen/internal/crashpoint"
	"github.com/hetero/heterogen/internal/jsonlog"
)

// On-open compaction of the persistent tier.
//
// The append-only store accumulates garbage: overwritten entries (last
// write wins, but every write stays on disk), leftovers from
// shard-count changes, and skipped corrupt lines. Compaction rewrites
// the store to exactly the live entry set, routed under the current
// shard count, in deterministic (sorted-key) order.
//
// Crash safety is by construction, not by locking:
//
//  1. Each shard's new image builds as <file>.tmp (jsonlog.WriteTmp) —
//     a name neither entriesFiles' stat (entries.jsonl) nor its glob
//     (entries-*.jsonl) ever matches, so a half-written image is
//     invisible to every loader.
//  2. Every tmp is fsynced before any rename: once a rename lands, the
//     bytes behind it are on disk.
//  3. Renames are atomic per file. A kill between renames leaves a mix
//     of compacted and uncompacted shard files — every live entry is
//     present in one or the other (possibly both; entries are
//     content-addressed, so either copy is valid and last-write-wins
//     dedup is a no-op for true duplicates).
//  4. Files made stale by a shard-count shrink are deleted only after
//     every rename; a kill before that point merely leaves duplicates.
//
// The crashpoint.Here calls are the kill-matrix hooks: arming
// "evalcache.compact:N" SIGKILLs the process at the Nth step boundary,
// and the recovery test asserts no live entry is lost at any N.

// storeBytes totals the current entries files' sizes.
func storeBytes(dir string) int64 {
	var total int64
	for _, name := range entriesFiles(dir) {
		if fi, err := os.Stat(filepath.Join(dir, name)); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// compactGarbage is the garbage fraction (bytes not backing a live
// entry over total bytes) at which a store of at least
// Options.CompactMinBytes is rewritten.
const compactGarbage = 0.5

// compactionDue decides whether the store has enough garbage to be
// worth rewriting; it also returns the current store size so the
// caller can report the reduction.
func compactionDue(dir string, live map[key]json.RawMessage, minBytes int64) (bool, int64) {
	total := storeBytes(dir)
	if total < minBytes {
		return false, total
	}
	var liveBytes int64
	for k, raw := range live {
		if b, err := json.Marshal(diskEntry{Stage: k.stage, Hash: k.hash, Val: raw}); err == nil {
			liveBytes += int64(len(b)) + 1 // trailing newline
		}
	}
	return float64(total-liveBytes) >= compactGarbage*float64(total), total
}

// removeStaleTmps sweeps half-built shard images a crashed compaction
// left behind. They were never renamed into place, so removal can
// never lose data.
func removeStaleTmps(dir string) {
	tmps, _ := filepath.Glob(filepath.Join(dir, "entries*.jsonl.tmp"))
	for _, p := range tmps {
		os.Remove(p)
	}
}

// compactDir rewrites the store to exactly the live entries under
// nshards shard files. On error the store is left in a loadable state
// (any renamed shards are complete; the rest are the old files).
func compactDir(dir string, live map[key]json.RawMessage, nshards int) error {
	// Deterministic output: same live set → byte-identical files.
	keys := make([]key, 0, len(live))
	for k := range live {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].stage != keys[j].stage {
			return keys[i].stage < keys[j].stage
		}
		return keys[i].hash < keys[j].hash
	})

	// Step 1: build every shard's new image as an invisible tmp.
	for i := 0; i < nshards; i++ {
		err := jsonlog.WriteTmp(filepath.Join(dir, shardFile(i)), func(w jsonlog.Writer) {
			for _, k := range keys {
				if shardIndex(k.hash, nshards) == i {
					w.Put(diskEntry{Stage: k.stage, Hash: k.hash, Val: live[k]})
				}
			}
		})
		if err != nil {
			return err
		}
		crashpoint.Here("evalcache.compact")
	}

	// Step 2: atomically swap each shard file in.
	for i := 0; i < nshards; i++ {
		path := filepath.Join(dir, shardFile(i))
		if err := os.Rename(jsonlog.TmpPath(path), path); err != nil {
			return err
		}
		crashpoint.Here("evalcache.compact")
	}

	// Step 3: drop files outside the current shard layout (a shrink
	// from a higher shard count). Only now — before this point they
	// still back live entries the new images may not yet have covered.
	current := map[string]bool{}
	for i := 0; i < nshards; i++ {
		current[shardFile(i)] = true
	}
	for _, name := range entriesFiles(dir) {
		if !current[name] {
			os.Remove(filepath.Join(dir, name))
			crashpoint.Here("evalcache.compact")
		}
	}
	return nil
}
