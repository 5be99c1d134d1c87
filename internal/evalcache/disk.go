package evalcache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/hetero/heterogen/internal/jsonlog"
)

// The persistent tier is a set of append-only JSONL files plus a small
// statistics sidecar:
//
//	<dir>/entries.jsonl       shard 0 (and the whole store when unsharded)
//	<dir>/entries-<i>.jsonl   shard i > 0 of a sharded cache
//	<dir>/stats.json          cumulative Stats merged on every Close
//
// The files are internal/jsonlog logs, and append-only JSONL makes the
// store crash-tolerant by construction: a process killed mid-write
// leaves at most one truncated final line, which the loader skips (and
// counts) like any other corrupt line.
// Duplicate lines are legal — the last write for a key wins, matching
// overwrite semantics of the in-memory tier. On open, *every* entries
// file present is loaded regardless of the current shard count; which
// file an entry lands in is a write-side detail, never part of its
// address, so a directory written with one Shards value serves a cache
// opened with any other.

const (
	entriesFile = "entries.jsonl"
	statsFile   = "stats.json"
)

// shardFile names shard i's append file. Shard 0 keeps the historical
// single-file name, so unsharded directories stay byte-compatible.
func shardFile(i int) string {
	if i == 0 {
		return entriesFile
	}
	return fmt.Sprintf("entries-%d.jsonl", i)
}

// entriesFiles lists the entry files present in dir, entries.jsonl
// first then entries-<i>.jsonl in name order.
func entriesFiles(dir string) []string {
	var files []string
	if _, err := os.Stat(filepath.Join(dir, entriesFile)); err == nil {
		files = append(files, entriesFile)
	}
	extra, _ := filepath.Glob(filepath.Join(dir, "entries-*.jsonl"))
	sort.Strings(extra)
	for _, p := range extra {
		files = append(files, filepath.Base(p))
	}
	return files
}

// diskEntry is the JSONL line format.
type diskEntry struct {
	Stage Stage           `json:"stage"`
	Hash  string          `json:"hash"`
	Val   json.RawMessage `json:"val"`
}

// diskStore is one shard's open append handle. f is the file it
// appends to, which TestFailedAppendDegradesOnce closes behind the
// store's back to make an append fail.
type diskStore struct {
	*jsonlog.Appender
	f *os.File
}

// scanDir loads every well-formed entry from every entries file in dir
// and counts the malformed lines. Malformed lines are skipped, never
// fatal: the cache must survive a corrupted or truncated store (e.g. a
// run killed mid-write). Last write wins within a file; across files
// the load order is fixed, and duplicate keys across files only arise
// from shard-count changes, where either copy is valid.
func scanDir(dir string) (map[key]json.RawMessage, int64) {
	loaded := map[key]json.RawMessage{}
	var skipped int64
	for _, name := range entriesFiles(dir) {
		lines, _ := jsonlog.Lines(filepath.Join(dir, name))
		for _, line := range lines {
			var e diskEntry
			if json.Unmarshal(line, &e) != nil || e.Stage == "" || e.Hash == "" || len(e.Val) == 0 {
				skipped++
				continue
			}
			loaded[key{e.Stage, e.Hash}] = e.Val
		}
	}
	return loaded, skipped
}

// openAppend opens shard i's entries file for append.
func openAppend(dir string, i int) (*diskStore, error) {
	log, err := jsonlog.OpenAppender(filepath.Join(dir, shardFile(i)), "evalcache.append")
	if err != nil {
		return nil, fmt.Errorf("evalcache: open store: %w", err)
	}
	return &diskStore{Appender: log, f: log.File()}, nil
}

// put appends one entry line and hands it to the kernel, so a killed
// process keeps every verdict it stored: hgserve resumes an interrupted
// job by re-running it against this cache. It never fsyncs: a tail lost
// to power failure costs only recomputation.
func (s *diskStore) put(k key, raw json.RawMessage) error {
	line, err := json.Marshal(diskEntry{Stage: k.stage, Hash: k.hash, Val: raw})
	if err != nil {
		return err
	}
	if err := s.Append(line); err != nil {
		return err
	}
	return s.Flush()
}

// mergeSidecar merges one cache's lifetime statistics into the
// cumulative stats.json sidecar, replacing it atomically so a kill
// mid-write cannot truncate the counts. A corrupt or missing sidecar
// restarts the count rather than failing.
func mergeSidecar(dir string, stats Stats) error {
	path := filepath.Join(dir, statsFile)
	var prior Stats
	if data, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(data, &prior)
	}
	data, err := json.MarshalIndent(prior.merge(stats), "", "  ")
	if err != nil {
		return err
	}
	return jsonlog.Rewrite(path, func(w jsonlog.Writer) {
		w.Write(append(data, '\n'))
	})
}

// DirSummary describes a persistent cache directory: the live entry
// population (after last-write-wins dedup, across every shard file)
// and the cumulative statistics of every run that wrote to it.
type DirSummary struct {
	Dir string `json:"dir"`
	// Files counts the entries files present (1 for an unsharded
	// store, one per shard otherwise).
	Files int `json:"files,omitempty"`
	// Entries / Bytes count live entries and their serialized size per
	// stage.
	Entries map[Stage]int   `json:"entries,omitempty"`
	Bytes   map[Stage]int64 `json:"bytes,omitempty"`
	// Skipped counts malformed entry lines encountered in this scan.
	Skipped int64 `json:"skipped,omitempty"`
	// Stats is the cumulative activity from stats.json (zero when no
	// run has closed the cache yet).
	Stats Stats `json:"stats"`
}

// SummarizeDir scans a persistent cache directory for reporting
// (hgstat's cache section). Missing files yield an empty summary, not
// an error; the error is reserved for an unreadable directory.
func SummarizeDir(dir string) (DirSummary, error) {
	sum := DirSummary{Dir: dir}
	if _, err := os.Stat(dir); err != nil {
		return sum, fmt.Errorf("evalcache: %w", err)
	}
	live, skipped := scanDir(dir)
	sum.Files, sum.Skipped = len(entriesFiles(dir)), skipped
	for k, raw := range live {
		if sum.Entries == nil {
			sum.Entries = map[Stage]int{}
			sum.Bytes = map[Stage]int64{}
		}
		sum.Entries[k.stage]++
		sum.Bytes[k.stage] += int64(len(raw))
	}
	if data, err := os.ReadFile(filepath.Join(dir, statsFile)); err == nil {
		_ = json.Unmarshal(data, &sum.Stats)
	}
	return sum, nil
}

// Text renders the summary for terminal output.
func (s DirSummary) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== evaluation cache (%s) ==\n", s.Dir)
	total := 0
	for _, n := range s.Entries {
		total += n
	}
	if total == 0 {
		sb.WriteString("no persistent entries\n")
	}
	for _, stage := range sortedStages(statsToStages(s.Entries)) {
		fmt.Fprintf(&sb, "%-10s %6d entries %10d bytes\n", stage, s.Entries[stage], s.Bytes[stage])
	}
	if s.Files > 1 {
		fmt.Fprintf(&sb, "sharded across %d entry files\n", s.Files)
	}
	if s.Skipped > 0 {
		fmt.Fprintf(&sb, "skipped %d malformed line(s)\n", s.Skipped)
	}
	if len(s.Stats.Stages) > 0 {
		sb.WriteString("cumulative across runs:\n")
		for _, stage := range sortedStages(s.Stats.Stages) {
			st := s.Stats.Stages[stage]
			hitRate := 0.0
			if st.Hits+st.Misses > 0 {
				hitRate = 100 * float64(st.Hits) / float64(st.Hits+st.Misses)
			}
			fmt.Fprintf(&sb, "%-10s %6d hits %6d misses (%.0f%% hit rate) %6d stores %d evictions\n",
				stage, st.Hits, st.Misses, hitRate, st.Stores, st.Evictions)
		}
	}
	return sb.String()
}

// statsToStages adapts an entry-count map to sortedStages' shape.
func statsToStages(m map[Stage]int) map[Stage]StageStats {
	out := make(map[Stage]StageStats, len(m))
	for k := range m {
		out[k] = StageStats{}
	}
	return out
}
