package evalcache

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzCacheLoad opens a cache on a directory holding arbitrary
// entries.jsonl, entries-1.jsonl and stats.json bytes, with compaction
// armed and a shard count that reroutes entries. Opening must never
// panic or fail, and reopening the directory the first cache closed
// must load the same live entries. The corpus under testdata/fuzz
// holds stores the kill matrices tore mid-append and mid-compaction.
func FuzzCacheLoad(f *testing.F) {
	f.Add([]byte(`{"stage":"check","hash":"a","val":1}
{"stage":"sim","hash":"b","val":{"lut":2}}
{"stage":"check","hash":"a","val":3}
{"stage":"fuzz","ha`),
		[]byte(`{"stage":"difftest","hash":"c","val":[true,null]}
`),
		[]byte(`{"stages":{"check":{"hits":1,"misses":2,"stores":3,"evictions":0}},"disk_loaded":4}`))
	f.Fuzz(func(t *testing.T, entries, entries1, stats []byte) {
		dir := t.TempDir()
		for name, data := range map[string][]byte{entriesFile: entries, shardFile(1): entries1, statsFile: stats} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		load := func(opts Options) map[key]string {
			opts.Dir = dir
			c, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			live := map[key]string{}
			for _, sh := range c.shards {
				for k, raw := range sh.disk {
					// Compaction re-encodes values; compare them canonically.
					b, err := json.Marshal(raw)
					if err != nil {
						t.Fatalf("loaded value %q does not re-encode: %v", raw, err)
					}
					live[k] = string(b)
				}
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			return live
		}
		first := load(Options{Shards: 3, CompactMinBytes: 1})
		if second := load(Options{}); !reflect.DeepEqual(first, second) {
			t.Fatalf("reopening changed the live entries:\n%v\n---\n%v", first, second)
		}
		if _, err := SummarizeDir(dir); err != nil {
			t.Fatal(err)
		}
	})
}
