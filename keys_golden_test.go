package heterogen

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/hetero/heterogen/internal/baselines"
	"github.com/hetero/heterogen/internal/guard"
	"github.com/hetero/heterogen/internal/subjects"
)

// keyRun is one named configuration of TestOptionKeysGolden.
type keyRun struct {
	name string
	opts Options
}

// keyRuns are the configurations whose keys are pinned: the paper's
// defaults, heterogen -quick's fuzz options, the three repair
// baselines of §6.3–6.4, a two-target set and a guard step budget.
func keyRuns() []keyRun {
	return []keyRun{
		{"defaults", Options{}},
		{"quick", Options{Fuzz: FuzzOptions{MaxExecs: 250, Plateau: 100}}},
		{"hr", Options{Repair: baselines.HeteroRefactorOptions()}},
		{"without_checker", Options{Repair: baselines.WithoutCheckerOptions()}},
		{"without_dependence", Options{Repair: baselines.WithoutDependenceOptions()}},
		{"two_targets", Options{Targets: []Target{
			{Backend: "vivado_hls", Device: "zc706"}, {Backend: "vitis", Device: "aws_f1"}}}},
		{"guard_steps_300", Options{Guard: guard.New(guard.Options{InterpSteps: 300})}},
	}
}

// optionKeys is what one run wrote to disk: the fuzz campaign's
// evaluation-cache key and the repair checkpoint's header key.
type optionKeys struct {
	Config     string `json:"config"`
	FuzzKey    string `json:"fuzz_key"`
	Checkpoint string `json:"checkpoint_key"`
}

// TestOptionKeysGolden pins the keys that options feed. Each
// configuration transpiles P3 with a persistent evaluation cache and a
// repair checkpoint in a fresh directory; the fuzz campaign's key is
// read back from the cache's entries file and the checkpoint's key
// from its header line. Both name on-disk state that outlives a
// process, so a change that moves either key silently invalidates
// every cache and checkpoint written before it. testdata/keys.json is
// rewritten by `make golden` (go test -update).
func TestOptionKeysGolden(t *testing.T) {
	s, err := subjects.ByID("P3")
	if err != nil {
		t.Fatal(err)
	}
	var got []optionKeys
	for _, r := range keyRuns() {
		dir := t.TempDir()
		cache, err := NewCache(CacheOptions{Dir: filepath.Join(dir, "cache")})
		if err != nil {
			t.Fatal(err)
		}
		opts := r.opts
		opts.Kernel, opts.HostMain, opts.Cache = s.Kernel, s.HostMain, cache
		opts.Repair.CheckpointPath = filepath.Join(dir, "repair.ckpt")
		if _, err := Transpile(s.Source, opts); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if err := cache.Close(); err != nil {
			t.Fatal(err)
		}
		k := optionKeys{Config: r.name}
		for _, l := range jsonLines(t, filepath.Join(dir, "cache", "entries.jsonl")) {
			var e struct{ Stage, Hash string }
			if json.Unmarshal(l, &e) == nil && e.Stage == "fuzz" {
				k.FuzzKey = e.Hash
			}
		}
		var hdr struct{ Key string }
		if lines := jsonLines(t, opts.Repair.CheckpointPath); len(lines) > 0 {
			_ = json.Unmarshal(lines[0], &hdr)
		}
		k.Checkpoint = hdr.Key
		if k.FuzzKey == "" || k.Checkpoint == "" {
			t.Fatalf("%s: missing key on disk: %+v", r.name, k)
		}
		got = append(got, k)
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", "keys.json")
	if *updateExamples {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("option keys differ from %s:\n got: %s\nwant: %s", path, data, want)
	}
}

// jsonLines reads the lines of a JSONL file.
func jsonLines(t *testing.T, path string) [][]byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out [][]byte
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		out = append(out, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
