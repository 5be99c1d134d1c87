package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current server instead of comparing")

// TestCheckJobGolden pins the JSON bytes of a check job's result for an
// untargeted job (top-level verdict and diagnostics, no per_target) and
// a two-target job (aggregate verdict plus one entry per target, in the
// submitted order) against testdata/golden. Regenerate with `make
// golden` only for an intended behaviour change.
func TestCheckJobGolden(t *testing.T) {
	sub := subjectP2(t)
	_, ts := startServer(t, Options{})
	for _, c := range []struct {
		name    string
		targets []string
	}{
		{"check_untargeted", nil},
		{"check_two_targets", []string{"vivado_hls:zc706", "vitis:aws_f1"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			st, resp := postJob(t, ts, Request{Kind: KindCheck, Source: sub.Source, Kernel: sub.Kernel,
				Targets: c.targets, Budget: smallBudget()}, "")
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: status %d", resp.StatusCode)
			}
			if fin := awaitTerminal(t, ts, st.ID); fin.State != StateDone {
				t.Fatalf("state = %q (error %q)", fin.State, fin.Error)
			}
			got := rawResult(t, ts.URL+"/v1/jobs/"+st.ID, ts.Client(), "check")
			compareGolden(t, filepath.Join("testdata", "golden", c.name+".json"), got)
		})
	}
}

// TestFuzzJobGolden pins a fuzz job on P2 against testdata/golden: the
// JSON bytes of its result and its NDJSON event stream (one event per
// execution plus the campaign summary). Regenerate with `make golden`
// only for an intended behaviour change.
func TestFuzzJobGolden(t *testing.T) {
	sub := subjectP2(t)
	_, ts := startServer(t, Options{})
	st, resp := postJob(t, ts, Request{Kind: KindFuzz, Source: sub.Source, Kernel: sub.Kernel,
		Budget: smallBudget()}, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if fin := awaitTerminal(t, ts, st.ID); fin.State != StateDone {
		t.Fatalf("state = %q (error %q)", fin.State, fin.Error)
	}
	compareGolden(t, filepath.Join("testdata", "golden", "fuzz_job.json"),
		rawResult(t, ts.URL+"/v1/jobs/"+st.ID, ts.Client(), "fuzz"))
	compareGolden(t, filepath.Join("testdata", "golden", "fuzz_job.events.jsonl"), eventBody(t, ts, st.ID))
}

// compareGolden checks got against the fixture at path, or rewrites the
// fixture under -update.
func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `make golden` to record fixtures)", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("%s: job output differs from the fixture:\n--- recorded ---\n%s\n--- got ---\n%s", path, want, got)
	}
}

// rawResult fetches a terminal job's status and returns the bytes of
// its result's payload for the named kind exactly as the server wrote
// them.
func rawResult(t *testing.T, url string, client *http.Client, kind string) []byte {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Result map[string]json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	raw := st.Result[kind]
	if len(raw) == 0 {
		t.Fatalf("terminal job has no %s result", kind)
	}
	return append(raw, '\n')
}
