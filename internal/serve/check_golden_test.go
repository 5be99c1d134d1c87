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
			got := rawCheckResult(t, ts.URL+"/v1/jobs/"+st.ID, ts.Client())
			path := filepath.Join("testdata", "golden", c.name+".json")
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
				t.Errorf("%s: check result differs from the fixture:\n--- recorded ---\n%s\n--- got ---\n%s", path, want, got)
			}
		})
	}
}

// rawCheckResult fetches a terminal job's status and returns the bytes
// of its result's check payload exactly as the server wrote them.
func rawCheckResult(t *testing.T, url string, client *http.Client) []byte {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Result struct {
			Check json.RawMessage `json:"check"`
		} `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Result.Check) == 0 {
		t.Fatal("terminal check job has no check result")
	}
	return append(st.Result.Check, '\n')
}
