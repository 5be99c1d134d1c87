package main

// The crash-smoke gate (`make crash-smoke`, CRASH_SMOKE=1): a
// kill matrix over the real binary. Each scenario arms one injected
// crash point via the HETEROGEN_CRASHPOINT env var, lets the daemon
// SIGKILL itself mid-write, restarts it on the same -state-dir, and
// asserts the recovery invariants:
//
//   - the journal always reloads (torn tails are healed, never fatal);
//   - every job a client saw a 202 for is findable after restart;
//   - an interrupted repair job re-runs against the on-disk cache to a
//     result AND event trace byte-identical to an undisturbed control
//     run, recomputing only what the cache did not hold;
//   - terminal jobs are re-reported with their original payload;
//   - SIGTERM drains and exits 0.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/hetero/heterogen/internal/crashpoint"
)

// crashJobBody is the fixed repair job every scenario runs: the long
// double in smokeSource forces a rewrite search, whose initial version
// and two candidates each store a check, sim and difftest verdict —
// six eval-cache appends.
var crashJobBody = fmt.Sprintf(
	`{"kind":"repair","kernel":"top","source":%q,"budget":{"max_iterations":32,"workers":1}}`,
	smokeSource)

// daemon is one hgserve process under test.
type daemon struct {
	cmd  *exec.Cmd
	base string
}

// startDaemon launches the built binary on a free port with durability
// on; the eval cache takes its default place under stateDir. arm, when
// non-empty, is a HETEROGEN_CRASHPOINT spec.
func startDaemon(t *testing.T, bin, stateDir, arm string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0",
		"-state-dir", stateDir, "-drain-timeout", "2s", "-log", "text")
	cmd.Env = os.Environ()
	if arm != "" {
		cmd.Env = append(cmd.Env, crashpoint.EnvVar+"="+arm)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("reading startup line: %v", err)
	}
	base, ok := strings.CutPrefix(strings.TrimSpace(line), "hgserve: listening on ")
	if !ok {
		t.Fatalf("unexpected startup line %q", line)
	}
	go io.Copy(io.Discard, stdout)
	return &daemon{cmd: cmd, base: base}
}

// waitDeath waits for the daemon process to exit and reports whether
// it died by SIGKILL (the armed crash point firing).
func (d *daemon) waitDeath(t *testing.T, within time.Duration) bool {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case <-done:
		return d.cmd.ProcessState.ExitCode() == -1
	case <-time.After(within):
		d.cmd.Process.Kill()
		<-done
		t.Fatalf("daemon still alive after %v; armed crash point never fired", within)
		return false
	}
}

// sigterm drains the daemon and asserts the documented exit code 0.
func (d *daemon) sigterm(t *testing.T) {
	t.Helper()
	_ = d.cmd.Process.Signal(os.Interrupt)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case <-done:
		if code := d.cmd.ProcessState.ExitCode(); code != 0 {
			t.Errorf("drain exited %d, want 0", code)
		}
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-done
		t.Error("daemon did not drain within 30s")
	}
}

type crashStatus struct {
	ID      string          `json:"id"`
	State   string          `json:"state"`
	Resumed bool            `json:"resumed"`
	Result  json.RawMessage `json:"result"`
}

// submitJob posts the fixed repair job; losing the connection mid-POST
// (an armed journal-append kill) returns ok=false.
func submitJob(t *testing.T, base string) (crashStatus, bool) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(crashJobBody))
	if err != nil {
		return crashStatus{}, false
	}
	defer resp.Body.Close()
	var st crashStatus
	if resp.StatusCode != http.StatusAccepted || json.NewDecoder(resp.Body).Decode(&st) != nil {
		return crashStatus{}, false
	}
	return st, true
}

// awaitDone polls a job to the done state and returns its status.
func awaitDone(t *testing.T, base, id string) crashStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("poll %s: %v", id, err)
		}
		var st crashStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("poll %s: %v", id, err)
		}
		switch st.State {
		case "done":
			return st
		case "failed", "cancelled":
			t.Fatalf("job %s ended %s", id, st.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 2m", id, st.State)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// cacheMisses sums the daemon's cache.misses.<stage> counters: the
// evaluations this process had to compute.
func cacheMisses(t *testing.T, base string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reg struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	var n int64
	for k, v := range reg.Counters {
		if strings.HasPrefix(k, "cache.misses.") {
			n += v
		}
	}
	return n
}

// jobEvents fetches a terminal job's full NDJSON event stream.
func jobEvents(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCrashSmoke(t *testing.T) {
	if os.Getenv("CRASH_SMOKE") == "" {
		t.Skip("set CRASH_SMOKE=1 (make crash-smoke) to run")
	}

	bin := filepath.Join(t.TempDir(), "hgserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build: %v", err)
	}

	// Control: one undisturbed run establishes the expected result and
	// event trace for the fixed job, plus the SIGTERM exit-0 contract.
	var wantResult, wantEvents []byte
	var wantMisses int64
	t.Run("control", func(t *testing.T) {
		d := startDaemon(t, bin, filepath.Join(t.TempDir(), "state"), "")
		st, ok := submitJob(t, d.base)
		if !ok {
			t.Fatal("control submit failed")
		}
		final := awaitDone(t, d.base, st.ID)
		wantResult = append([]byte(nil), final.Result...)
		wantEvents = jobEvents(t, d.base, st.ID)
		wantMisses = cacheMisses(t, d.base)
		if len(wantResult) == 0 || len(wantEvents) == 0 {
			t.Fatal("control run produced no result or events")
		}
		d.sigterm(t)
	})
	if t.Failed() {
		t.Fatal("control run failed; kill matrix aborted")
	}

	// assertParity restarts on stateDir and checks the job recovers to
	// the control result and trace, byte for byte, computing exactly
	// misses evaluations.
	assertParity := func(t *testing.T, stateDir, id string, misses int64) {
		d := startDaemon(t, bin, stateDir, "")
		final := awaitDone(t, d.base, id)
		if !bytes.Equal(final.Result, wantResult) {
			t.Errorf("recovered result differs from control:\n got %s\nwant %s", final.Result, wantResult)
		}
		if got := jobEvents(t, d.base, id); !bytes.Equal(got, wantEvents) {
			t.Errorf("recovered event trace differs from control (%d vs %d bytes)", len(got), len(wantEvents))
		}
		if got := cacheMisses(t, d.base); got != misses {
			t.Errorf("recovered run computed %d evaluations, want %d", got, misses)
		}
		d.sigterm(t)
	}

	// Mid-journal-append: the accepted record tears before the client
	// ever sees 202, so after restart the store is healed and empty —
	// no job was promised, none is owed.
	t.Run("kill-mid-journal-append", func(t *testing.T) {
		stateDir := filepath.Join(t.TempDir(), "state")
		d := startDaemon(t, bin, stateDir, "serve.journal.append:1")
		if _, ok := submitJob(t, d.base); ok {
			t.Fatal("submit returned 202 despite dying mid-journal-append")
		}
		if !d.waitDeath(t, 30*time.Second) {
			t.Fatal("daemon exited normally; crash point never fired")
		}
		d2 := startDaemon(t, bin, stateDir, "")
		resp, err := http.Get(d2.base + "/v1/jobs/j-000001")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unacknowledged job resurrected: GET = %d, want 404", resp.StatusCode)
		}
		// The healed store accepts and completes fresh work with parity.
		st, ok := submitJob(t, d2.base)
		if !ok {
			t.Fatal("submit after recovery failed")
		}
		final := awaitDone(t, d2.base, st.ID)
		if !bytes.Equal(final.Result, wantResult) {
			t.Errorf("post-recovery result differs from control")
		}
		d2.sigterm(t)
	})

	// Mid-cache-write: the job dies mid-append to the persistent eval
	// cache, leaving a torn cache line the loader must skip. N varies
	// the interrupt depth: at 1 nothing is cached yet, at 3 and 5 the
	// kill lands mid-search with N-1 verdicts already on disk. The
	// requeued job re-runs from the start with parity and computes only
	// the verdicts the cache lacks.
	for _, n := range []int{1, 3, 5} {
		t.Run(fmt.Sprintf("kill-mid-cache-write-%d", n), func(t *testing.T) {
			stateDir := filepath.Join(t.TempDir(), "state")
			d := startDaemon(t, bin, stateDir, fmt.Sprintf("evalcache.append:%d", n))
			st, ok := submitJob(t, d.base)
			if !ok {
				t.Fatal("submit failed")
			}
			if !d.waitDeath(t, 60*time.Second) {
				t.Fatal("daemon exited normally; crash point never fired")
			}
			assertParity(t, stateDir, st.ID, wantMisses-int64(n-1))
		})
	}

	// Mid-drain: SIGTERM starts the drain and the process is killed at
	// the drain's journal-flush boundary; the finished job's terminal
	// record was already durable and is re-reported after restart.
	t.Run("kill-mid-drain", func(t *testing.T) {
		stateDir := filepath.Join(t.TempDir(), "state")
		d := startDaemon(t, bin, stateDir, "serve.drain:1")
		st, ok := submitJob(t, d.base)
		if !ok {
			t.Fatal("submit failed")
		}
		awaitDone(t, d.base, st.ID)
		_ = d.cmd.Process.Signal(os.Interrupt)
		if !d.waitDeath(t, 30*time.Second) {
			t.Fatal("daemon exited normally; drain crash point never fired")
		}
		d2 := startDaemon(t, bin, stateDir, "")
		final := awaitDone(t, d2.base, st.ID)
		if !final.Resumed {
			t.Error("re-reported terminal job not marked resumed")
		}
		if !bytes.Equal(final.Result, wantResult) {
			t.Errorf("re-reported result differs from control")
		}
		d2.sigterm(t)
	})

	// Hard kill after terminal: no crash point, just SIGKILL once the
	// job is done — the baseline durability promise.
	t.Run("hard-kill-after-terminal", func(t *testing.T) {
		stateDir := filepath.Join(t.TempDir(), "state")
		d := startDaemon(t, bin, stateDir, "")
		st, ok := submitJob(t, d.base)
		if !ok {
			t.Fatal("submit failed")
		}
		awaitDone(t, d.base, st.ID)
		_ = d.cmd.Process.Kill()
		_ = d.cmd.Wait()
		d2 := startDaemon(t, bin, stateDir, "")
		final := awaitDone(t, d2.base, st.ID)
		if !bytes.Equal(final.Result, wantResult) {
			t.Errorf("re-reported result differs from control")
		}
		d2.sigterm(t)
	})
}
