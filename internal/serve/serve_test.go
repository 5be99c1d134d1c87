package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/hetero/heterogen/internal/chaos"
	"github.com/hetero/heterogen/internal/evalcache"
	"github.com/hetero/heterogen/internal/guard"
	"github.com/hetero/heterogen/internal/subjects"
)

// startServer spins up a Server behind an httptest listener and tears
// both down with the test.
func startServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postJob submits a job over HTTP and returns the decoded response
// body plus the raw response.
func postJob(t *testing.T, ts *httptest.Server, req Request, client string) (Status, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if client != "" {
		hreq.Header.Set("X-Client-ID", client)
	}
	resp, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return st, resp
}

// getStatus fetches one job status.
func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// awaitTerminal polls a job until it reaches a final state.
func awaitTerminal(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return Status{}
}

// eventBody fetches the full NDJSON event stream of a terminal job.
func eventBody(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events: status %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func subjectP2(t *testing.T) subjects.Subject {
	t.Helper()
	s, err := subjects.ByID("P2")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// smallBudget keeps e2e jobs fast while exercising every stage.
func smallBudget() Budget {
	return Budget{FuzzExecs: 150, MaxIterations: 32, Workers: 1}
}

// TestJobHappyPath drives one job of every kind over HTTP end to end
// and checks each kind's result payload.
func TestJobHappyPath(t *testing.T) {
	sub := subjectP2(t)
	_, ts := startServer(t, Options{})
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			st, resp := postJob(t, ts, Request{
				Kind: kind, Source: sub.Source, Kernel: sub.Kernel, Budget: smallBudget(),
			}, "")
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: status %d", resp.StatusCode)
			}
			if st.State != StateQueued && st.State != StateRunning {
				t.Fatalf("fresh job state = %q", st.State)
			}
			fin := awaitTerminal(t, ts, st.ID)
			if fin.State != StateDone {
				t.Fatalf("state = %q (error %q)", fin.State, fin.Error)
			}
			if fin.Result == nil {
				t.Fatal("terminal job has no result")
			}
			switch kind {
			case KindTranspile:
				r := fin.Result.Transpile
				if r == nil || r.Source == "" || r.Tests == 0 {
					t.Fatalf("transpile result incomplete: %+v", r)
				}
			case KindCheck:
				r := fin.Result.Check
				if r == nil || r.OK || r.Errors == 0 {
					t.Fatalf("check result should report P2's HLS errors: %+v", r)
				}
			case KindRepair:
				r := fin.Result.Repair
				if r == nil || r.Source == "" || r.Candidates == 0 {
					t.Fatalf("repair result incomplete: %+v", r)
				}
			case KindFuzz:
				r := fin.Result.Fuzz
				if r == nil || r.Execs == 0 || r.Tests == 0 {
					t.Fatalf("fuzz result incomplete: %+v", r)
				}
			}
			if fin.Events == 0 && kind != KindCheck {
				t.Errorf("%s job emitted no events", kind)
			}
			if ev := eventBody(t, ts, st.ID); kind != KindCheck && len(ev) == 0 {
				t.Errorf("%s job has an empty event stream", kind)
			}
		})
	}
}

// TestBudgetClampEcho: a request asking beyond the server limits gets
// the clamped effective budget echoed back.
func TestBudgetClampEcho(t *testing.T) {
	sub := subjectP2(t)
	_, ts := startServer(t, Options{
		Limits: Budget{FuzzExecs: 200, MaxIterations: 8, InterpSteps: 1_000_000},
	})
	st, resp := postJob(t, ts, Request{
		Kind: KindFuzz, Source: sub.Source, Kernel: sub.Kernel,
		Budget: Budget{FuzzExecs: 1_000_000_000, MaxIterations: 9999, InterpSteps: 1 << 60},
	}, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if st.Budget.FuzzExecs != 200 || st.Budget.MaxIterations != 8 || st.Budget.InterpSteps != 1_000_000 {
		t.Fatalf("budget not clamped: %+v", st.Budget)
	}
	awaitTerminal(t, ts, st.ID)
}

// TestTranspileJobHonoursStepBudget: a transpile job's fuzz stage runs
// under the job's interp_steps budget, exactly as a fuzz job does. The
// kernel's loop outlasts 300 steps, so under that budget no execution
// reaches the branch after it.
func TestTranspileJobHonoursStepBudget(t *testing.T) {
	const src = `
int kernel(int n) {
    int s = 0;
    for (int i = 0; i < 1000; i++) { s += i; }
    if (n > 5) { return s; }
    return -s;
}`
	_, ts := startServer(t, Options{})
	run := func(kind Kind, steps int64) Status {
		t.Helper()
		st, resp := postJob(t, ts, Request{Kind: kind, Source: src, Kernel: "kernel",
			Budget: Budget{FuzzExecs: 40, MaxIterations: 2, Workers: 1, InterpSteps: steps}}, "")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s submit: status %d", kind, resp.StatusCode)
		}
		fin := awaitTerminal(t, ts, st.ID)
		if fin.State != StateDone {
			t.Fatalf("%s job state = %q (error %q)", kind, fin.State, fin.Error)
		}
		return fin
	}
	full := run(KindFuzz, 0).Result.Fuzz
	bounded := run(KindFuzz, 300).Result.Fuzz
	if bounded.Coverage >= full.Coverage {
		t.Fatalf("a 300-step budget did not bound the fuzz job: coverage %v, unbounded %v",
			bounded.Coverage, full.Coverage)
	}
	tr := run(KindTranspile, 300).Result.Transpile
	if tr.Coverage != bounded.Coverage || tr.Tests != bounded.Tests {
		t.Errorf("transpile job's campaign (coverage %v, %d tests) ignores the step budget; the fuzz job under it has coverage %v, %d tests",
			tr.Coverage, tr.Tests, bounded.Coverage, bounded.Tests)
	}
}

// TestCancelMidRun: cancelling a running job at a commit point leaves
// the best-so-far partial result behind.
func TestCancelMidRun(t *testing.T) {
	sub := subjectP2(t)
	_, ts := startServer(t, Options{})
	st, resp := postJob(t, ts, Request{
		Kind: KindFuzz, Source: sub.Source, Kernel: sub.Kernel,
		Budget: Budget{FuzzExecs: 20_000},
	}, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	// Wait until the campaign has demonstrably committed executions,
	// then cancel mid-run.
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur := getStatus(t, ts, st.ID)
		if cur.State == StateRunning && cur.Events >= 5 {
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("job finished before it could be cancelled (state %s)", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started emitting events")
		}
		time.Sleep(2 * time.Millisecond)
	}
	hreq, err := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dresp, err := ts.Client().Do(hreq); err != nil {
		t.Fatal(err)
	} else {
		dresp.Body.Close()
		if dresp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE: status %d", dresp.StatusCode)
		}
	}
	fin := awaitTerminal(t, ts, st.ID)
	if fin.State != StateCancelled {
		t.Fatalf("state = %q, want cancelled", fin.State)
	}
	if fin.Result == nil || !fin.Result.Partial || fin.Result.Fuzz == nil {
		t.Fatalf("cancelled job lost its partial result: %+v", fin.Result)
	}
	if fin.Result.Fuzz.Execs == 0 {
		t.Error("partial campaign reports zero executions")
	}
	if fin.Result.Fuzz.Execs >= 20_000 {
		t.Error("campaign ran to completion despite cancellation")
	}
}

// TestQueueFullBackpressure: with the pool gated shut and the queue
// full, the next submission is rejected with 429 + Retry-After instead
// of queueing unboundedly.
func TestQueueFullBackpressure(t *testing.T) {
	sub := subjectP2(t)
	s := newServer(Options{Pool: 1, QueueDepth: 1, PerClient: -1})
	s.gate = make(chan struct{})
	s.start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	req := Request{Kind: KindCheck, Source: sub.Source, Kernel: sub.Kernel}

	_, r1 := postJob(t, ts, req, "")
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: status %d", r1.StatusCode)
	}
	// Wait for the worker to dequeue job 1 (it parks at the gate), so
	// the single queue slot is free for job 2.
	for i := 0; s.metrics.Counter("serve.queue.depth") != 0; i++ {
		if i > 2000 {
			t.Fatal("worker never dequeued job 1")
		}
		time.Sleep(time.Millisecond)
	}
	_, r2 := postJob(t, ts, req, "")
	if r2.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: status %d", r2.StatusCode)
	}
	st3, r3 := postJob(t, ts, req, "")
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: status %d, want 429", r3.StatusCode)
	}
	if r3.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if st3.ID != "" {
		t.Error("rejected job got an id")
	}
	if n := s.metrics.Counter("serve.jobs.rejected.queue_full"); n != 1 {
		t.Errorf("serve.jobs.rejected.queue_full = %d, want 1", n)
	}
	close(s.gate)
}

// TestPerClientCap: one client cannot occupy the whole server; a
// second client is still admitted.
func TestPerClientCap(t *testing.T) {
	sub := subjectP2(t)
	s := newServer(Options{Pool: 1, QueueDepth: 8, PerClient: 1})
	s.gate = make(chan struct{})
	s.start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	req := Request{Kind: KindCheck, Source: sub.Source, Kernel: sub.Kernel}

	if _, r := postJob(t, ts, req, "alice"); r.StatusCode != http.StatusAccepted {
		t.Fatalf("alice job 1: status %d", r.StatusCode)
	}
	if _, r := postJob(t, ts, req, "alice"); r.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice job 2: status %d, want 429", r.StatusCode)
	}
	if _, r := postJob(t, ts, req, "bob"); r.StatusCode != http.StatusAccepted {
		t.Fatalf("bob job 1: status %d", r.StatusCode)
	}
	if n := s.metrics.Counter("serve.jobs.rejected.client_cap"); n != 1 {
		t.Errorf("serve.jobs.rejected.client_cap = %d, want 1", n)
	}
	close(s.gate)
}

// TestChaosJobTypedFailure: an injected stage fault fails the one job
// with a typed StageFailure in its status — and the daemon keeps
// serving.
func TestChaosJobTypedFailure(t *testing.T) {
	sub := subjectP2(t)
	_, ts := startServer(t, Options{
		Injector: chaos.Always(guard.StageCheck, guard.ClassPanic),
	})
	st, resp := postJob(t, ts, Request{
		Kind: KindCheck, Source: sub.Source, Kernel: sub.Kernel,
	}, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	fin := awaitTerminal(t, ts, st.ID)
	if fin.State != StateFailed {
		t.Fatalf("state = %q, want failed", fin.State)
	}
	if fin.Failure == nil {
		t.Fatalf("no typed failure on chaos-failed job (error %q)", fin.Error)
	}
	if fin.Failure.Stage != guard.StageCheck || fin.Failure.Class != guard.ClassPanic || !fin.Failure.Injected {
		t.Errorf("failure = %+v, want injected check/panic", fin.Failure)
	}
	// The server survived: healthz answers and admits the next job.
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after chaos job: status %d", hresp.StatusCode)
	}
	if _, r := postJob(t, ts, Request{Kind: KindCheck, Source: sub.Source, Kernel: sub.Kernel}, ""); r.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after chaos job: status %d", r.StatusCode)
	}
}

// TestEventStreamWorkerParity: the streamed event log is byte-identical
// for any Workers value (and cache temperature) — the server inherits
// the pipeline's commit-in-order determinism contract.
func TestEventStreamWorkerParity(t *testing.T) {
	sub := subjectP2(t)
	cache, err := evalcache.New(evalcache.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startServer(t, Options{Cache: cache})
	run := func(workers int) []byte {
		b := smallBudget()
		b.Workers = workers
		st, resp := postJob(t, ts, Request{
			Kind: KindTranspile, Source: sub.Source, Kernel: sub.Kernel, Budget: b,
		}, "")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit workers=%d: status %d", workers, resp.StatusCode)
		}
		if fin := awaitTerminal(t, ts, st.ID); fin.State != StateDone {
			t.Fatalf("workers=%d: state %q (error %q)", workers, fin.State, fin.Error)
		}
		return eventBody(t, ts, st.ID)
	}
	seq := run(1)
	if len(seq) == 0 {
		t.Fatal("empty event stream")
	}
	if !bytes.HasSuffix(seq, []byte("\n")) {
		t.Error("stream is not newline-terminated NDJSON")
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(seq), "\n"), "\n") {
		if !json.Valid([]byte(line)) {
			t.Fatalf("invalid NDJSON line: %q", line)
		}
	}
	for _, workers := range []int{1, 4} {
		got := run(workers) // warm cache on the second workers=1 run
		if !bytes.Equal(seq, got) {
			t.Errorf("workers=%d event stream differs from sequential baseline (%d vs %d bytes)",
				workers, len(got), len(seq))
		}
	}
}

// TestUnknownJobAndBadRequests pins the API's error envelope.
func TestUnknownJobAndBadRequests(t *testing.T) {
	sub := subjectP2(t)
	_, ts := startServer(t, Options{})
	if resp, err := ts.Client().Get(ts.URL + "/v1/jobs/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
		}
	}
	for name, req := range map[string]Request{
		"bad kind":  {Kind: "explode", Source: sub.Source, Kernel: sub.Kernel},
		"no source": {Kind: KindCheck, Kernel: sub.Kernel},
		"no kernel": {Kind: KindCheck, Source: sub.Source},
	} {
		if _, resp := postJob(t, ts, req, ""); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader("{not json")); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
		}
	}
}

// TestMetricsAndHealthz: the registry endpoint serves both formats and
// counts terminal jobs.
func TestMetricsAndHealthz(t *testing.T) {
	sub := subjectP2(t)
	_, ts := startServer(t, Options{})
	st, _ := postJob(t, ts, Request{Kind: KindCheck, Source: sub.Source, Kernel: sub.Kernel}, "")
	awaitTerminal(t, ts, st.ID)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if doc.Counters["serve.jobs.submitted"] != 1 || doc.Counters["serve.jobs.done"] != 1 {
		t.Errorf("metrics counters off: %+v", doc.Counters)
	}
	tresp, err := ts.Client().Get(ts.URL + "/metrics?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if !strings.Contains(string(text), "serve_jobs_submitted_total 1") {
		t.Errorf("text metrics missing Prometheus serve counter:\n%s", text)
	}
	if !strings.Contains(string(text), "# TYPE serve_jobs_submitted_total counter") {
		t.Error("text metrics missing # TYPE line")
	}
	if !strings.Contains(string(text), "runtime_goroutines") {
		t.Error("text metrics missing runtime gauges")
	}
	presp, err := ts.Client().Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	ptext, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	if !strings.Contains(string(ptext), "serve_jobs_submitted_total 1") {
		t.Errorf("format=prometheus missing serve counter:\n%s", ptext)
	}
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if ok, _ := health["ok"].(bool); !ok {
		t.Errorf("healthz not ok: %v", health)
	}
}
