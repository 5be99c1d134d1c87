package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/hetero/heterogen/internal/evalcache"
	"github.com/hetero/heterogen/internal/guard"
	"github.com/hetero/heterogen/internal/subjects"
)

// readJournal parses every well-formed record in a state dir's journal.
func readJournal(t *testing.T, stateDir string) []journalRecord {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(stateDir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	var recs []journalRecord
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err == nil {
			recs = append(recs, rec)
		}
	}
	return recs
}

// lastState returns a job's final journaled state ("" when absent).
func lastState(recs []journalRecord, id string) State {
	var st State
	for _, r := range recs {
		if r.ID == id {
			st = r.State
		}
	}
	return st
}

func deleteJob(t *testing.T, ts *httptest.Server, id string) *http.Response {
	t.Helper()
	hreq, err := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func readyzCode(t *testing.T, ts *httptest.Server) int {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// awaitRunning polls until the job is running and has emitted at least
// minEvents events (so an interrupt lands demonstrably mid-run).
func awaitRunning(t *testing.T, ts *httptest.Server, id string, minEvents int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State == StateRunning && st.Events >= minEvents {
			return
		}
		if st.State.Terminal() {
			t.Fatalf("job %s finished before it could be interrupted (state %s)", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never started running", id)
}

// mustJSON renders v deterministically for equality checks.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestJournalReplayTerminal: a finished job survives a restart — the
// new server re-reports the same id, state, and result payload from
// the journal, and the id sequence continues past it.
func TestJournalReplayTerminal(t *testing.T) {
	sub := subjectP2(t)
	dir := t.TempDir()

	s1 := New(Options{StateDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	st, resp := postJob(t, ts1, Request{
		Kind: KindRepair, Source: sub.Source, Kernel: sub.Kernel, Budget: smallBudget(),
	}, "client-a")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	fin := awaitTerminal(t, ts1, st.ID)
	if fin.State != StateDone {
		t.Fatalf("state = %q, want done", fin.State)
	}
	ts1.Close()
	s1.Close()

	s2 := New(Options{StateDir: dir})
	ts2 := httptest.NewServer(s2.Handler())
	defer func() { ts2.Close(); s2.Close() }()

	re := getStatus(t, ts2, st.ID)
	if re.State != StateDone {
		t.Fatalf("replayed state = %q, want done", re.State)
	}
	if !re.Resumed {
		t.Error("replayed terminal job not marked resumed")
	}
	if got, want := mustJSON(t, re.Result), mustJSON(t, fin.Result); got != want {
		t.Errorf("replayed result diverges from the original:\n  want: %s\n  got:  %s", want, got)
	}
	// The id sequence must not collide with journaled history.
	st2, resp2 := postJob(t, ts2, Request{
		Kind: KindCheck, Source: sub.Source, Kernel: sub.Kernel,
	}, "client-a")
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("post-restart submit: status %d", resp2.StatusCode)
	}
	if st2.ID == st.ID {
		t.Fatalf("restarted server reissued job id %s", st.ID)
	}
	awaitTerminal(t, ts2, st2.ID)
	// The journal is the server's only file in the state dir.
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 || ents[0].Name() != journalFile {
		t.Errorf("state dir holds %v (err %v), want only %s", ents, err, journalFile)
	}
}

// TestJournalReplayRequeue: a job that was accepted but never ran
// (crash with a cold pool) is re-enqueued on restart and runs to done
// under its original id.
func TestJournalReplayRequeue(t *testing.T) {
	sub := subjectP2(t)
	dir := t.TempDir()

	// Gate the pool shut so the job is journaled accepted but never
	// starts; Close() then abandons it exactly like a crash would.
	s1 := newServer(Options{StateDir: dir, Pool: 1})
	if err := s1.recover(); err != nil {
		t.Fatal(err)
	}
	s1.gate = make(chan struct{})
	s1.start()
	ts1 := httptest.NewServer(s1.Handler())
	st, resp := postJob(t, ts1, Request{
		Kind: KindRepair, Source: sub.Source, Kernel: sub.Kernel, Budget: smallBudget(),
	}, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	ts1.Close()
	s1.Close()
	if got := lastState(readJournal(t, dir), st.ID); got != stateAccepted {
		t.Fatalf("journal state = %q, want accepted", got)
	}

	s2 := New(Options{StateDir: dir})
	ts2 := httptest.NewServer(s2.Handler())
	defer func() { ts2.Close(); s2.Close() }()
	fin := awaitTerminal(t, ts2, st.ID)
	if fin.State != StateDone {
		t.Fatalf("requeued job state = %q, want done", fin.State)
	}
	if !fin.Resumed {
		t.Error("requeued job not marked resumed")
	}
	if fin.Result == nil || fin.Result.Repair == nil {
		t.Fatal("requeued job has no repair result")
	}
	if got := lastState(readJournal(t, dir), st.ID); got != StateDone {
		t.Errorf("journal state = %q, want done", got)
	}
}

// TestJournalCorruptTailSurvives: a torn final journal line (the shape
// a SIGKILL mid-append leaves) is skipped on replay; every complete
// record before it is preserved.
func TestJournalCorruptTailSurvives(t *testing.T) {
	sub := subjectP2(t)
	dir := t.TempDir()

	s1 := New(Options{StateDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	st, _ := postJob(t, ts1, Request{
		Kind: KindCheck, Source: sub.Source, Kernel: sub.Kernel,
	}, "")
	fin := awaitTerminal(t, ts1, st.ID)
	ts1.Close()
	s1.Close()

	// Tear the file mid-line.
	path := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"id":"j-9999`)
	f.Close()

	s2 := New(Options{StateDir: dir})
	ts2 := httptest.NewServer(s2.Handler())
	defer func() { ts2.Close(); s2.Close() }()
	re := getStatus(t, ts2, st.ID)
	if re.State != fin.State {
		t.Errorf("state after torn tail = %q, want %q", re.State, fin.State)
	}
	// The compacted journal must have healed: no partial line remains.
	for _, rec := range readJournal(t, dir) {
		if rec.ID == "j-9999" {
			t.Error("torn record resurrected by compaction")
		}
	}
}

// TestDrainQuiesces: a drain stops admission (429 "draining", /readyz
// 503), stops the running job past the deadline, and the
// journal keeps that job resumable; a restart re-runs it to done.
func TestDrainQuiesces(t *testing.T) {
	sub := subjectP2(t)
	dir := t.TempDir()

	s1 := New(Options{StateDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	if code := readyzCode(t, ts1); code != http.StatusOK {
		t.Fatalf("/readyz before drain = %d, want 200", code)
	}
	st, _ := postJob(t, ts1, Request{
		Kind: KindFuzz, Source: sub.Source, Kernel: sub.Kernel,
		Budget: Budget{FuzzExecs: 20_000},
	}, "")
	awaitRunning(t, ts1, st.ID, 5)

	stopped := s1.Drain(time.Millisecond)
	if stopped != 1 {
		t.Fatalf("Drain stopped %d jobs, want 1", stopped)
	}
	if code := readyzCode(t, ts1); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain = %d, want 503", code)
	}
	if _, resp := postJob(t, ts1, Request{
		Kind: KindCheck, Source: sub.Source, Kernel: sub.Kernel,
	}, ""); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("submit during drain: status %d, want 429", resp.StatusCode)
	}
	// In-process view: cancelled with a partial result. Durable view:
	// checkpointed, i.e. resumable.
	fin := getStatus(t, ts1, st.ID)
	if fin.State != StateCancelled || fin.Result == nil || !fin.Result.Partial {
		t.Errorf("drained job in-memory state = %+v, want cancelled+partial", fin.State)
	}
	if got := lastState(readJournal(t, dir), st.ID); got != stateCheckpointed {
		t.Fatalf("journal state after drain = %q, want checkpointed", got)
	}
	ts1.Close()
	s1.Close()

	s2 := New(Options{StateDir: dir})
	ts2 := httptest.NewServer(s2.Handler())
	defer func() { ts2.Close(); s2.Close() }()
	refin := awaitTerminal(t, ts2, st.ID)
	if refin.State != StateDone {
		t.Fatalf("resumed job state = %q, want done", refin.State)
	}
	if refin.Result == nil || refin.Result.Fuzz == nil || refin.Result.Partial {
		t.Fatalf("resumed job result = %+v, want a complete fuzz result", refin.Result)
	}
}

// TestDrainFinishesQuickJobs: jobs that complete inside the deadline
// terminate normally — nothing is stopped and the journal
// records done.
func TestDrainFinishesQuickJobs(t *testing.T) {
	sub := subjectP2(t)
	dir := t.TempDir()
	s := New(Options{StateDir: dir})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	st, _ := postJob(t, ts, Request{
		Kind: KindCheck, Source: sub.Source, Kernel: sub.Kernel,
	}, "")
	// Drain leaves a job no worker has started queued (journaled
	// "accepted", to run after restart), so wait until one has.
	deadline := time.Now().Add(60 * time.Second)
	for getStatus(t, ts, st.ID).State == StateQueued {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never left the queue", st.ID)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if stopped := s.Drain(60 * time.Second); stopped != 0 {
		t.Fatalf("Drain stopped %d jobs, want 0", stopped)
	}
	fin := getStatus(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("state after drain = %q, want done", fin.State)
	}
	if got := lastState(readJournal(t, dir), st.ID); got != StateDone {
		t.Errorf("journal state = %q, want done", got)
	}
}

// TestCancelQueuedAndDoubleDelete: DELETE on a still-queued job turns
// it terminal with exactly one journaled cancellation; a second DELETE
// is idempotent (200, no new journal record, no double accounting).
func TestCancelQueuedAndDoubleDelete(t *testing.T) {
	sub := subjectP2(t)
	dir := t.TempDir()

	s := newServer(Options{StateDir: dir, Pool: 1, PerClient: -1})
	if err := s.recover(); err != nil {
		t.Fatal(err)
	}
	s.gate = make(chan struct{})
	s.start()
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	// Two jobs: the first parks at the gate, the second stays queued.
	req := Request{Kind: KindCheck, Source: sub.Source, Kernel: sub.Kernel}
	_, r1 := postJob(t, ts, req, "")
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: status %d", r1.StatusCode)
	}
	st2, r2 := postJob(t, ts, req, "")
	if r2.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: status %d", r2.StatusCode)
	}

	if resp := deleteJob(t, ts, st2.ID); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	fin := getStatus(t, ts, st2.ID)
	if fin.State != StateCancelled {
		t.Fatalf("state = %q, want cancelled", fin.State)
	}
	cancels := func() int {
		n := 0
		for _, rec := range readJournal(t, dir) {
			if rec.ID == st2.ID && rec.State == StateCancelled {
				n++
			}
		}
		return n
	}
	if n := cancels(); n != 1 {
		t.Fatalf("journaled %d cancellations, want 1", n)
	}
	if resp := deleteJob(t, ts, st2.ID); resp.StatusCode != http.StatusOK {
		t.Fatalf("second DELETE: status %d", resp.StatusCode)
	}
	if n := cancels(); n != 1 {
		t.Errorf("double DELETE journaled %d cancellations, want 1", n)
	}
	if n := s.metrics.Counter("serve.jobs." + string(StateCancelled)); n != 1 {
		t.Errorf("serve.jobs.cancelled = %d, want 1 (double accounting)", n)
	}
	close(s.gate)
	awaitTerminal(t, ts, "j-000001")
}

// TestCancelRacesDrain: an explicit DELETE during a drain wins — the
// job journals cancelled (terminal across restarts), never
// checkpointed.
func TestCancelRacesDrain(t *testing.T) {
	sub := subjectP2(t)
	dir := t.TempDir()
	s := New(Options{StateDir: dir})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	st, _ := postJob(t, ts, Request{
		Kind: KindFuzz, Source: sub.Source, Kernel: sub.Kernel,
		Budget: Budget{FuzzExecs: 20_000},
	}, "")
	awaitRunning(t, ts, st.ID, 5)

	// Long-deadline drain waits for the job; the DELETE lands while the
	// drain is in progress.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Drain(60 * time.Second)
	}()
	for s.metrics.Counter("serve.jobs.rejected.draining") == 0 {
		if _, resp := postJob(t, ts, Request{
			Kind: KindCheck, Source: sub.Source, Kernel: sub.Kernel,
		}, "probe"); resp.StatusCode == http.StatusAccepted {
			t.Fatal("submission accepted during drain")
		}
		time.Sleep(time.Millisecond)
	}
	if resp := deleteJob(t, ts, st.ID); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE during drain: status %d", resp.StatusCode)
	}
	wg.Wait()
	if got := lastState(readJournal(t, dir), st.ID); got != StateCancelled {
		t.Errorf("journal state = %q, want cancelled (user intent outranks drain)", got)
	}

	// A restart must NOT resurrect the cancelled job.
	ts.Close()
	s.Close()
	s2 := New(Options{StateDir: dir})
	ts2 := httptest.NewServer(s2.Handler())
	defer func() { ts2.Close(); s2.Close() }()
	re := getStatus(t, ts2, st.ID)
	if re.State != StateCancelled {
		t.Errorf("state after restart = %q, want cancelled", re.State)
	}
}

// pacer is a fault injector that plants no fault: it sleeps before
// every HLS check and differential test, pacing a search in real time
// without changing what it computes.
type pacer struct{ delay time.Duration }

func (p pacer) Fault(stage guard.Stage, _ string, _ int) guard.Fault {
	if stage == guard.StageCheck || stage == guard.StageDifftest {
		time.Sleep(p.delay)
	}
	return guard.Fault{}
}

// TestDrainResumeRepairParity is the end-to-end durability contract in
// process: a repair job drain-stopped mid-search resumes after restart
// to a result and event trace byte-identical to an undisturbed run.
func TestDrainResumeRepairParity(t *testing.T) {
	sub := subjectP2(t)
	// Workers=1 serializes the paced evaluations below, so the time
	// between the first committed candidate and the last evaluation is
	// a wide, deterministic interrupt window.
	budget := Budget{MaxIterations: 64, Workers: 1}
	req := Request{
		Kind: KindRepair, Source: sub.Source, Kernel: sub.Kernel, Budget: budget,
		Targets: []string{"vivado_hls:xcvu9p", "vivado_hls:zc706", "vitis:aws_f1"},
	}

	// Control: same job on a stateless server.
	_, tsC := startServer(t, Options{})
	stC, _ := postJob(t, tsC, req, "")
	finC := awaitTerminal(t, tsC, stC.ID)
	if finC.State != StateDone {
		t.Fatalf("control state = %q, want done", finC.State)
	}
	controlEvents := eventBody(t, tsC, stC.ID)

	// Durable server: drain-stop the job mid-search. The pacing
	// injector slows evaluations in real time so the drain
	// deterministically lands mid-run; it plants no fault, so the paced
	// run's outcome log matches the unpaced control.
	dir := t.TempDir()
	s1 := New(Options{StateDir: dir, Injector: pacer{300 * time.Millisecond}, Cache: stateCache(t, dir)})
	ts1 := httptest.NewServer(s1.Handler())
	st, _ := postJob(t, ts1, req, "")
	awaitRunning(t, ts1, st.ID, 1)
	if stopped := s1.Drain(time.Millisecond); stopped != 1 {
		t.Fatalf("Drain stopped %d jobs, want 1", stopped)
	}
	ts1.Close()
	s1.Close()

	// …and resume it on a restarted server.
	s2 := New(Options{StateDir: dir, Cache: stateCache(t, dir)})
	ts2 := httptest.NewServer(s2.Handler())
	defer func() { ts2.Close(); s2.Close() }()
	fin := awaitTerminal(t, ts2, st.ID)
	if fin.State != StateDone {
		t.Fatalf("resumed state = %q, want done", fin.State)
	}
	if got, want := mustJSON(t, fin.Result), mustJSON(t, finC.Result); got != want {
		t.Errorf("resumed result diverges from control:\n  want: %s\n  got:  %s", want, got)
	}
	if resumedEvents := eventBody(t, ts2, st.ID); !bytes.Equal(resumedEvents, controlEvents) {
		t.Errorf("resumed trace diverges from control (%d vs %d bytes)",
			len(resumedEvents), len(controlEvents))
	}
}

// stateCache opens an on-disk evaluation cache under stateDir, where
// hgserve keeps it by default, and closes it when the test ends.
func stateCache(t *testing.T, stateDir string) *evalcache.Cache {
	t.Helper()
	c, err := evalcache.New(evalcache.Options{Dir: filepath.Join(stateDir, "cache")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestDrainResumePaysOnlyUnfinishedWork: a resumed job re-runs from the
// start, but against the cache the drained run filled, so it computes
// only what the drained run had not: the drained and resumed runs'
// cache misses add up to the undisturbed control run's.
func TestDrainResumePaysOnlyUnfinishedWork(t *testing.T) {
	// P9's search tries enough candidates that a drain after the first
	// event lands with most of them still to evaluate.
	sub, err := subjects.ByID("P9")
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Kind: KindRepair, Source: sub.Source, Kernel: sub.Kernel,
		Budget: Budget{MaxIterations: 64, Workers: 1}}

	controlCache := stateCache(t, t.TempDir())
	_, tsC := startServer(t, Options{Cache: controlCache})
	stC, _ := postJob(t, tsC, req, "")
	finC := awaitTerminal(t, tsC, stC.ID)
	if finC.State != StateDone {
		t.Fatalf("control state = %q, want done", finC.State)
	}

	dir := t.TempDir()
	cache1 := stateCache(t, dir)
	s1 := New(Options{StateDir: dir, Injector: pacer{50 * time.Millisecond}, Cache: cache1})
	ts1 := httptest.NewServer(s1.Handler())
	st, _ := postJob(t, ts1, req, "")
	awaitRunning(t, ts1, st.ID, 1)
	if stopped := s1.Drain(time.Millisecond); stopped != 1 {
		t.Fatalf("Drain stopped %d jobs, want 1", stopped)
	}
	ts1.Close()
	s1.Close()
	if err := cache1.Close(); err != nil {
		t.Fatal(err)
	}

	cache2 := stateCache(t, dir)
	s2 := New(Options{StateDir: dir, Cache: cache2})
	ts2 := httptest.NewServer(s2.Handler())
	defer func() { ts2.Close(); s2.Close() }()
	fin := awaitTerminal(t, ts2, st.ID)
	if fin.State != StateDone {
		t.Fatalf("resumed state = %q, want done", fin.State)
	}
	if got, want := mustJSON(t, fin.Result), mustJSON(t, finC.Result); got != want {
		t.Errorf("resumed result diverges from control:\n  want: %s\n  got:  %s", want, got)
	}

	drained, resumed, control := cache1.Stats().Misses(), cache2.Stats().Misses(), controlCache.Stats().Misses()
	if drained == 0 || resumed == 0 {
		t.Fatalf("drain did not land mid-search: %d misses before it, %d after", drained, resumed)
	}
	if drained+resumed != control {
		t.Errorf("drained run computed %d evaluations and the resumed run %d; want %d in all, as the undisturbed run",
			drained, resumed, control)
	}
}
