// Write-ahead job journal: the durability layer behind -state-dir.
//
// Every job state transition is appended to <state-dir>/journal.jsonl
// and fsynced before the transition is visible to clients — in
// particular, a submission is journaled before its 202 response, so an
// accepted job survives any crash after the client sees it. The
// journal is an internal/jsonlog file: a torn final line (the shape a
// SIGKILL mid-append leaves) is skipped on replay, and every replay
// compacts the log — one accepted record plus one latest-state record
// per job — with an atomic jsonlog.Rewrite before reopening it for
// appends.
//
// Replay folds records per job id, last record winning, with the
// request payload, client, and correlation id always taken from the
// accepted record. Terminal jobs are restored as reportable history;
// non-terminal jobs (accepted, queued, running, or checkpointed by a
// drain) are re-enqueued to run again from the start. Every job is
// deterministic, so the re-run's result and trace are byte-identical
// to what the interrupted run would have produced, and against the
// shared evaluation cache it recomputes only what the interrupted run
// had not finished.
package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/hetero/heterogen/internal/guard"
	"github.com/hetero/heterogen/internal/jsonlog"
)

// Journal-only states: they appear in journal records, never in a
// Job's in-memory or API-visible state.
const (
	// stateAccepted is the durable admission record; it carries the
	// full request so a restart can re-create the job.
	stateAccepted State = "accepted"
	// stateCheckpointed marks a running job a graceful drain stopped at
	// a commit point: not terminal — a restart re-enqueues it and runs
	// it again against the cache. The name predates that re-run and is
	// kept so existing journals replay.
	stateCheckpointed State = "checkpointed"
)

// journalRecord is one JSONL line: a job state transition.
type journalRecord struct {
	ID     string `json:"id"`
	State  State  `json:"state"`
	Client string `json:"client,omitempty"`
	Corr   string `json:"corr,omitempty"`
	// Req rides only on accepted records (the durable copy of the
	// submission); Result/Error/Failure only on terminal records.
	Req     *Request            `json:"req,omitempty"`
	Result  *Result             `json:"result,omitempty"`
	Error   string              `json:"error,omitempty"`
	Failure *guard.StageFailure `json:"failure,omitempty"`
	// MS is the transition's wall clock in Unix milliseconds.
	MS int64 `json:"ms"`
}

// journalEntry is one job's folded journal state after replay.
type journalEntry struct {
	id         string
	state      State // last journaled state (may be accepted/checkpointed)
	client     string
	corr       string
	req        Request
	result     *Result
	errMsg     string
	failure    *guard.StageFailure
	acceptedMS int64
	lastMS     int64
}

// journal is the append side. Appends are serialized and fsynced: a
// record returned from append survives a crash immediately after.
type journal struct {
	mu     sync.Mutex
	log    *jsonlog.Appender
	broken bool
}

const journalFile = "journal.jsonl"

// openJournal replays <dir>/journal.jsonl, compacts it, and reopens it
// for appending. The returned entries are in first-accepted order.
// A missing file is an empty journal, not an error.
func openJournal(dir string) (*journal, []*journalEntry, error) {
	path := filepath.Join(dir, journalFile)
	lines, err := jsonlog.Lines(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}

	byID := map[string]*journalEntry{}
	var order []string
	for _, line := range lines {
		var rec journalRecord
		if json.Unmarshal(line, &rec) != nil || rec.ID == "" || rec.State == "" {
			// Torn or corrupt line — a crash mid-append. Skip it; every
			// complete record before it already replayed.
			continue
		}
		e := byID[rec.ID]
		if e == nil {
			e = &journalEntry{id: rec.ID}
			byID[rec.ID] = e
			order = append(order, rec.ID)
		}
		e.state = rec.State
		e.lastMS = rec.MS
		if rec.State == stateAccepted {
			e.client, e.corr, e.acceptedMS = rec.Client, rec.Corr, rec.MS
			if rec.Req != nil {
				e.req = *rec.Req
			}
		}
		if rec.State.Terminal() {
			e.result, e.errMsg, e.failure = rec.Result, rec.Error, rec.Failure
		}
	}

	entries := make([]*journalEntry, 0, len(order))
	for _, id := range order {
		e := byID[id]
		if e.acceptedMS == 0 && e.req.Kind == "" {
			// A transition whose accepted record was lost to corruption:
			// nothing to re-create the job from. Drop it.
			continue
		}
		entries = append(entries, e)
	}

	// Compact: rewrite the fold, atomically, then append from there.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	err = jsonlog.Rewrite(path, func(w jsonlog.Writer) {
		for _, e := range entries {
			req := e.req
			w.Put(journalRecord{ID: e.id, State: stateAccepted,
				Client: e.client, Corr: e.corr, Req: &req, MS: e.acceptedMS})
			if e.state != stateAccepted {
				rec := journalRecord{ID: e.id, State: e.state, MS: e.lastMS}
				if e.state.Terminal() {
					rec.Result, rec.Error, rec.Failure = e.result, e.errMsg, e.failure
				}
				w.Put(rec)
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}
	log, err := jsonlog.OpenAppender(path, "serve.journal.append")
	if err != nil {
		return nil, nil, err
	}
	return &journal{log: log}, entries, nil
}

// append writes one record and fsyncs it — the record is durable when
// append returns. A write error marks the journal broken (subsequent
// appends are dropped) rather than failing the job.
func (j *journal) append(rec journalRecord) error {
	if j == nil {
		return nil
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken {
		return fmt.Errorf("serve: journal broken")
	}
	if err := j.log.Append(b); err != nil {
		j.broken = true
		return err
	}
	if err := j.log.Sync(); err != nil {
		j.broken = true
		return err
	}
	return nil
}

// close fsyncs and closes the append handle.
func (j *journal) close() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log != nil {
		j.log.Sync()
		j.log.Close()
		j.log = nil
		j.broken = true
	}
}

// maxJobID extracts the largest numeric suffix among "j-NNNNNN" ids so
// a restarted server's id sequence continues past every journaled job.
func maxJobID(entries []*journalEntry) int64 {
	var max int64
	for _, e := range entries {
		if n, ok := parseJobID(e.id); ok && n > max {
			max = n
		}
	}
	return max
}

func parseJobID(id string) (int64, bool) {
	s, ok := strings.CutPrefix(id, "j-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(s, 10, 64)
	return n, err == nil
}

// record builds the journal line for a job's transition to st.
func record(j *Job, st State) journalRecord {
	return journalRecord{ID: j.id, State: st, MS: time.Now().UnixMilli()}
}
