// Durable checkpointing for the repair search.
//
// The search is deterministic by contract: for a fixed (options,
// program, tests) triple, candidates are enumerated in a fixed order
// and every piece of accounting — virtual clock, counters, Pareto
// archive, trace events — commits on the search goroutine in that
// order. That makes crash recovery cheap and byte-exact without
// serializing any live search state: a checkpoint is just the
// commit-ordered log of evaluated outcomes. A resumed search re-runs
// the same enumeration from zero and, for every commit index the log
// already covers, replays the stored outcome instead of recomputing
// it. All commit-time logic (budget checks, cost charging, the
// accept-first-improvement rule, Pareto consideration, event emission)
// executes again identically, so the resumed run's Result, Stats, and
// trace are byte-identical to an uninterrupted run's — the same
// argument that makes Workers and cache temperature invisible.
//
// The file is an append-only internal/jsonlog log, like the job
// journal and evalcache's persistent tier: a header line binds the log
// to a fingerprint of every determinism-relevant input (a mismatched
// header discards the file), then one line for the initial evaluation
// and one per committed candidate. A truncated or corrupt tail is
// dropped and the file is rewritten to its valid prefix on open.
// Workers is deliberately excluded from the fingerprint: it is proven
// to leave results and traces byte-identical, so a search may resume
// under a different worker count than the one that wrote the log.
package repair

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/difftest"
	"github.com/hetero/heterogen/internal/evalcache"
	"github.com/hetero/heterogen/internal/fuzz"
	"github.com/hetero/heterogen/internal/guard"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/hls/sim"
	"github.com/hetero/heterogen/internal/jsonlog"
)

// ckptVersion is the on-disk format version; it joins the key
// fingerprint, so any format change invalidates old logs wholesale.
const ckptVersion = 2

// ckptSyncEvery bounds how many appended records may be buffered in
// the OS page cache before an fsync. Appends always flush to the
// kernel per record (surviving a process kill); the periodic fsync
// bounds loss to power failure.
const ckptSyncEvery = 8

// savedTargetFit is targetFit's serialized form (its fields are
// unexported to the package API).
type savedTargetFit struct {
	Errors    int      `json:"errors"`
	Fits      bool     `json:"fits"`
	Over      []string `json:"over"`
	LatencyMS float64  `json:"latency_ms"`
}

// savedScore is score's serialized form. Slice fields carry no
// omitempty so nil-ness round-trips exactly (null ↔ nil, [] ↔ empty):
// a replayed score must be indistinguishable from a computed one under
// reflect.DeepEqual, not just semantically equal.
type savedScore struct {
	Errors     int              `json:"errors"`
	BehaviorOK bool             `json:"behavior_ok"`
	PassRatio  float64          `json:"pass_ratio"`
	LatencyMS  float64          `json:"latency_ms"`
	Diags      []hls.Diagnostic `json:"diags"`
	Report     difftest.Report  `json:"report"`
	PerTarget  []savedTargetFit `json:"per_target"`
	Res        sim.Resources    `json:"res"`
	ResOK      bool             `json:"res_ok"`
}

func saveScore(sc score) savedScore {
	out := savedScore{
		Errors:     sc.errors,
		BehaviorOK: sc.behaviorOK,
		PassRatio:  sc.passRatio,
		LatencyMS:  sc.latencyMS,
		Diags:      sc.diags,
		Report:     sc.report,
		Res:        sc.res,
		ResOK:      sc.resOK,
	}
	if sc.perTarget != nil {
		out.PerTarget = make([]savedTargetFit, len(sc.perTarget))
		for i, f := range sc.perTarget {
			out.PerTarget[i] = savedTargetFit{Errors: f.errors, Fits: f.fits, Over: f.over, LatencyMS: f.latencyMS}
		}
	}
	return out
}

func (ss savedScore) restore() score {
	sc := score{
		errors:     ss.Errors,
		behaviorOK: ss.BehaviorOK,
		passRatio:  ss.PassRatio,
		latencyMS:  ss.LatencyMS,
		diags:      ss.Diags,
		report:     ss.Report,
		res:        ss.Res,
		resOK:      ss.ResOK,
	}
	if ss.PerTarget != nil {
		sc.perTarget = make([]targetFit, len(ss.PerTarget))
		for i, f := range ss.PerTarget {
			sc.perTarget[i] = targetFit{errors: f.Errors, fits: f.Fits, over: f.Over, latencyMS: f.LatencyMS}
		}
	}
	return sc
}

// savedOutcome is evalOutcome's serialized form (the initial
// evaluation reuses it with only the score-path fields set).
type savedOutcome struct {
	StyleRan  bool                `json:"style_ran,omitempty"`
	StyleOK   bool                `json:"style_ok,omitempty"`
	Evaluated bool                `json:"evaluated,omitempty"`
	Lines     int                 `json:"lines,omitempty"`
	SimRan    bool                `json:"sim_ran,omitempty"`
	Score     savedScore          `json:"score"`
	Failure   *guard.StageFailure `json:"failure,omitempty"`
}

func saveOutcome(o evalOutcome) savedOutcome {
	return savedOutcome{
		StyleRan:  o.styleRan,
		StyleOK:   o.styleOK,
		Evaluated: o.evaluated,
		Lines:     o.lines,
		SimRan:    o.simRan,
		Score:     saveScore(o.sc),
		Failure:   o.failure,
	}
}

func (so savedOutcome) restore() evalOutcome {
	return evalOutcome{
		computed:  true,
		styleRan:  so.StyleRan,
		styleOK:   so.StyleOK,
		evaluated: so.Evaluated,
		lines:     so.Lines,
		simRan:    so.SimRan,
		sc:        so.Score.restore(),
		failure:   so.Failure,
	}
}

// ckptLine is one JSONL line; T selects the kind.
type ckptLine struct {
	T string `json:"t"` // "hdr" | "init" | "cand"
	// Header fields.
	V   int    `json:"v,omitempty"`
	Key string `json:"key,omitempty"`
	// Candidate fields (init lines carry only O).
	I   int           `json:"i"`
	Sig string        `json:"sig,omitempty"`
	O   *savedOutcome `json:"o,omitempty"`
}

// candSig fingerprints one candidate's identity for replay matching.
// Describe() is the candidate's canonical edit description — the same
// key perfStep's dedupe uses — so a signature mismatch means the
// resumed enumeration diverged and the log tail is stale.
func candSig(c Candidate) string {
	return evalcache.Fingerprint("cand", c.Describe())[:16]
}

// checkpointKey fingerprints every input the enumeration and the
// outcomes depend on: the resolved options (in the positive sense the
// key has always used: style checker, dependence order and performance
// exploration on unless disabled), the step budget, the named target
// set (nil when untargeted), and the search's program and test inputs.
// Workers and Cache are excluded on purpose: both are proven to leave
// results byte-identical.
func checkpointKey(opts Options, steps int64, targets []hls.ResolvedTarget,
	original, initial *cast.Unit, kernel string, tests []fuzz.TestCase) string {
	classes := make([]string, 0, len(opts.ClassFilter))
	for c, ok := range opts.ClassFilter {
		if ok {
			classes = append(classes, c.String())
		}
	}
	sort.Strings(classes)
	names := make([]string, len(targets))
	for i, t := range targets {
		names[i] = t.Name()
	}
	return evalcache.Fingerprint(
		fmt.Sprintf("repair-ckpt-v%d", ckptVersion),
		fmt.Sprintf("budget=%v style=%t dep=%t perf=%t seed=%d maxiter=%d isteps=%d",
			opts.Budget, !opts.WithoutChecker, !opts.WithoutDependence, !opts.WithoutPerfExploration,
			opts.Seed, opts.MaxIterations, steps),
		strings.Join(classes, ","),
		strings.Join(names, ","),
		kernel,
		cast.Print(original),
		cast.Print(initial),
		fuzz.CorpusFingerprint(tests),
	)
}

// checkpoint is the open commit log. All methods are nil-safe (a nil
// checkpoint is "checkpointing off") and are called only from the
// search goroutine.
type checkpoint struct {
	path string
	key  string

	init    *savedOutcome
	records []ckptLine // cand lines, records[k] covers commit index k

	log      *jsonlog.Appender
	unsynced int
	broken   bool // a write failed: stop persisting, keep searching
}

// openCheckpoint loads (or creates) the log at path for the given key.
// A header mismatch, corrupt tail, or out-of-order record drops the
// invalid suffix (or the whole file) and rewrites the valid prefix, so
// the append handle always extends a well-formed log.
func openCheckpoint(path, key string) (*checkpoint, error) {
	c := &checkpoint{path: path, key: key}
	if lines, err := jsonlog.Lines(path); err == nil && c.parse(lines) {
		if c.log, err = jsonlog.OpenAppender(path, ckptSite); err != nil {
			return nil, err
		}
		return c, nil
	}
	// Fresh file (or salvage rewrite of the valid prefix).
	if err := c.rewrite(); err != nil {
		return nil, err
	}
	return c, nil
}

// ckptSite is the crashpoint at which an append is torn.
const ckptSite = "repair.checkpoint.append"

// parse loads header + init + candidate records from lines, keeping
// the longest valid prefix. Returns true when the whole file was valid
// (nothing needs rewriting).
func (c *checkpoint) parse(lines [][]byte) bool {
	sawHdr := false
	for _, raw := range lines {
		var l ckptLine
		if json.Unmarshal(raw, &l) != nil {
			return false
		}
		switch {
		case !sawHdr:
			if l.T != "hdr" || l.V != ckptVersion || l.Key != c.key {
				return false // foreign or stale log: discard wholesale
			}
			sawHdr = true
		case l.T == "init" && c.init == nil && len(c.records) == 0 && l.O != nil:
			c.init = l.O
		case l.T == "cand" && l.O != nil && l.I == len(c.records) && l.Sig != "":
			c.records = append(c.records, l)
		default:
			return false
		}
	}
	return sawHdr
}

// rewrite atomically replaces the file with header + valid prefix and
// reopens it for append.
func (c *checkpoint) rewrite() error {
	if c.log != nil {
		_ = c.log.Close()
		c.log = nil
	}
	c.unsynced = 0
	err := jsonlog.Rewrite(c.path, func(w jsonlog.Writer) {
		w.Put(ckptLine{T: "hdr", V: ckptVersion, Key: c.key})
		if c.init != nil {
			w.Put(ckptLine{T: "init", O: c.init})
		}
		for _, r := range c.records {
			w.Put(r)
		}
	})
	if err != nil {
		return err
	}
	c.log, err = jsonlog.OpenAppender(c.path, ckptSite)
	return err
}

// replayInit returns the stored initial evaluation, if any.
func (c *checkpoint) replayInit() (evalOutcome, bool) {
	if c == nil || c.init == nil {
		return evalOutcome{}, false
	}
	return c.init.restore(), true
}

// recordInit persists the initial evaluation (no-op when already
// stored — a replayed init is never re-recorded).
func (c *checkpoint) recordInit(o evalOutcome) {
	if c == nil || c.broken || c.init != nil {
		return
	}
	so := saveOutcome(o)
	c.init = &so
	c.appendLine(ckptLine{T: "init", O: &so})
}

// has reports whether commit index i will replay for cand — a pure
// peek used to avoid scheduling speculative work the commit loop will
// discard.
func (c *checkpoint) has(i int, cand Candidate) bool {
	return c != nil && i < len(c.records) && c.records[i].Sig == candSig(cand)
}

// replay returns the stored outcome for commit index i when the log
// covers it and the candidate signature matches. A mismatch means the
// tail is stale: it is dropped (and the file rewritten to the valid
// prefix) so the search recomputes from here on.
func (c *checkpoint) replay(i int, cand Candidate) (evalOutcome, bool) {
	if c == nil || i >= len(c.records) {
		return evalOutcome{}, false
	}
	r := c.records[i]
	if r.Sig != candSig(cand) {
		c.records = c.records[:i]
		if err := c.rewrite(); err != nil {
			c.broken = true
		}
		return evalOutcome{}, false
	}
	if r.O == nil {
		return evalOutcome{}, false
	}
	return r.O.restore(), true
}

// record persists commit index i's outcome. Indices at or below the
// durable high-water mark are already stored (replayed) and skipped.
func (c *checkpoint) record(i int, cand Candidate, o evalOutcome) {
	if c == nil || c.broken || i < len(c.records) {
		return
	}
	if i != len(c.records) {
		// A gap can only mean a bookkeeping bug; refuse to persist a log
		// that would replay out of order.
		c.broken = true
		return
	}
	so := saveOutcome(o)
	l := ckptLine{T: "cand", I: i, Sig: candSig(cand), O: &so}
	c.records = append(c.records, l)
	c.appendLine(l)
}

// appendLine writes one line to the log, flushing to the kernel per
// record and fsyncing every ckptSyncEvery records. Write failures
// degrade the checkpoint to in-memory-only: the search continues, it
// just stops persisting.
func (c *checkpoint) appendLine(l ckptLine) {
	if c.broken || c.log == nil {
		return
	}
	b, err := json.Marshal(l)
	if err == nil {
		err = c.log.Append(b)
	}
	if err == nil {
		err = c.log.Flush()
	}
	if c.unsynced++; err == nil && c.unsynced >= ckptSyncEvery {
		err = c.log.Sync()
		c.unsynced = 0
	}
	if err != nil {
		c.broken = true
	}
}

// close flushes, fsyncs, and releases the file handle.
func (c *checkpoint) close() {
	if c == nil || c.log == nil {
		return
	}
	_ = c.log.Sync()
	_ = c.log.Close()
	c.log = nil
}
