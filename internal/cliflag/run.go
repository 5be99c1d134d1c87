package cliflag

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/hetero/heterogen/internal/evalcache"
	"github.com/hetero/heterogen/internal/guard"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/obs"
)

// Run is the run family: where a run's trace, metrics and evaluation
// cache go.
type Run struct {
	Trace    string
	Metrics  bool
	CacheDir string
	NoCache  bool
}

// Register installs all four run flags on fs.
func (f *Run) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Trace, "trace", "",
		"write a JSONL structured-event trace to this file (read it with hgstat)")
	fs.BoolVar(&f.Metrics, "metrics", false,
		"print aggregated run metrics to stderr")
	f.RegisterCache(fs)
}

// RegisterCache installs only -cache-dir and -no-cache, for a binary
// that emits no events.
func (f *Run) RegisterCache(fs *flag.FlagSet) {
	fs.StringVar(&f.CacheDir, "cache-dir", "",
		"persist the evaluation cache in this directory (reused across runs)")
	fs.BoolVar(&f.NoCache, "no-cache", false,
		"disable the evaluation cache (results are identical either way)")
}

// Session is what one CLI run shares with the pipeline: the observer,
// the guard and the evaluation cache.
type Session struct {
	Obs   obs.Observer
	Guard *guard.Guard     // nil when every guard knob is off
	Cache *evalcache.Cache // nil with -no-cache

	name    string
	file    *os.File
	trace   *obs.TraceWriter
	metrics *obs.Registry // nil without -metrics
	closed  bool
}

// Open builds a session in a fixed order: the trace writer, the
// metrics registry, the target stamp for a named target set (untargeted
// runs keep byte-identical traces), the guard, then the cache. name
// prefixes every message the session prints. On error nothing stays
// open.
func Open(name string, run *Run, g *Guard, targets []hls.Target) (*Session, error) {
	s := &Session{name: name}
	var sinks []obs.Observer
	if run.Trace != "" {
		f, err := os.Create(run.Trace)
		if err != nil {
			return nil, err
		}
		s.file = f
		s.trace = obs.NewTraceWriter(f)
		sinks = append(sinks, s.trace)
	}
	if run.Metrics {
		s.metrics = obs.NewRegistry()
		sinks = append(sinks, s.metrics)
	}
	s.Obs = obs.Multi(sinks...)
	if len(targets) > 0 {
		s.Obs = obs.TagTarget(s.Obs, hls.TargetSetString(targets))
	}
	s.Guard = g.Build(s.metrics, s.warn)
	if !run.NoCache {
		cache, err := evalcache.New(evalcache.Options{Dir: run.CacheDir, Metrics: s.metrics})
		if err != nil {
			if s.file != nil {
				s.file.Close()
			}
			return nil, err
		}
		s.Cache = cache
	}
	return s, nil
}

// warn prints msg on stderr under the session's program name.
func (s *Session) warn(msg string) {
	fmt.Fprintln(os.Stderr, s.name+":", msg)
}

// Close flushes the trace, closes the cache (writing its buffered
// entries and stats sidecar) and prints the metrics to stderr. Only
// the first call does anything.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.trace != nil {
		if err := s.trace.Flush(); err != nil {
			s.warn("trace: " + err.Error())
		}
		if err := s.file.Close(); err != nil {
			s.warn("trace: " + err.Error())
		}
	}
	if err := s.Cache.Close(); err != nil {
		s.warn("cache: " + err.Error())
	}
	if s.metrics != nil {
		fmt.Fprint(os.Stderr, s.metrics.Text())
	}
}

// Fatal closes the session, prints err and exits with status 1. An
// error that already names the program (the pipeline's errors start
// with "heterogen: ") is printed without a second prefix.
func (s *Session) Fatal(err error) {
	s.Close()
	s.warn(strings.TrimPrefix(err.Error(), s.name+": "))
	os.Exit(1)
}
