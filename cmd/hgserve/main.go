// Command hgserve is the HeteroGen transpilation service: a
// long-running HTTP+JSON daemon that runs transpile / check / repair /
// fuzz jobs on a bounded worker pool with admission control, per-job
// budgets, streamed observability events, and cooperative cancellation.
//
// Usage:
//
//	hgserve [-addr host:port] [-pool n] [-queue n] [-per-client n]
//	        [-state-dir d] [-drain-timeout d]
//	        [-cache-dir d] [-cache-shards n] [-cache-capacity n] [-no-cache]
//	        [-cache-compact-bytes n]
//	        [-quarantine-dir d] [-chaos rate] [-chaos-seed n]
//	        [-max-stage-deadline d] [-max-interp-steps n]
//	        [-max-fuzz-execs n] [-max-iterations n] [-max-workers n]
//	        [-trace-dir d] [-log json|text|off] [-queue-wait-slo d]
//	        [-pprof-addr host:port]
//
// The HTTP API:
//
//	POST   /v1/jobs             submit {"kind","source","kernel",...}
//	GET    /v1/jobs/{id}        status + result once terminal
//	GET    /v1/jobs/{id}/events NDJSON stream of the job's trace events
//	DELETE /v1/jobs/{id}        cancel; the job keeps its partial result
//	GET    /metrics             counters + histograms (?format=text or
//	                            ?format=prometheus for scrape exposition)
//	GET    /healthz             liveness and pool gauges
//	GET    /readyz              readiness; 503 while replaying the
//	                            journal, draining, or closed
//
// See docs/OPERATIONS.md for the full operator's manual: budget
// clamps, capacity planning, the metrics catalog, and quarantine
// triage.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"github.com/hetero/heterogen/internal/chaos"
	"github.com/hetero/heterogen/internal/cliflag"
	"github.com/hetero/heterogen/internal/evalcache"
	"github.com/hetero/heterogen/internal/guard"
	"github.com/hetero/heterogen/internal/obs"
	"github.com/hetero/heterogen/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	pool := flag.Int("pool", 0, "concurrently running jobs (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue depth; a full queue answers 429 (0 = 4*pool)")
	perClient := flag.Int("per-client", 8, "max queued+running jobs per client, by X-Client-ID header or remote host (negative disables)")
	stateDir := flag.String("state-dir", "", "durable state directory: write-ahead job journal, replayed on restart, and the evaluation cache unless -cache-dir or -no-cache is set (empty disables durability)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "on SIGTERM/SIGINT, wait this long for in-flight jobs before stopping them to re-run on restart")
	cacheDir := flag.String("cache-dir", "", "persist the shared evaluation cache in this directory, reused across restarts (default <state-dir>/cache when -state-dir is set)")
	cacheShards := flag.Int("cache-shards", 8, "evaluation-cache shard count (concurrent jobs contend per shard, not globally)")
	cacheCapacity := flag.Int("cache-capacity", 0, "in-memory cache entry bound across all shards (0 = package default)")
	cacheCompactBytes := flag.Int64("cache-compact-bytes", 0, "compact the persistent cache on open once its files reach this size and are at least half garbage (0 disables compaction)")
	noCache := flag.Bool("no-cache", false, "disable the shared evaluation cache")
	quarantineDir := flag.String("quarantine-dir", "", "directory for minimized reproducers of contained stage failures (empty disables)")
	chaosRate := flag.Float64("chaos", 0, "deterministic fault-injection rate in [0,1] (0 disables; testing only)")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for the chaos injection schedule")
	maxStageDeadline := flag.Duration("max-stage-deadline", 60*time.Second, "ceiling on a job's per-stage deadline budget")
	maxInterpSteps := flag.Int64("max-interp-steps", 50_000_000, "ceiling on a job's interpreter step budget")
	maxFuzzExecs := flag.Int("max-fuzz-execs", 20_000, "ceiling on a job's fuzz execution budget")
	maxIterations := flag.Int("max-iterations", 256, "ceiling on a job's repair iteration budget")
	maxWorkers := flag.Int("max-workers", 0, "ceiling on a job's internal parallelism (0 = GOMAXPROCS)")
	traceDir := flag.String("trace-dir", "", "retain each terminal job's trace as <id>.jsonl + <id>.meta.json here (the directory hgstat ingests; empty disables)")
	logMode := flag.String("log", "off", "structured job log on stderr: json | text | off")
	queueWaitSLO := flag.Duration("queue-wait-slo", 0, "queue-wait objective; longer waits count into serve.slo.queue_wait_violations (0 disables)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (separate listener; empty disables)")
	var tf cliflag.Target
	tf.Register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: hgserve [flags] (see -h)")
		os.Exit(2)
	}
	// The target flags set the daemon-wide default target set applied to
	// jobs that omit the request's targets field.
	defaultTargets, err := tf.Targets()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hgserve:", err)
		os.Exit(2)
	}

	warn := func(msg string) { fmt.Fprintln(os.Stderr, "hgserve:", msg) }
	metrics := obs.NewRegistry()

	var logger *slog.Logger
	switch *logMode {
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "off":
	default:
		fmt.Fprintf(os.Stderr, "hgserve: -log %q (want json, text, or off)\n", *logMode)
		os.Exit(2)
	}

	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "hgserve:", err)
			os.Exit(1)
		}
	}

	if *pprofAddr != "" {
		// pprof rides a dedicated listener so profiling exposure is an
		// explicit operator decision, never part of the public API surface.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hgserve: pprof:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "hgserve: pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() {
			// DefaultServeMux carries the net/http/pprof registrations.
			if perr := http.Serve(pln, nil); perr != nil {
				fmt.Fprintln(os.Stderr, "hgserve: pprof:", perr)
			}
		}()
	}

	// A restart re-runs interrupted jobs from the start, so a durable
	// server keeps its cache on disk beside the journal: the re-run then
	// pays only for the work the interrupted run had not finished.
	if *stateDir != "" && *cacheDir == "" {
		*cacheDir = filepath.Join(*stateDir, "cache")
	}
	var cache *evalcache.Cache
	if !*noCache {
		var err error
		cache, err = evalcache.New(evalcache.Options{
			Dir:             *cacheDir,
			Shards:          *cacheShards,
			Capacity:        *cacheCapacity,
			CompactMinBytes: *cacheCompactBytes,
			Metrics:         metrics,
			Warn:            warn,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "hgserve:", err)
			os.Exit(1)
		}
	}

	var injector guard.Injector
	if *chaosRate > 0 {
		injector = chaos.New(chaos.Options{Seed: *chaosSeed, Rate: *chaosRate})
	}

	srv := serve.New(serve.Options{
		Pool:       *pool,
		QueueDepth: *queue,
		PerClient:  *perClient,
		StateDir:   *stateDir,
		Limits: serve.Budget{
			StageDeadlineMS: maxStageDeadline.Milliseconds(),
			InterpSteps:     *maxInterpSteps,
			FuzzExecs:       *maxFuzzExecs,
			MaxIterations:   *maxIterations,
			Workers:         *maxWorkers,
		},
		DefaultTargets: defaultTargets,
		Cache:          cache,
		Metrics:        metrics,
		QuarantineDir:  *quarantineDir,
		Injector:       injector,
		Warn:           warn,
		Logger:         logger,
		TraceDir:       *traceDir,
		QueueWaitSLO:   *queueWaitSLO,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hgserve:", err)
		os.Exit(1)
	}
	// The resolved address on stdout is the startup contract scripts
	// (and make serve-smoke) parse; keep the format stable.
	fmt.Printf("hgserve: listening on http://%s\n", ln.Addr())

	hs := newHTTPServer(srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "hgserve:", err)
		os.Exit(1)
	case <-sig:
	}

	// Graceful drain: stop admission, let in-flight jobs finish (or
	// stop them at the deadline to re-run on restart), then shut the
	// listener down and flush everything durable. The order matters —
	// Drain quiesces the pool and closes the journal before the HTTP
	// server stops answering status polls.
	fmt.Fprintln(os.Stderr, "hgserve: draining")
	if stopped := srv.Drain(*drainTimeout); stopped > 0 {
		fmt.Fprintf(os.Stderr, "hgserve: stopped %d job(s) at drain deadline; they re-run on restart\n", stopped)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = hs.Shutdown(shutCtx)
	srv.Close()
	if cache != nil {
		if cerr := cache.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "hgserve: cache:", cerr)
		}
	}
	fmt.Fprint(os.Stderr, metrics.Text())
}
