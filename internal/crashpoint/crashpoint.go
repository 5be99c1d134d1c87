// Package crashpoint provides deterministic, environment-armed crash
// injection for crash-recovery testing: a process started with
//
//	HETEROGEN_CRASHPOINT=<site>[:N]
//
// SIGKILLs itself the Nth time execution reaches the named site
// (N defaults to 1). Sites are plain string labels compiled into the
// durability-critical write paths (journal appends, cache appends,
// compaction, drain); with the variable unset
// every site is a no-op, so production binaries carry the hooks at
// zero behavioral cost.
//
// The kill is a real SIGKILL to self — no deferred functions, no
// buffer flushes, no atexit — so a fired crash point exercises exactly
// the torn state an external `kill -9` would leave. A *mid-write*
// crash splits the write around Hit; jsonlog.Appender.Append is the
// one such site, shared by every durable log:
//
//	if crashpoint.Hit(site) {
//	    w.Write(line[:len(line)/2]) // torn final line
//	    w.Flush()
//	    crashpoint.Kill()
//	}
package crashpoint

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// EnvVar arms one crash site for the process: "<site>" or "<site>:N"
// (fire on the Nth hit, 1-based).
const EnvVar = "HETEROGEN_CRASHPOINT"

var (
	mu        sync.Mutex
	armedSite string
	remaining int
	loaded    bool
)

// loadLocked parses EnvVar once. Called with mu held.
func loadLocked() {
	if loaded {
		return
	}
	loaded = true
	v := os.Getenv(EnvVar)
	if v == "" {
		return
	}
	armedSite, remaining = v, 1
	if i := strings.LastIndex(v, ":"); i >= 0 {
		if n, err := strconv.Atoi(v[i+1:]); err == nil && n > 0 {
			armedSite, remaining = v[:i], n
		}
	}
}

// Hit reports whether the named site is armed and this is the fatal
// hit. A true return means the caller should finish staging its torn
// state and call Kill; most sites use Here instead.
func Hit(name string) bool {
	mu.Lock()
	defer mu.Unlock()
	loadLocked()
	if armedSite == "" || armedSite != name {
		return false
	}
	remaining--
	return remaining == 0
}

// Here kills the process at the named site when armed — the standard
// one-line hook for sites with no torn-write staging.
func Here(name string) {
	if Hit(name) {
		Kill()
	}
}

// Kill terminates the process the way a crash would: SIGKILL to self.
// The os.Exit fallback (unreachable on platforms where the self-signal
// works) still skips all deferred cleanup.
func Kill() {
	_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
	os.Exit(137)
}
