// Package cliflag is the one home for the flag families the HeteroGen
// binaries share, so each family is spelled identically across the
// toolchain and each main.go only wires what it runs:
//
//   - Target: -backend, -device, -target (the HLS target set);
//   - Guard: -stage-deadline, -interp-steps, -quarantine-dir, -chaos,
//     -chaos-seed (failure containment and fault injection);
//   - Run: -trace, -metrics, -cache-dir, -no-cache (observability and
//     the evaluation cache).
//
// Open turns the parsed families into a Session: the observer, guard
// and cache a pipeline run consumes. Close flushes and releases them,
// and Fatal closes them before exiting, so an error exit keeps the
// trace tail, the buffered cache entries and the cache's stats sidecar.
package cliflag
