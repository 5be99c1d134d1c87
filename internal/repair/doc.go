// Package repair implements HeteroGen's search-based repair engine: error
// classification and localization from HLS diagnostics (§5.2),
// parameterized edit templates for the six error classes (Table 2), the
// dependence/precedence structure among those edits (Figure 7c), and the
// dependence-guided evolutionary search with early candidate rejection via
// the coding-style checker (§5.3).
//
// Candidate fitness evaluations can run concurrently (Options.Workers) on
// the worker pool in parallel.go; results stay bit-identical to the
// sequential search because all acceptance and virtual-cost decisions are
// committed in enumeration order on the search goroutine.
package repair
