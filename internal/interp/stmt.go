package interp

import (
	"github.com/hetero/heterogen/internal/cast"
)

// control reports whether a break/continue unwound out of a statement.
type control int

const (
	ctlNone control = iota
	ctlBreak
	ctlContinue
)

func isCallStmt(s cast.Stmt) bool {
	es, ok := s.(*cast.ExprStmt)
	if !ok {
		return false
	}
	_, isCall := es.X.(*cast.Call)
	return isCall
}

// ---------------------------------------------------------------------------
// FPGA cycle scaling for pragmas

// Cycle-model constants for pragma-driven loop acceleration.
const (
	// pipelineDepth is the fill/flush latency of a pipelined loop.
	pipelineDepth = 12
	// maxLoopSpeedup caps the combined benefit of pipelining + unrolling
	// one loop (resource- and port-limited in practice).
	maxLoopSpeedup = 64
	// whileMinII is the initiation interval floor for while loops, whose
	// exit condition usually carries a loop dependence.
	whileMinII = 2
)

// loopScale is the compile-time precomputation of scaleLoopCost's
// inputs: the parsed pragma directives and the index-identifier names
// the body's partition lookup walks. The partition factors themselves
// stay a run-time lookup (pragmas executed inside the body can change
// them mid-run).
type loopScale struct {
	// hasPragmas gates scaling on any pragma at all, unparsed and
	// non-HLS ones included.
	hasPragmas bool
	dirs       []cast.PragmaDirective
	idxNames   []string
}

func newLoopScale(pragmas []*cast.Pragma, body cast.Stmt) *loopScale {
	ls := &loopScale{hasPragmas: len(pragmas) > 0}
	for _, p := range pragmas {
		ls.dirs = append(ls.dirs, cast.ParsePragma(p.Text))
	}
	seen := map[string]bool{}
	cast.Inspect(body, func(n cast.Node) bool {
		if ix, ok := n.(*cast.Index); ok {
			if id, ok := ix.X.(*cast.Ident); ok && !seen[id.Name] {
				seen[id.Name] = true
				ls.idxNames = append(ls.idxNames, id.Name)
			}
		}
		return true
	})
	return ls
}

// maxPartition returns the largest partition factor among the arrays
// the loop body indexes (1 when none are partitioned).
func (ls *loopScale) maxPartition(in *Interp) int {
	max := 1
	for _, n := range ls.idxNames {
		if f, ok := in.partitions[n]; ok && f > max {
			max = f
		}
	}
	return max
}

// scaleLoopCost rescales the cycles consumed by a finished loop according
// to its HLS pragmas (FPGA mode only):
//
//   - pipeline II=n retires one iteration every n cycles once the pipeline
//     fills, so the loop costs about iterations*n/unroll + depth instead
//     of iterations * bodyCycles;
//   - unroll factor F divides the iteration count, bounded by the memory
//     ports available (2 per partition bank of the arrays the body
//     touches);
//   - the combined speedup is capped at maxLoopSpeedup.
func (in *Interp) scaleLoopCost(ls *loopScale, startCost, iterations int64, minII int) {
	if in.opts.Mode != FPGA || !ls.hasPragmas || iterations <= 0 {
		return
	}
	delta := in.cost - startCost
	if delta <= 0 {
		return
	}
	pipelined := false
	ii := minII
	unroll := 1
	for _, d := range ls.dirs {
		switch d.Kind {
		case cast.PragmaPipeline:
			pipelined = true
			if d.Factor > ii {
				ii = d.Factor
			}
		case cast.PragmaUnroll:
			f := d.Factor
			if f <= 0 {
				f = 8 // full unroll default benefit
			}
			ports := 2 * ls.maxPartition(in)
			if f > ports {
				f = ports
			}
			if f > unroll {
				unroll = f
			}
		}
	}
	scaled := delta
	if unroll > 1 {
		scaled = delta / int64(unroll)
	}
	if pipelined {
		piped := iterations*int64(ii)/int64(unroll) + pipelineDepth
		if piped < scaled {
			scaled = piped
		}
	}
	if floor := delta / maxLoopSpeedup; scaled < floor {
		scaled = floor
	}
	if scaled >= delta {
		return
	}
	in.cost = startCost + scaled + costLoopOverhead
}

// partitionBanks derives the effective bank count of a partition
// directive: the factor for cyclic/block partitions, or "fully
// registered" for type=complete.
func partitionBanks(d cast.PragmaDirective) int {
	if d.PartitionType == "complete" {
		return 64 // every element independently addressable
	}
	if d.Factor <= 0 {
		return 4
	}
	return d.Factor
}

// setPartition records one array's banking, copying the partition map
// first when it is the shared compile-time map of a compiledFunc (the
// compiled partitions are cached per function and shared across frames
// and interpreters, so runtime pragmas must never write through).
func (in *Interp) setPartition(name string, banks int) {
	if in.partitionsShared {
		m := make(map[string]int, len(in.partitions)+1)
		for k, v := range in.partitions {
			m[k] = v
		}
		in.partitions = m
		in.partitionsShared = false
	}
	in.partitions[name] = banks
}

// gatherPartitions collects array_partition pragmas at a function's head.
func gatherPartitions(fn *cast.FuncDecl) map[string]int {
	out := map[string]int{}
	for _, p := range fn.Pragmas {
		d := cast.ParsePragma(p.Text)
		if d.Kind == cast.PragmaArrayPartition && d.Variable != "" {
			out[d.Variable] = partitionBanks(d)
		}
	}
	return out
}
