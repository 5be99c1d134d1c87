// Package sim is the FPGA simulator of the toolchain: it executes an
// HLS-C design with fabric semantics (fixed-bitwidth arithmetic, no
// dynamic allocation, bounded call depth), reports simulated kernel
// latency from the interpreter's pragma-aware cycle model, and estimates
// fabric resource usage (LUT/FF/DSP/BRAM) from the design's declarations.
//
// Latency is what the paper's Table 5 "Runtime" columns report, and the
// resource estimate quantifies the benefit of bitwidth finitization.
package sim

import (
	"fmt"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/ctoken"
	"github.com/hetero/heterogen/internal/ctypes"
	"github.com/hetero/heterogen/internal/hls"
	"github.com/hetero/heterogen/internal/interp"
)

// Simulator runs a compiled design.
type Simulator struct {
	unit *cast.Unit
	cfg  hls.Config
	in   *interp.Interp
}

// New prepares a simulator for the design. The unit should already have
// passed the synthesizability check; runtime faults (allocation, deep
// recursion) still surface as errors. Function bodies run as code
// compiled once per *cast.FuncDecl and cached in code, so repeated
// simulations of candidates that share unedited functions
// (structure-sharing repair clones) skip recompiling them; nil code
// gives the simulator a private cache. A non-empty codeKey additionally
// enables content-keyed reuse across identical candidates regenerated
// with fresh declarations (see the interp.Codebase CodeKey contract).
func New(u *cast.Unit, cfg hls.Config, code *interp.Codebase, codeKey string) (*Simulator, error) {
	in, err := interp.New(u, interp.Options{Mode: interp.FPGA, MaxSteps: cfg.InterpSteps, Code: code, CodeKey: codeKey})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return &Simulator{unit: u, cfg: cfg, in: in}, nil
}

// RunResult is one kernel invocation's outcome.
type RunResult struct {
	Ret       interp.Value
	Cycles    int64
	LatencyMS float64
	Output    string
}

// Run invokes the top function with the given arguments.
func (s *Simulator) Run(args []interp.Value) (RunResult, error) {
	res, err := s.in.CallKernel(s.cfg.Top, args)
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{
		Ret:       res.Ret,
		Cycles:    res.Cost,
		LatencyMS: interp.FPGATimeMS(res.Cost),
		Output:    res.Output,
	}, nil
}

// Reset readies the simulator for an independent test vector: the next
// Run starts from the state it would have on a fresh simulator (globals,
// static locals, heap numbering, coverage, cost and output), with the
// global arrays refilled in place rather than reallocated.
func (s *Simulator) Reset() error { return s.in.Reset() }

// ---------------------------------------------------------------------------
// Resource estimation

// Resources is a fabric utilization estimate.
type Resources struct {
	LUT  int
	FF   int
	DSP  int
	BRAM int // 18Kb blocks
}

// Add accumulates another estimate.
func (r *Resources) Add(o Resources) {
	r.LUT += o.LUT
	r.FF += o.FF
	r.DSP += o.DSP
	r.BRAM += o.BRAM
}

// String renders the estimate.
func (r Resources) String() string {
	return fmt.Sprintf("LUT=%d FF=%d DSP=%d BRAM=%d", r.LUT, r.FF, r.DSP, r.BRAM)
}

// CheckCapacity reports whether the design's estimate fits a device's
// capacity, returning the over-utilized resource names.
func CheckCapacity(r Resources, c hls.Capacity) (bool, []string) {
	var over []string
	if r.LUT > c.LUT {
		over = append(over, "LUT")
	}
	if r.FF > c.FF {
		over = append(over, "FF")
	}
	if r.DSP > c.DSP {
		over = append(over, "DSP")
	}
	if r.BRAM > c.BRAM {
		over = append(over, "BRAM")
	}
	return len(over) == 0, over
}

// Utilization renders the estimate as percentages of a device's capacity.
func Utilization(r Resources, c hls.Capacity) string {
	pct := func(used, cap int) float64 {
		if cap == 0 {
			return 0
		}
		return 100 * float64(used) / float64(cap)
	}
	return fmt.Sprintf("LUT %.1f%% FF %.1f%% DSP %.1f%% BRAM %.1f%%",
		pct(r.LUT, c.LUT), pct(r.FF, c.FF),
		pct(r.DSP, c.DSP), pct(r.BRAM, c.BRAM))
}

// Estimate walks the design and derives a resource estimate:
//
//   - every scalar register costs FF equal to its bit width and LUTs for
//     its datapath (about half the width);
//   - arrays cost BRAM blocks of 18Kb each (partitioning multiplies block
//     count by the factor since each bank needs its own ports);
//   - every multiplication of width >10 bits maps to a DSP48;
//   - floating-point operators cost bundles of LUT+DSP.
//
// The absolute numbers are synthetic, but the estimate is monotonic in
// bitwidths and array sizes, which is the property the bitwidth-
// finitization experiments need.
func Estimate(u *cast.Unit) Resources {
	var r Resources
	addScalar := func(bits int) {
		r.FF += bits
		r.LUT += (bits + 1) / 2
	}
	addArray := func(totalBits, partitions int) {
		if partitions < 1 {
			partitions = 1
		}
		blocks := (totalBits + 18*1024 - 1) / (18 * 1024)
		if blocks < 1 {
			blocks = 1
		}
		r.BRAM += blocks * partitions
	}

	partitions := map[string]int{}
	cast.Inspect(u, func(n cast.Node) bool {
		if p, ok := n.(*cast.Pragma); ok {
			d := cast.ParsePragma(p.Text)
			if d.Kind == cast.PragmaArrayPartition && d.Variable != "" {
				f := d.Factor
				if f <= 0 {
					f = 4
				}
				partitions[d.Variable] = f
			}
		}
		return true
	})
	for _, d := range u.Decls {
		if f, ok := d.(*cast.FuncDecl); ok {
			for _, p := range f.Pragmas {
				dir := cast.ParsePragma(p.Text)
				if dir.Kind == cast.PragmaArrayPartition && dir.Variable != "" {
					fac := dir.Factor
					if fac <= 0 {
						fac = 4
					}
					partitions[dir.Variable] = fac
				}
			}
		}
	}

	seenDecl := func(name string, t ctypes.Type) {
		rt := ctypes.Resolve(t)
		switch x := rt.(type) {
		case ctypes.Array:
			bits := x.Bits()
			if bits <= 0 {
				bits = 32 * 64 // unknown size: charge a default buffer
			}
			addArray(bits, partitions[name])
		case *ctypes.Struct:
			addScalar(x.Bits())
		default:
			b := rt.Bits()
			if b > 0 {
				addScalar(b)
			}
		}
	}

	cast.Inspect(u, func(n cast.Node) bool {
		switch x := n.(type) {
		case *cast.VarDecl:
			seenDecl(x.Name, x.Type)
		case *cast.DeclStmt:
			seenDecl(x.Name, x.Type)
		case *cast.Binary:
			switch x.Op {
			case ctoken.MUL:
				r.DSP++
			case ctoken.QUO, ctoken.REM:
				r.DSP += 2
				r.LUT += 150
			}
		}
		return true
	})

	// Floating point usage adds operator bundles.
	floats := 0
	cast.Inspect(u, func(n cast.Node) bool {
		if d, ok := n.(*cast.DeclStmt); ok {
			if ctypes.IsFloat(d.Type) {
				floats++
			}
		}
		return true
	})
	r.LUT += floats * 120
	r.DSP += floats

	return r
}
