// Package hls defines the shared vocabulary of the simulated HLS
// toolchain: diagnostics in the style of Vivado HLS, the six
// compatibility-error classes identified by the paper's forum study
// (§5.1), and the toolchain configuration (top function, target device).
//
// The concrete tools live in subpackages: check (full synthesizability
// checking), stylecheck (the lightweight pre-compilation validator), and
// sim (FPGA-semantics execution with a pragma-aware cycle model).
package hls

import (
	"fmt"
)

// ErrorClass is one of the six HLS compatibility error types of §5.1.
type ErrorClass int

// The six error classes, in the order of the paper's Table 1.
const (
	ClassNone ErrorClass = iota
	ClassDynamicData
	ClassUnsupportedType
	ClassDataflow
	ClassLoopParallel
	ClassStructUnion
	ClassTopFunction
)

var classNames = map[ErrorClass]string{
	ClassNone:            "none",
	ClassDynamicData:     "Dynamic Data Structures",
	ClassUnsupportedType: "Unsupported Data Types",
	ClassDataflow:        "Dataflow Optimization",
	ClassLoopParallel:    "Loop Parallelization",
	ClassStructUnion:     "Struct and Union",
	ClassTopFunction:     "Top Function",
}

// String returns the paper's name for the class.
func (c ErrorClass) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("ErrorClass(%d)", int(c))
}

// AllClasses lists the six real classes (excluding ClassNone).
func AllClasses() []ErrorClass {
	return []ErrorClass{
		ClassDynamicData, ClassUnsupportedType, ClassDataflow,
		ClassLoopParallel, ClassStructUnion, ClassTopFunction,
	}
}

// Diagnostic is one toolchain message, formatted like Vivado HLS output
// (e.g. "ERROR: [XFORM 202-876] Synthesizability check failed: ...").
type Diagnostic struct {
	Code    string // e.g. "XFORM 202-876"
	Message string
	Class   ErrorClass
	// Subject names the offending entity (function, variable, array).
	Subject string
}

// Error renders the diagnostic in Vivado style.
func (d Diagnostic) Error() string {
	return fmt.Sprintf("ERROR: [%s] %s", d.Code, d.Message)
}

// Config is the toolchain configuration.
type Config struct {
	// Top is the design's top function (module entry point).
	Top string
	// Device is the target part name (reporting only).
	Device string
	// ClockMHz is the requested kernel clock.
	ClockMHz float64
	// InterpSteps bounds each interpreter-backed execution (CPU
	// reference runs and FPGA simulations in the differential test); 0
	// keeps the interpreter's default budget. Exhaustion surfaces as an
	// inconclusive(timeout) differential-test verdict, never as a
	// behaviour mismatch.
	InterpSteps int64
}

// DefaultConfig targets the evaluation platform of the paper.
func DefaultConfig(top string) Config {
	return Config{Top: top, Device: "xcvu9p-flgb2104-2-i", ClockMHz: 250}
}

// Report is the result of a toolchain run.
type Report struct {
	Diags []Diagnostic
	// OK reports whether synthesis would proceed (no diagnostics).
	OK bool
}

// ByClass groups diagnostics by error class.
func (r Report) ByClass() map[ErrorClass][]Diagnostic {
	out := map[ErrorClass][]Diagnostic{}
	for _, d := range r.Diags {
		out[d.Class] = append(out[d.Class], d)
	}
	return out
}

// HasClass reports whether any diagnostic has the given class.
func (r Report) HasClass(c ErrorClass) bool {
	for _, d := range r.Diags {
		if d.Class == c {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Simulated toolchain latency
//
// Compiling an HLS design takes minutes to hours; checking coding style
// with an LLVM frontend takes well under a second. The repair engine
// tracks this as virtual time so the ablation experiments (Figure 9)
// reproduce deterministically without actually sleeping.

// VirtualCost is simulated wall-clock seconds for one toolchain action.
type VirtualCost float64

// Virtual latencies, in seconds. Full HLS compilation scales with design
// size; the style check is effectively free by comparison.
const (
	// StyleCheckSeconds is the cost of one lightweight frontend pass.
	StyleCheckSeconds VirtualCost = 0.8
	// CompileBaseSeconds is the fixed cost of HLS scheduling, binding and
	// RTL generation for a trivial design.
	CompileBaseSeconds VirtualCost = 50
	// CompilePerLineSeconds scales compilation with kernel size.
	CompilePerLineSeconds VirtualCost = 0.5
	// SimPerTestSeconds is the cost of simulating one test vector.
	SimPerTestSeconds VirtualCost = 0.05
)

// CompileCost returns the virtual cost of fully compiling a design with
// the given printed line count.
func CompileCost(lines int) VirtualCost {
	return CompileBaseSeconds + VirtualCost(lines)*CompilePerLineSeconds
}
