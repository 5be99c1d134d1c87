package interp

import (
	"fmt"
	"strings"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/ctoken"
	"github.com/hetero/heterogen/internal/ctypes"
)

// Mode selects execution semantics.
type Mode int

// Execution modes.
const (
	// CPU runs the program with software semantics: unbounded heap,
	// native recursion, 32/64-bit arithmetic.
	CPU Mode = iota
	// FPGA runs with fabric semantics: fpga_int arithmetic wraps at its
	// declared width, dynamic allocation faults, the call stack is small,
	// and the cycle model honors HLS pragmas.
	FPGA
)

// Options configures an interpreter.
type Options struct {
	Mode Mode
	// MaxSteps bounds total executed statements/expressions (0 = default).
	MaxSteps int64
	// MaxDepth bounds the call stack (0 = default for the mode).
	MaxDepth int
	// Profile enables value-range tracking of integer variables.
	Profile bool
	// Coverage enables branch coverage recording.
	Coverage bool
	// CaptureName, when set with CaptureCall, snapshots the argument
	// values of every call to the named function — how the fuzzer
	// harvests kernel-entry seeds from a host-program run (Algorithm 1's
	// getKernelSeed).
	CaptureName string
	CaptureCall func(args []Value)
	// Code is the compiled-code cache the interpreter runs from: every
	// function body is compiled once into direct-threaded code
	// (compile.go) and cached, keyed by *cast.FuncDecl identity, so
	// interpreters sharing a Codebase share compiled code. Nil means a
	// private Codebase.
	Code *Codebase
	// CodeKey is an optional content identity for the unit, enabling
	// compiled-code reuse across distinct units with identical content
	// (see the Codebase CodeKey contract). Empty disables content
	// keying; compiled code is then shared by declaration pointer only.
	CodeKey string
}

// Range is a profiled value range for one variable.
type Range struct {
	Min, Max int64
	Seen     bool
}

// Note extends a range with a new observation.
func (r *Range) Note(v int64) {
	if !r.Seen {
		r.Min, r.Max, r.Seen = v, v, true
		return
	}
	if v < r.Min {
		r.Min = v
	}
	if v > r.Max {
		r.Max = v
	}
}

// RuntimeError is any error raised during execution: out-of-bounds access,
// null dereference, allocation faults in FPGA mode, step-limit exhaustion.
type RuntimeError struct {
	Msg string
	Pos ctoken.Pos
	// Budget marks step-limit exhaustion: the execution was cut off, not
	// observed to misbehave. Differential testing reports budget errors
	// as inconclusive rather than as behavioural divergence.
	Budget bool
}

func (e *RuntimeError) Error() string {
	if e.Pos.IsValid() {
		return fmt.Sprintf("runtime error at %s: %s", e.Pos, e.Msg)
	}
	return "runtime error: " + e.Msg
}

// IsBudget reports whether err is a step-budget exhaustion — an
// execution cut off by its limit rather than one that misbehaved.
func IsBudget(err error) bool {
	re, ok := err.(*RuntimeError)
	return ok && re.Budget
}

// Result is the outcome of a kernel invocation.
type Result struct {
	Ret    Value
	Cost   int64 // accumulated cost units (cycles in FPGA mode, ops in CPU)
	Steps  int64
	Output string
}

// Interp executes a translation unit.
type Interp struct {
	unit *cast.Unit
	opts Options

	globals map[string]*binding
	// arrays holds each global declaration's array storage from the
	// last Reset (nil for a scalar), indexed like the unit's compiled
	// declarations, for the next Reset to refill.
	arrays  []*Object
	methods map[string]map[string]*cast.FuncDecl
	frames  []*frame

	steps int64
	cost  int64
	// rawCost accumulates like cost but is never rescaled by pragma
	// modelling; the ratio cost/rawCost bounds how much parallelism the
	// model may claim for a whole kernel.
	rawCost int64
	out     strings.Builder

	// CoverageBits has two slots per branch site: [2k] = false outcome,
	// [2k+1] = true outcome.
	CoverageBits []bool
	// Profiles maps "func.var" to observed integer ranges.
	Profiles map[string]*Range

	// partitions maps array variable name -> array_partition factor for
	// the function currently executing (FPGA cycle model input).
	partitions map[string]int
	// partitionsShared marks partitions as a compiledFunc's cached map,
	// which runtime pragmas must copy before mutating (setPartition).
	partitionsShared bool
	mallocSeq        int
	// fnCache memoizes unit.Func lookups for compiled call sites, which
	// resolve callees by name at runtime so compiled code can be shared
	// between structure-sharing candidate units.
	fnCache map[string]*cast.FuncDecl
	// args is the argument stack calls evaluate their arguments onto.
	args []Value
	// profKeys memoizes the Profiles keys of stores whose variable is
	// known only at run time (through a pointer or into an array).
	profKeys map[[2]string]string
}

// New builds an interpreter over u and initializes global storage.
func New(u *cast.Unit, opts Options) (*Interp, error) {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 4_000_000
	}
	if opts.MaxDepth == 0 {
		if opts.Mode == FPGA {
			opts.MaxDepth = 256
		} else {
			opts.MaxDepth = 4096
		}
	}
	if opts.Code == nil {
		opts.Code = NewCodebase()
	}
	in := &Interp{unit: u, opts: opts}
	if err := in.Reset(); err != nil {
		return nil, err
	}
	return in, nil
}

// Reset reinitializes globals, coverage, cost, output and heap
// numbering (the next malloc is heap#1 again); profiles persist across
// runs (they accumulate over a test suite).
//
// A global array whose previous storage has the same length and was not
// freed keeps that storage: Reset refills its element slots in place
// (fillZero, then the initializer) and never writes into an aggregate,
// so a struct value an earlier run returned keeps its fields. Every
// other global, and every static local, gets storage afresh.
func (in *Interp) Reset() error {
	if in.globals == nil {
		in.globals = map[string]*binding{}
		in.methods = map[string]map[string]*cast.FuncDecl{}
	}
	clear(in.globals)
	clear(in.methods)
	// Popped frames above the stack's length are reused by later calls.
	in.frames = in.frames[:0]
	in.args = in.args[:0]
	in.steps = 0
	in.cost = 0
	in.rawCost = 0
	in.mallocSeq = 0
	in.out.Reset()
	if n := 2 * in.unit.NumBranches; len(in.CoverageBits) == n {
		clear(in.CoverageBits)
	} else {
		in.CoverageBits = make([]bool, n)
	}
	if in.Profiles == nil {
		in.Profiles = map[string]*Range{}
	}
	in.partitions = map[string]int{}
	in.partitionsShared = false

	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				if re, ok := r.(*RuntimeError); ok {
					err = re
					return
				}
				panic(r)
			}
		}()
		fr := &frame{}
		decls := in.opts.Code.unit(in.unit).decls
		if len(in.arrays) != len(decls) {
			in.arrays = make([]*Object, len(decls))
		}
		for i, g := range decls {
			if g.alloc == nil {
				in.methods[g.tag] = g.methods
				continue
			}
			b := g.alloc(in, fr, in.arrays[i])
			in.arrays[i] = b.obj
			in.globals[g.name] = b
		}
	}()
	return err
}

// Output returns everything printed so far.
func (in *Interp) Output() string { return in.out.String() }

// Cost returns accumulated cost units.
func (in *Interp) Cost() int64 { return in.cost }

// flattenArray flattens nested array types to (total length, element type):
// int[2][3] becomes (6, int) with row-major addressing.
func flattenArray(a ctypes.Array) (int, ctypes.Type) {
	total := a.Len
	elem := ctypes.Resolve(a.Elem)
	for {
		inner, ok := elem.(ctypes.Array)
		if !ok {
			return total, elem
		}
		if inner.Len < 0 {
			return total, elem
		}
		total *= inner.Len
		elem = ctypes.Resolve(inner.Elem)
	}
}

// fail raises a runtime error.
func (in *Interp) fail(p ctoken.Pos, format string, args ...any) {
	panic(&RuntimeError{Msg: fmt.Sprintf(format, args...), Pos: p})
}

// step counts one executed statement or expression node at p against
// the step budget. It runs once per node, so it stays small enough to
// inline; the fault is out of line.
func (in *Interp) step(p ctoken.Pos) {
	in.steps++
	if in.steps > in.opts.MaxSteps {
		in.stepLimit(p)
	}
}

// stepLimit raises the step-budget fault at p.
//
//go:noinline
func (in *Interp) stepLimit(p ctoken.Pos) {
	panic(&RuntimeError{
		Msg:    fmt.Sprintf("step limit exceeded (%d)", in.opts.MaxSteps),
		Pos:    p,
		Budget: true,
	})
}

// CallKernel invokes the named function with the given argument values,
// catching runtime errors. Array arguments must be pointer values created
// with NewArrayObject.
func (in *Interp) CallKernel(name string, args []Value) (res Result, err error) {
	fn := in.unit.Func(name)
	if fn == nil {
		return Result{}, fmt.Errorf("interp: no function %q", name)
	}
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(*RuntimeError); ok {
				err = re
				res.Output = in.out.String()
				return
			}
			panic(r)
		}
	}()
	startCost := in.cost
	startRaw := in.rawCost
	ret := in.callFunction(fn, args, fn.P)
	cost := in.cost - startCost
	if in.opts.Mode == FPGA {
		if floor := (in.rawCost - startRaw) / KernelSpeedupCap; cost < floor {
			cost = floor
		}
	}
	return Result{Ret: ret, Cost: cost, Steps: in.steps, Output: in.out.String()}, nil
}

// NewArrayObject creates array storage holding the given element values
// and returns a pointer to it (the natural representation of an array
// kernel argument). The storage takes ownership of vals: its elements
// are the slice's, so the caller must not use vals afterwards.
func NewArrayObject(name string, elem ctypes.Type, vals []Value) Value {
	return Value{Kind: VPtr, Obj: &Object{Name: name, Elem: ctypes.Resolve(elem), Elems: vals}}
}

// callFunction executes fn with evaluated argument values.
func (in *Interp) callFunction(fn *cast.FuncDecl, args []Value, p ctoken.Pos) Value {
	if len(in.frames) >= in.opts.MaxDepth {
		in.fail(p, "call depth limit exceeded (%d) in %q", in.opts.MaxDepth, fn.Name)
	}
	if fn.Body == nil {
		in.fail(p, "call to undefined function %q", fn.Name)
	}
	if in.opts.CaptureCall != nil && fn.Name == in.opts.CaptureName {
		snap := make([]Value, len(args))
		for i, a := range args {
			snap[i] = a.DeepCopy()
		}
		in.opts.CaptureCall(snap)
	}
	cf := in.compiled(fn, nil)
	fr := in.nextFrame(cf.frameName, lvalue{}, nil)
	in.bindParams(fr, cf, fn, args, p)
	in.frames = append(in.frames, fr)
	prevPart, prevShared := in.partitions, in.partitionsShared
	in.partitions = cf.parts
	in.partitionsShared = true
	in.addCost(costCall)

	if cf.dataflow && in.opts.Mode == FPGA {
		cf.runDataflow(in, fr)
	} else {
		cf.run(in, fr)
	}

	in.partitions, in.partitionsShared = prevPart, prevShared
	ret := fr.retVal
	in.frames = in.frames[:len(in.frames)-1]
	return ret
}

// compiled returns fn's compiled form (as a method of recv when recv is
// non-nil), raising its compile error if it has one.
func (in *Interp) compiled(fn *cast.FuncDecl, recv *ctypes.Struct) *compiledFunc {
	cf := in.opts.Code.get(in.unit, fn, recv, in.opts.CodeKey)
	if cf.err != nil {
		panic(cf.err)
	}
	return cf
}

// callMethod executes a struct member function on the receiver storage
// recv: a frame named Tag::name whose receiver fields resolve to recv.
// Unlike a plain call it keeps the caller's partition map and runs the
// body sequentially even under dataflow.
func (in *Interp) callMethod(fn *cast.FuncDecl, recv lvalue, st *ctypes.Struct, args []Value, p ctoken.Pos) Value {
	if len(in.frames) >= in.opts.MaxDepth {
		in.fail(p, "call depth limit exceeded in method %q", fn.Name)
	}
	cf := in.compiled(fn, st)
	fr := in.nextFrame(cf.frameName, recv, st)
	in.bindParams(fr, cf, fn, args, p)
	in.frames = append(in.frames, fr)
	in.addCost(costCall)
	cf.run(in, fr)
	in.frames = in.frames[:len(in.frames)-1]
	return fr.retVal
}

// funcOf resolves a function name against the unit, memoized. Compiled
// call sites resolve callees by name at runtime (instead of baking in a
// *cast.FuncDecl at compile time) so code compiled for one unit stays
// correct inside structure-sharing sibling units whose edited functions
// are fresh declarations.
func (in *Interp) funcOf(name string) *cast.FuncDecl {
	if fn, ok := in.fnCache[name]; ok {
		return fn
	}
	if in.fnCache == nil {
		in.fnCache = map[string]*cast.FuncDecl{}
	}
	fn := in.unit.Func(name)
	in.fnCache[name] = fn
	return fn
}

// nextFrame returns a fresh frame for a call: the one a finished call
// left just above the top of the stack, or a new one. The caller pushes
// it once its parameters are bound.
func (in *Interp) nextFrame(fn string, recv lvalue, st *ctypes.Struct) *frame {
	var fr *frame
	if n := len(in.frames); n < cap(in.frames) {
		fr = in.frames[:n+1][n]
	}
	if fr == nil {
		fr = &frame{}
	}
	fr.fn, fr.receiver, fr.recvType = fn, recv, st
	fr.retVal, fr.returned = Value{}, false
	return fr
}

// bindParams binds the argument values to fresh parameter storage at
// the compiler-assigned slots, coercing each to its parameter type
// (array parameters are pointers) and profiling integer arguments.
func (in *Interp) bindParams(fr *frame, cf *compiledFunc, fn *cast.FuncDecl, args []Value, p ctoken.Pos) {
	if len(args) != len(fn.Params) {
		in.fail(p, "call to %q with %d args, want %d", fn.Name, len(args), len(fn.Params))
	}
	fr.slots = cleared(fr.slots, cf.nslots)
	fr.vals = cleared(fr.vals, cf.nvals)
	for i, prm := range cf.params {
		v := args[i]
		if prm.val {
			fr.vals[prm.slot] = in.coerce(v, prm.rt)
		} else {
			fr.slots[prm.slot] = newScalar(prm.name, prm.rt, prm.typ, in.coerce(v, prm.rt))
		}
		if in.opts.Profile && v.Kind == VInt {
			in.noteProfile(prm.key, v.Int)
		}
	}
}

func (in *Interp) top() *frame { return in.frames[len(in.frames)-1] }

// noteProfile records an observed integer value under a "func.var" key.
func (in *Interp) noteProfile(key string, v int64) {
	r, ok := in.Profiles[key]
	if !ok {
		r = &Range{}
		in.Profiles[key] = r
	}
	r.Note(v)
}

// profileKey is the Profiles key of variable name in frame fn.
func (in *Interp) profileKey(fn, name string) string {
	k := [2]string{fn, name}
	key, ok := in.profKeys[k]
	if !ok {
		if in.profKeys == nil {
			in.profKeys = map[[2]string]string{}
		}
		key = fn + "." + name
		in.profKeys[k] = key
	}
	return key
}

// recordBranch notes a (site, outcome) coverage event.
func (in *Interp) recordBranch(site int, taken bool) {
	if !in.opts.Coverage || site < 0 || 2*site+1 >= len(in.CoverageBits) {
		return
	}
	idx := 2 * site
	if taken {
		idx++
	}
	in.CoverageBits[idx] = true
}

// CoverageCount returns the number of covered branch outcomes.
func (in *Interp) CoverageCount() int {
	n := 0
	for _, b := range in.CoverageBits {
		if b {
			n++
		}
	}
	return n
}
