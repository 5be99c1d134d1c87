package interp

import (
	"fmt"
	"sync"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/ctypes"
)

// This file holds the compiled-code runtime: the direct-threaded
// instruction representation produced by compile.go, the per-function
// container, and the shared Codebase cache that lets every candidate
// unit sharing an unedited *cast.FuncDecl reuse its compiled form.
//
// Compiled execution is the interpreter's only execution path. Its
// observable outcomes — values, cost, raw cost, step count, output,
// coverage bits, profiles, and error messages with their positions and
// budget classification — are pinned by recorded golden outcomes under
// testdata/golden (difffuzz_test.go, outcomes_test.go, vla_diff_test.go).

// Op types: compiled code is a flat slice of closures ("direct-threaded
// code") — one execOp per statement, composed from evalOp/lvOp
// sub-instructions. Closures carry only compile-time-constant state, so
// one compiled function is safely shared across goroutines, interpreter
// instances, and execution modes (every mode-dependent decision reads
// in.opts at run time).
// An intOp is a typed integer expression (compile_expr.go): it returns
// the bare int64 of a value whose carrier the compiler knows.
type (
	execOp func(in *Interp, fr *frame) control
	evalOp func(in *Interp, fr *frame) Value
	intOp  func(in *Interp, fr *frame) int64
	lvOp   func(in *Interp, fr *frame) lvalue
)

// compiledFunc is one function's compiled body.
type compiledFunc struct {
	fn *cast.FuncDecl
	// stmts are the top-level body statements; isCall marks which are
	// call statements (the dataflow cost-overlap set, precomputed).
	stmts  []execOp
	isCall []bool
	// nslots and nvals size the frame's slots and vals; params binds
	// the arguments.
	nslots, nvals int
	params        []param
	// parts is the function-head array_partition map. It is shared by
	// every frame running this code, so the interpreter marks it
	// partitionsShared and copies on the first runtime pragma write.
	parts    map[string]int
	dataflow bool
	// frameName is the running frame's name: the function's, or
	// Tag::name for a method body.
	frameName string
	// err is a compile failure, raised when the function is called.
	err *RuntimeError
	// sites is the body's typed-path inventory.
	sites siteCounts
}

// siteCounts counts a body's binary operators, conditions (if, for,
// while, ?: and switch scrutinees), index expressions, and array element
// loads and stores (=, compound assignment, ++ and --), and how many of
// each compiled typed: a binary operator over two typed operands, a
// condition or index read as a bare int64, an integer element loaded or
// stored as one.
type siteCounts struct {
	Binary, BinaryTyped int
	Cond, CondTyped     int
	Index, IndexTyped   int
	Load, LoadTyped     int
	Store, StoreTyped   int
}

// param is one parameter's compiled binding.
type param struct {
	slot int  // index in the frame's vals, or slots
	val  bool // a frame-slot scalar
	// rt is the storage type (the resolved type; an array decays to a
	// pointer), typ the declared one.
	rt, typ ctypes.Type
	name    string
	key     string // the Profiles key
}

// run executes the body's statements in order — the body block itself
// is not stepped — until a return or an escaping break/continue.
func (cf *compiledFunc) run(in *Interp, fr *frame) {
	for _, op := range cf.stmts {
		if c := op(in, fr); c != ctlNone || fr.returned {
			return
		}
	}
}

// runDataflow runs a body under #pragma HLS dataflow: semantics are
// unchanged, but the top-level call statements overlap (the longest
// one's cost instead of the sum, on cost only — rawCost keeps the
// sequential sum), the fabric's task-level pipelining.
func (cf *compiledFunc) runDataflow(in *Interp, fr *frame) {
	var maxCall int64
	for i, op := range cf.stmts {
		before := in.cost
		c := op(in, fr)
		if cf.isCall[i] {
			delta := in.cost - before
			in.cost = before
			if delta > maxCall {
				maxCall = delta
			}
		}
		if c != ctlNone || fr.returned {
			break
		}
	}
	in.cost += maxCall
}

// codebaseCap bounds the content-keyed compiled-function cache; it
// stays near the number of distinct candidate bodies a search visits.
const codebaseCap = 4096

// codebasePtrCap bounds the pointer-identity map separately, and much
// tighter: every evaluated candidate mints a fresh edited *cast.FuncDecl,
// and compiled closures would pin each candidate's AST for the cache's
// lifetime. A small cap keeps the live set to the recent working set —
// evicted entries cost one content-cache lookup to restore, not a
// recompilation.
const codebasePtrCap = 128

// codeID is the pointer-cache key: a function compiled as a method
// resolves receiver fields at compile time, so it is compiled once per
// receiver struct (recv is nil for a plain call).
type codeID struct {
	fn   *cast.FuncDecl
	recv *ctypes.Struct
}

// Codebase caches compiled functions, keyed twice: by declaration
// identity (the fast hit for structure-sharing candidates, which keep
// unedited *cast.FuncDecl pointers and for repeated runs of one
// candidate), and — when the caller supplies a content key via
// Options.CodeKey — by (unit content key, struct tag, function name), so
// a candidate regenerated with identical content in a later search
// iteration, a fresh pointer every time, reuses the compiled body
// instead of recompiling it. It also caches each unit's compiled global
// initializers, which Reset replays.
//
// The CodeKey contract: two units presenting the same key must be
// interchangeable per declaration — equal canonical text, equal token
// positions, and equal branch-site numbering — because the reused code
// executes the AST nodes of whichever unit compiled first, and
// positions (error messages) and branch IDs (coverage bits) are
// observable. The repair search's content fingerprints satisfy this:
// every candidate descends from one parsed unit through edits that
// preserve parse positions and branch numbering (or renumber the whole
// unit deterministically), so equal printed text implies equal
// positions and numbering.
//
// Codebase is safe for concurrent use; a cache miss compiles outside
// the lock (duplicate concurrent compiles of the same function produce
// equivalent code, and the last write wins harmlessly).
type Codebase struct {
	mu      sync.Mutex
	m       map[codeID]*compiledFunc
	content map[string]*compiledFunc
	units   map[*cast.Unit]*unitCode
}

// NewCodebase creates an empty compiled-code cache, shareable across
// interpreters, goroutines, and execution modes.
func NewCodebase() *Codebase {
	return &Codebase{
		m:       map[codeID]*compiledFunc{},
		content: map[string]*compiledFunc{},
		units:   map[*cast.Unit]*unitCode{},
	}
}

// contentKey builds the content-cache key for fn inside a unit whose
// caller-supplied key is codeKey. The struct tag separates a method from
// a same-named function, the function name disambiguates declarations
// within the unit, and the body marker separates a prototype from its
// definition (same name, different compiled form).
func contentKey(codeKey string, id codeID) string {
	body := "p"
	if id.fn.Body != nil {
		body = "d"
	}
	tag := ""
	if id.recv != nil {
		tag = id.recv.Tag
	}
	return codeKey + "\x00" + tag + "\x00" + id.fn.Name + "\x00" + body
}

func (cb *Codebase) get(u *cast.Unit, fn *cast.FuncDecl, recv *ctypes.Struct, codeKey string) *compiledFunc {
	id := codeID{fn, recv}
	cb.mu.Lock()
	if cf, ok := cb.m[id]; ok {
		cb.mu.Unlock()
		return cf
	}
	cb.mu.Unlock()

	var key string
	if codeKey != "" {
		key = contentKey(codeKey, id)
		cb.mu.Lock()
		if cf, ok := cb.content[key]; ok {
			if len(cb.m) >= codebasePtrCap {
				cb.m = map[codeID]*compiledFunc{}
			}
			cb.m[id] = cf
			cb.mu.Unlock()
			return cf
		}
		cb.mu.Unlock()
	}

	cf := compileFunc(u, fn, recv)
	cb.mu.Lock()
	if len(cb.m) >= codebasePtrCap {
		cb.m = map[codeID]*compiledFunc{}
	}
	cb.m[id] = cf
	if key != "" {
		if len(cb.content) >= codebaseCap {
			cb.content = map[string]*compiledFunc{}
		}
		cb.content[key] = cf
	}
	cb.mu.Unlock()
	return cf
}

// unit returns u's compiled global initializers.
func (cb *Codebase) unit(u *cast.Unit) *unitCode {
	cb.mu.Lock()
	uc, ok := cb.units[u]
	cb.mu.Unlock()
	if ok {
		return uc
	}
	uc = compileUnit(u)
	cb.mu.Lock()
	if len(cb.units) >= codebasePtrCap {
		cb.units = map[*cast.Unit]*unitCode{}
	}
	cb.units[u] = uc
	cb.mu.Unlock()
	return uc
}

// Size reports the number of cached compiled functions (for tests and
// observability).
func (cb *Codebase) Size() int {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	return len(cb.m)
}

// unitCode is a unit's compiled global storage, in declaration order:
// each entry either allocates and initializes one global or installs
// one struct's method table.
type unitCode struct {
	decls []globalDecl
}

type globalDecl struct {
	name string
	// alloc binds the global, refilling prev, the array storage of the
	// last Reset, when it fits (newArray).
	alloc func(in *Interp, fr *frame, prev *Object) *binding
	// tag and methods install a struct's method table.
	tag     string
	methods map[string]*cast.FuncDecl
}

// compileUnit compiles u's global initializers. Each one compiles
// against the globals declared before it, exactly what Reset has bound
// when it runs; a compiler defect faults that global's initialization.
func compileUnit(u *cast.Unit) *unitCode {
	c := &compiler{
		unit:    u,
		globals: map[string]ctypes.Type{},
	}
	uc := &unitCode{}
	for _, d := range u.Decls {
		switch x := d.(type) {
		case *cast.VarDecl:
			uc.decls = append(uc.decls, globalDecl{name: x.Name, alloc: c.globalInit(x)})
			c.globals[x.Name] = x.Type
		case *cast.StructDecl:
			uc.decls = append(uc.decls, globalDecl{tag: x.Type.Tag, methods: methodTable(x)})
		}
	}
	return uc
}

func (c *compiler) globalInit(d *cast.VarDecl) (alloc func(in *Interp, fr *frame, prev *Object) *binding) {
	defer func() {
		if r := recover(); r != nil {
			err := &RuntimeError{Msg: fmt.Sprintf("internal compiler error in the initializer of %q: %v", d.Name, r), Pos: d.P}
			alloc = func(in *Interp, fr *frame, prev *Object) *binding { panic(err) }
		}
	}()
	name, t := d.Name, d.Type
	leafOps, initOp := c.initOps(t, d.Init)
	return func(in *Interp, fr *frame, prev *Object) *binding {
		return in.allocate(name, t, leafOps, initOp, fr, prev)
	}
}
