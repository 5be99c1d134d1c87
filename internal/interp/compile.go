package interp

import (
	"fmt"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/ctoken"
	"github.com/hetero/heterogen/internal/ctypes"
)

// The compiler translates one function body into direct-threaded code
// (code.go). Every decision that depends only on static information —
// name resolution, expression types, strides, builtin dispatch, branch
// IDs, pragma directives — is made here once; everything that can
// differ at run time (values, modes, partition maps, callee
// declarations under structure-sharing units, the concretized lengths
// of variable-length arrays, whether a conditionally declared name is
// bound yet) stays a run-time read. A compiler defect is recovered in
// compileFunc and raised as a RuntimeError when the function is called.
//
// The semantics are those of a lexically scoped C interpreter: each
// block, for statement and call opens a scope; a declaration defines
// its name in the innermost open scope when it executes; a name
// resolves to the innermost definition, then to a receiver field inside
// a method, then to a global.

// refKind classifies a compile-time name resolution.
type refKind int

const (
	refUndef  refKind = iota // unbound: using the name is a runtime error
	refSlot                  // a local in the frame's slot array
	refVal                   // a scalar local in the frame's value array
	refField                 // a field of the method receiver
	refGlobal                // a global (or nothing, if Reset has not bound it)
)

// nameRef is an identifier's compile-time resolution, in lookup order:
// frame scopes, then receiver fields, then globals. typ is the name's
// declared type. A local
// declared in a conditional non-block position (if branch, loop body,
// switch arm) is bound only once its declaration has run, so its slot
// may be empty; outer is then the resolution the name had before the
// declaration.
type nameRef struct {
	kind refKind
	name string
	typ  ctypes.Type
	// slot indexes the frame's slots, or its vals for refVal; a refVal
	// also records its storage type.
	slot    int
	rt      ctypes.Type
	isArray bool // a slot bound to array storage (binding.isLV false)
	field   int
	outer   *nameRef
}

// bind resolves r in the running frame: the location, the binding (nil
// for a receiver field), and whether the name is bound at all.
func (r *nameRef) bind(in *Interp, fr *frame) (lvalue, *binding, bool) {
	switch r.kind {
	case refSlot:
		if b := fr.slots[r.slot]; b != nil {
			return b.lv, b, true
		}
		if r.outer != nil {
			return r.outer.bind(in, fr)
		}
	case refField:
		return fr.receiver.field(r.field, r.typ), nil, true
	case refGlobal:
		if b, ok := in.globals[r.name]; ok {
			return b.lv, b, true
		}
	}
	return lvalue{}, nil, false
}

// typeAt is the declared type of whatever r is bound to in the running
// frame (nil when unbound).
func (r *nameRef) typeAt(in *Interp, fr *frame) ctypes.Type {
	switch r.kind {
	case refVal:
		return r.typ
	case refSlot:
		if b := fr.slots[r.slot]; b != nil {
			return b.typ
		}
		if r.outer != nil {
			return r.outer.typeAt(in, fr)
		}
	case refField:
		return r.typ
	case refGlobal:
		if b, ok := in.globals[r.name]; ok {
			return b.typ
		}
	}
	return nil
}

// ambiguous reports whether r's type depends on which of its
// alternatives is bound at run time.
func (r *nameRef) ambiguous() bool {
	for o := r.outer; o != nil; o = o.outer {
		if !sameType(r.typ, o.typ) {
			return true
		}
	}
	return false
}

func sameType(a, b ctypes.Type) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Equal(b)
}

// ctScope is one compile-time lexical scope; names is made by its
// first declaration. conds lists the slots of conditional declarations
// made in it: every execution of the scope starts with none of its
// names defined, so those slots are emptied when the scope is entered.
type ctScope struct {
	names map[string]*nameRef
	conds []int
}

type compiler struct {
	typeEnv
	fn *cast.FuncDecl
	// recv is the receiver struct of a method body, nil otherwise.
	recv *ctypes.Struct
	// frameName is the running frame's name: the function name, or
	// Tag::name for a method (it keys profiles and statics).
	frameName string
	scopes    []ctScope
	nslots    int
	nvals     int
	nconds    int
	// boxed names the locals that keep Object storage even when scalar
	// (see addressTaken).
	boxed map[string]bool
	sites siteCounts
	// globals maps name -> declared type with Reset's last-wins
	// semantics (the runtime map is overwritten in declaration order).
	globals map[string]ctypes.Type
}

// typeEnv is the unit-level context of static typing.
type typeEnv struct {
	unit    *cast.Unit
	methods map[string]map[string]*cast.FuncDecl
}

// methodTable is the per-tag method map Reset installs for a struct.
func methodTable(sd *cast.StructDecl) map[string]*cast.FuncDecl {
	m := map[string]*cast.FuncDecl{}
	for _, fn := range sd.Methods {
		m[fn.Name] = fn
	}
	return m
}

func newCompiler(u *cast.Unit, fn *cast.FuncDecl, recv *ctypes.Struct) *compiler {
	c := &compiler{
		typeEnv: typeEnv{unit: u, methods: map[string]map[string]*cast.FuncDecl{}},
		fn:      fn,
		recv:    recv,
		globals: map[string]ctypes.Type{},
	}
	c.frameName = fn.Name
	if recv != nil {
		c.frameName = recv.Tag + "::" + fn.Name
	}
	for _, d := range u.Decls {
		switch x := d.(type) {
		case *cast.VarDecl:
			c.globals[x.Name] = x.Type
		case *cast.StructDecl:
			c.methods[x.Type.Tag] = methodTable(x)
		}
	}
	return c
}

func (c *compiler) pushScope() {
	c.scopes = append(c.scopes, ctScope{})
}

// scope is the innermost scope, ready for a declaration.
func (c *compiler) scope() *ctScope {
	s := &c.scopes[len(c.scopes)-1]
	if s.names == nil {
		s.names = map[string]*nameRef{}
	}
	return s
}

// popScope closes the innermost scope and returns its conditional slots.
func (c *compiler) popScope() []int {
	s := c.scopes[len(c.scopes)-1]
	c.scopes = c.scopes[:len(c.scopes)-1]
	return s.conds
}

// declare allocates a fresh slot for a name in the current scope (a
// redeclaration in the same scope shadows the earlier one). cond marks
// a declaration in a conditional non-block position.
func (c *compiler) declare(name string, t ctypes.Type, isArray, cond bool) int {
	s := c.nslots
	c.nslots++
	r := &nameRef{kind: refSlot, name: name, typ: t, slot: s, isArray: isArray}
	scope := c.scope()
	if cond {
		r.outer = c.resolve(name)
		scope.conds = append(scope.conds, s)
		c.nconds++
	}
	scope.names[name] = r
	return s
}

// declareVal allocates a value slot for a scalar local whose storage
// type is rt, in the current scope.
func (c *compiler) declareVal(name string, t, rt ctypes.Type) *nameRef {
	r := &nameRef{kind: refVal, name: name, typ: t, slot: c.nvals, rt: rt}
	c.nvals++
	c.scope().names[name] = r
	return r
}

// inVals reports whether a local named name of declared type t and
// storage type rt lives in a frame value slot: an int, float or pointer
// that is not a reference and that addressTaken does not box.
func (c *compiler) inVals(name string, t, rt ctypes.Type) bool {
	if _, isRef := t.(ctypes.Ref); isRef || c.boxed[name] {
		return false
	}
	switch rt.(type) {
	case ctypes.Int, ctypes.FPGAInt, ctypes.Bool, ctypes.Float, ctypes.FPGAFloat, ctypes.Pointer:
		return true
	}
	return false
}

// valRef is e's resolution when e names a frame value slot, else nil.
func (c *compiler) valRef(e cast.Expr) *nameRef {
	if id, ok := e.(*cast.Ident); ok {
		if r := c.resolve(id.Name); r.kind == refVal {
			return r
		}
	}
	return nil
}

// profileKey is the Profiles key of a local of the function compiled.
func (c *compiler) profileKey(name string) string { return c.frameName + "." + name }

// resolve resolves a name at the current compile position.
func (c *compiler) resolve(name string) *nameRef {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if r, ok := c.scopes[i].names[name]; ok {
			return r
		}
	}
	if c.recv != nil {
		if i := c.recv.FieldIndex(name); i >= 0 {
			return &nameRef{kind: refField, name: name, typ: c.recv.Fields[i].Type, field: i}
		}
	}
	if t, ok := c.globals[name]; ok {
		return &nameRef{kind: refGlobal, name: name, typ: t}
	}
	return &nameRef{kind: refUndef, name: name}
}

// ambiguous reports whether e's type depends on which declaration of a
// conditionally declared name is bound at run time.
func (c *compiler) ambiguous(e cast.Expr) bool {
	if c.nconds == 0 {
		return false
	}
	found := false
	cast.Inspect(e, func(n cast.Node) bool {
		if id, ok := n.(*cast.Ident); ok && c.resolve(id.Name).ambiguous() {
			found = true
		}
		return !found
	})
	return found
}

// unsized reports whether t is an array type with a dimension of
// unknown length.
func unsized(t ctypes.Type) bool {
	a, ok := ctypes.Resolve(t).(ctypes.Array)
	return ok && (a.Len < 0 || unsized(a.Elem))
}

// compileFunc compiles fn against unit u, as a method of recv when recv
// is non-nil. A compiler defect (any panic) is recovered into err, which
// the interpreter raises when the function is called.
func compileFunc(u *cast.Unit, fn *cast.FuncDecl, recv *ctypes.Struct) (cf *compiledFunc) {
	cf = &compiledFunc{fn: fn}
	defer func() {
		if r := recover(); r != nil {
			*cf = compiledFunc{fn: fn, err: &RuntimeError{
				Msg: fmt.Sprintf("internal compiler error in %q: %v", fn.Name, r), Pos: fn.P}}
		}
	}()
	if fn.Body == nil {
		cf.err = &RuntimeError{Msg: fmt.Sprintf("call to undefined function %q", fn.Name), Pos: fn.P}
		return
	}
	c := newCompiler(u, fn, recv)
	c.boxed = addressTaken(u, fn)
	cf.frameName = c.frameName
	c.pushScope() // the frame's parameter scope
	cf.params = make([]param, len(fn.Params))
	for i, prm := range fn.Params {
		rt := ctypes.Resolve(prm.Type)
		if arr, isArr := rt.(ctypes.Array); isArr {
			rt = ctypes.Pointer{Elem: arr.Elem}
		}
		p := param{rt: rt, typ: prm.Type, name: prm.Name, key: fn.Name + "." + prm.Name}
		if c.inVals(prm.Name, prm.Type, rt) {
			p.val, p.slot = true, c.declareVal(prm.Name, prm.Type, rt).slot
		} else {
			// A boxed parameter binds as a scalar lvalue (an array has
			// decayed to a pointer), so isArray is false.
			p.slot = c.declare(prm.Name, prm.Type, false, false)
		}
		cf.params[i] = p
	}
	c.pushScope() // the body block's scope
	for _, s := range fn.Body.Stmts {
		cf.stmts = append(cf.stmts, c.stmt(s))
		cf.isCall = append(cf.isCall, isCallStmt(s))
	}
	c.popScope()
	c.popScope()
	cf.nslots, cf.nvals = c.nslots, c.nvals
	cf.sites = c.sites
	cf.parts = gatherPartitions(fn)
	cf.dataflow = hasDataflow(fn)
	return
}

// addressTaken names the locals of fn whose storage must stay an Object
// even when they are scalars, because something needs their storage
// beyond their own reads and writes:
//
//   - their address is taken (&x);
//   - they are bound to a reference: a T& parameter of a callee or a
//     local reference, or a reference member of a struct initializer;
//   - they are the lvalue base of a field access, the receiver of a
//     method call, or an assignment or ++/-- target through a cast;
//   - they are static;
//   - they have a declaration in a conditional position (if branch,
//     loop body, switch arm), whose name is bound only once it runs.
//
// Names match across scopes: one such use boxes every local of that
// name in the function.
func addressTaken(u *cast.Unit, fn *cast.FuncDecl) map[string]bool {
	boxed := map[string]bool{}
	var lvalueOf func(e cast.Expr)
	lvalueOf = func(e cast.Expr) {
		switch x := e.(type) {
		case *cast.Ident:
			boxed[x.Name] = true
		case *cast.Cast:
			lvalueOf(x.X)
		case *cast.Member:
			if !x.Arrow {
				lvalueOf(x.X)
			}
		}
	}
	refArgs := refParams(u)
	refFields := func(st *ctypes.Struct, il *cast.InitList) {
		for i, el := range il.Elems {
			if i < len(st.Fields) {
				if _, isRef := st.Fields[i].Type.(ctypes.Ref); isRef {
					lvalueOf(el)
				}
			}
		}
	}
	cond := func(s cast.Stmt) {
		if d, ok := s.(*cast.DeclStmt); ok {
			boxed[d.Name] = true
		}
	}
	var visit func(n cast.Node) bool
	visit = func(n cast.Node) bool {
		switch x := n.(type) {
		case *cast.Unary:
			switch x.Op {
			case ctoken.AND:
				lvalueOf(x.X)
			case ctoken.INC, ctoken.DEC:
				if _, ok := x.X.(*cast.Ident); !ok {
					lvalueOf(x.X)
				}
			}
		case *cast.Postfix:
			if _, ok := x.X.(*cast.Ident); !ok {
				lvalueOf(x.X)
			}
		case *cast.Assign:
			if _, ok := x.L.(*cast.Ident); !ok {
				lvalueOf(x.L)
			}
		case *cast.Member:
			lvalueOf(x)
		case *cast.Call:
			name := ""
			switch f := x.Fun.(type) {
			case *cast.Ident:
				name = f.Name
			case *cast.Member:
				// A method call builds its receiver as an lvalue,
				// through -> as well.
				name = f.Field
				lvalueOf(f.X)
			}
			for i, a := range x.Args {
				if refArgs[name][i] {
					lvalueOf(a)
				}
			}
		case *cast.InitList:
			if st, ok := x.Type.(*ctypes.Struct); ok {
				refFields(st, x)
			}
		case *cast.DeclStmt:
			rt := ctypes.Resolve(x.Type)
			if x.Static {
				boxed[x.Name] = true
			}
			if _, isRef := x.Type.(ctypes.Ref); isRef && x.Init != nil {
				lvalueOf(x.Init)
			}
			if il, ok := x.Init.(*cast.InitList); ok {
				if st, ok := rt.(*ctypes.Struct); ok {
					refFields(st, il)
				}
			}
			for _, d := range x.VLADims {
				cast.Inspect(d, visit)
			}
		case *cast.If:
			cond(x.Then)
			if x.Else != nil {
				cond(x.Else)
			}
		case *cast.For:
			cond(x.Body)
		case *cast.While:
			cond(x.Body)
		case *cast.Switch:
			for _, cs := range x.Cases {
				for _, st := range cs.Body {
					cond(st)
				}
			}
		}
		return true
	}
	cast.Inspect(fn.Body, visit)
	return boxed
}

// refParams maps every function and method name in u to the argument
// positions at which some declaration of that name takes a reference.
func refParams(u *cast.Unit) map[string]map[int]bool {
	out := map[string]map[int]bool{}
	note := func(fn *cast.FuncDecl) {
		for i, p := range fn.Params {
			if _, isRef := p.Type.(ctypes.Ref); isRef {
				if out[fn.Name] == nil {
					out[fn.Name] = map[int]bool{}
				}
				out[fn.Name][i] = true
			}
		}
	}
	for _, d := range u.Decls {
		switch x := d.(type) {
		case *cast.FuncDecl:
			note(x)
		case *cast.StructDecl:
			for _, m := range x.Methods {
				note(m)
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Statements

// stmt compiles one statement. Every statement costs one step
// (in.step(s.Pos())) before its work.
func (c *compiler) stmt(s cast.Stmt) execOp {
	pos := s.Pos()
	switch x := s.(type) {
	case *cast.ExprStmt:
		e := c.expr(x.X)
		if iv := e.iv; iv != nil {
			return func(in *Interp, fr *frame) control {
				in.step(pos)
				iv(in, fr)
				return ctlNone
			}
		}
		ev := e.value()
		return func(in *Interp, fr *frame) control {
			in.step(pos)
			ev(in, fr)
			return ctlNone
		}
	case *cast.DeclStmt:
		return c.declStmt(x, false)
	case *cast.Block:
		c.pushScope()
		ops := make([]execOp, 0, len(x.Stmts))
		for _, sub := range x.Stmts {
			ops = append(ops, c.stmt(sub))
		}
		conds := c.popScope()
		return func(in *Interp, fr *frame) control {
			in.step(pos)
			for _, s := range conds {
				fr.slots[s] = nil
			}
			for _, op := range ops {
				if ctl := op(in, fr); ctl != ctlNone || fr.returned {
					return ctl
				}
			}
			return ctlNone
		}
	case *cast.If:
		return c.ifStmt(x)
	case *cast.For:
		return c.forStmt(x)
	case *cast.While:
		return c.whileStmt(x)
	case *cast.Return:
		var ev evalOp
		if x.X != nil {
			ev = c.eval(x.X)
		}
		return func(in *Interp, fr *frame) control {
			in.step(pos)
			if ev != nil {
				fr.retVal = ev(in, fr)
			}
			fr.returned = true
			in.addCost(costReturn)
			return ctlNone
		}
	case *cast.Break:
		return func(in *Interp, fr *frame) control {
			in.step(pos)
			return ctlBreak
		}
	case *cast.Continue:
		return func(in *Interp, fr *frame) control {
			in.step(pos)
			return ctlContinue
		}
	case *cast.Switch:
		return c.switchStmt(x)
	case *cast.Pragma:
		d := ParsePragma(x.Text)
		if d.Kind == PragmaArrayPartition && d.Variable != "" {
			name, banks := d.Variable, partitionBanks(d)
			return func(in *Interp, fr *frame) control {
				in.step(pos)
				in.setPartition(name, banks)
				return ctlNone
			}
		}
		return func(in *Interp, fr *frame) control {
			in.step(pos)
			return ctlNone
		}
	case *cast.Label:
		return func(in *Interp, fr *frame) control {
			in.step(pos)
			return ctlNone
		}
	case *cast.Goto:
		p := x.P
		return func(in *Interp, fr *frame) control {
			in.step(pos)
			in.fail(p, "goto is not supported by the interpreter")
			return ctlNone
		}
	}
	return func(in *Interp, fr *frame) control {
		in.step(pos)
		return ctlNone
	}
}

// condStmt compiles a statement in a conditionally-executed non-block
// position (if branch, loop body, switch arm). A declaration here
// defines its name in the enclosing runtime scope only on the paths that
// execute it.
func (c *compiler) condStmt(s cast.Stmt) execOp {
	if d, ok := s.(*cast.DeclStmt); ok {
		return c.declStmt(d, true)
	}
	return c.stmt(s)
}

func (c *compiler) ifStmt(x *cast.If) execOp {
	pos, bid := x.P, x.BranchID
	cond := c.cond(x.Cond)
	then := c.condStmt(x.Then)
	var els execOp
	if x.Else != nil {
		els = c.condStmt(x.Else)
	}
	return func(in *Interp, fr *frame) control {
		in.step(pos)
		in.addCost(costBranch)
		cv := cond(in, fr) != 0
		in.recordBranch(bid, cv)
		if cv {
			return then(in, fr)
		}
		if els != nil {
			return els(in, fr)
		}
		return ctlNone
	}
}

func (c *compiler) forStmt(f *cast.For) execOp {
	pos, fp, bid := f.Pos(), f.P, f.BranchID
	c.pushScope()
	var initOp execOp
	if f.Init != nil {
		initOp = c.stmt(f.Init)
	}
	var condOp intOp
	if f.Cond != nil {
		condOp = c.cond(f.Cond)
	}
	var postOp intOp
	if f.Post != nil {
		postOp = c.expr(f.Post).discard()
	}
	body := c.condStmt(f.Body)
	conds := c.popScope()
	ls := newLoopScale(f.Pragmas, f.Body)
	return func(in *Interp, fr *frame) control {
		in.step(pos)
		for _, s := range conds {
			fr.slots[s] = nil
		}
		if initOp != nil {
			initOp(in, fr)
		}
		startCost := in.cost
		iterations := int64(0)
		for {
			in.step(fp)
			cond := true
			if condOp != nil {
				in.addCost(costBranch)
				cond = condOp(in, fr) != 0
			}
			in.recordBranch(bid, cond)
			if !cond {
				break
			}
			iterations++
			ctl := body(in, fr)
			if fr.returned || ctl == ctlBreak {
				in.scaleLoopCost(ls, startCost, iterations, 1)
				return ctlNone
			}
			if postOp != nil {
				postOp(in, fr)
			}
		}
		in.scaleLoopCost(ls, startCost, iterations, 1)
		return ctlNone
	}
}

func (c *compiler) whileStmt(w *cast.While) execOp {
	pos, wp, bid, doWhile := w.Pos(), w.P, w.BranchID, w.DoWhile
	cond := c.cond(w.Cond)
	// A while loop opens no scope: the body runs in the enclosing one.
	body := c.condStmt(w.Body)
	ls := newLoopScale(w.Pragmas, w.Body)
	return func(in *Interp, fr *frame) control {
		in.step(pos)
		startCost := in.cost
		first := true
		iterations := int64(0)
		for {
			in.step(wp)
			if !doWhile || !first {
				in.addCost(costBranch)
				cv := cond(in, fr) != 0
				in.recordBranch(bid, cv)
				if !cv {
					break
				}
			}
			iterations++
			ctl := body(in, fr)
			if fr.returned || ctl == ctlBreak {
				break
			}
			if doWhile && first {
				in.addCost(costBranch)
				cv := cond(in, fr) != 0
				in.recordBranch(bid, cv)
				if !cv {
					break
				}
			}
			first = false
		}
		in.scaleLoopCost(ls, startCost, iterations, whileMinII)
		return ctlNone
	}
}

func (c *compiler) switchStmt(sw *cast.Switch) execOp {
	pos, bid := sw.P, sw.BranchID
	xOp := c.condSite(c.expr(sw.X)).integer()
	caseVals := make([]intOp, len(sw.Cases))
	defaultIdx := -1
	bodies := make([][]execOp, len(sw.Cases))
	for i, cs := range sw.Cases {
		if cs.IsDefault {
			if defaultIdx < 0 {
				defaultIdx = i
			}
		} else {
			caseVals[i] = c.expr(cs.Value).integer()
		}
		// Case bodies run in the switch's enclosing scope with
		// fall-through: every declaration in them is conditional.
		for _, s := range cs.Body {
			bodies[i] = append(bodies[i], c.condStmt(s))
		}
	}
	return func(in *Interp, fr *frame) control {
		in.step(pos)
		v := xOp(in, fr)
		in.addCost(costBranch)
		matched := -1
		for i, cop := range caseVals {
			if cop == nil {
				continue
			}
			if cop(in, fr) == v {
				matched = i
				break
			}
		}
		if matched < 0 {
			matched = defaultIdx
		}
		if matched < 0 {
			return ctlNone
		}
		in.recordBranch(bid+matched, true)
		for i := matched; i < len(bodies); i++ {
			for _, op := range bodies[i] {
				ctl := op(in, fr)
				if fr.returned {
					return ctlNone
				}
				if ctl == ctlBreak {
					return ctlNone
				}
				if ctl == ctlContinue {
					return ctlContinue
				}
			}
		}
		return ctlNone
	}
}

// ---------------------------------------------------------------------------
// Declarations

// declStmt compiles a local declaration. Initializers and VLA
// dimensions compile before the name is declared: they evaluate before
// the name is defined. cond marks a declaration in a conditional
// non-block position.
func (c *compiler) declStmt(d *cast.DeclStmt, cond bool) execOp {
	pos := d.Pos()
	name, t := d.Name, d.Type
	rt := ctypes.Resolve(t)
	arr, isArray := rt.(ctypes.Array)
	switch {
	case d.Static:
		return c.staticDecl(d, cond)
	case len(d.VLADims) > 0:
		return c.vlaDecl(d, cond)
	case isArray:
		return c.arrayDecl(pos, name, t, arr, d.Init, cond)
	}
	// Scalar (or struct/stream) declaration.
	key := c.profileKey(name)
	if s, ok := intStorage(rt); ok && c.inVals(name, t, rt) {
		return c.intDecl(d, s, key)
	}
	initOp := c.initOp(d.Init, rt)
	if c.inVals(name, t, rt) {
		slot := c.declareVal(name, t, rt).slot
		zero := ZeroValue(rt)
		return func(in *Interp, fr *frame) control {
			in.step(pos)
			v := zero
			if initOp != nil {
				v = in.coerce(initOp(in, fr), rt).DeepCopy()
			}
			fr.vals[slot] = v
			in.profileVal(key, &v)
			in.addCost(costStore)
			return ctlNone
		}
	}
	slot := c.declare(name, t, false, cond)
	return func(in *Interp, fr *frame) control {
		in.step(pos)
		v := ZeroValue(rt)
		if initOp != nil {
			v = in.coerce(initOp(in, fr), rt).DeepCopy()
		}
		b := newScalar(name, rt, t, v)
		fr.slots[slot] = b
		if in.opts.Profile && v.Kind == VInt {
			in.noteProfile(key, v.Int)
		}
		in.addCost(costStore)
		return ctlNone
	}
}

// intDecl compiles the declaration of a frame-slot scalar of integer
// storage s: a zero or the narrowed initializer, of the storage's
// carrier.
func (c *compiler) intDecl(d *cast.DeclStmt, s intStore, key string) execOp {
	pos, t := d.Pos(), s.intType
	var initOp intOp
	if d.Init != nil {
		initOp = c.expr(d.Init).stored(s)
	}
	slot := c.declareVal(d.Name, d.Type, ctypes.Resolve(d.Type)).slot
	return func(in *Interp, fr *frame) control {
		in.step(pos)
		var v int64
		if initOp != nil {
			v = in.narrow(s, initOp(in, fr))
		}
		fr.vals[slot] = t.value(v)
		if in.opts.Profile {
			in.noteProfile(key, v)
		}
		in.addCost(costStore)
		return ctlNone
	}
}

// arrayDecl compiles an array declaration of static size: storage
// allocation plus the flattened initializer-list fill.
func (c *compiler) arrayDecl(pos ctoken.Pos, name string, t ctypes.Type, arr ctypes.Array, init cast.Expr, cond bool) execOp {
	leafOps := c.initLeaves(init)
	slot := c.declare(name, t, true, cond)
	if arr.Len < 0 {
		// An unknown length faults at allocation, with no position.
		return func(in *Interp, fr *frame) control {
			in.step(pos)
			in.fail(ctoken.Pos{}, "array %q has unknown size at allocation", name)
			return ctlNone
		}
	}
	total, elem := flattenArray(arr)
	return func(in *Interp, fr *frame) control {
		in.step(pos)
		fr.slots[slot] = &binding{typ: t, obj: in.newArray(name, elem, total, leafOps, fr)}
		in.addCost(costStore)
		return ctlNone
	}
}

// staticDecl compiles a static local: one storage per frame name and
// variable name, allocated and initialized by the first execution and
// rebound by every later one (Reset clears it with the globals).
func (c *compiler) staticDecl(d *cast.DeclStmt, cond bool) execOp {
	pos, name, t := d.Pos(), d.Name, d.Type
	leafOps, initOp := c.initOps(t, d.Init)
	_, isArray := ctypes.Resolve(t).(ctypes.Array)
	key := c.frameName + ".static." + name
	slot := c.declare(name, t, isArray, cond)
	return func(in *Interp, fr *frame) control {
		in.step(pos)
		b, ok := in.globals[key]
		if !ok {
			b = in.allocate(name, t, leafOps, initOp, fr)
			in.globals[key] = b
		}
		fr.slots[slot] = b
		return ctlNone
	}
}

// vlaDecl compiles a variable-length array declaration. CPU mode
// evaluates the runtime dimensions and binds the storage with the
// concretized type, which later strides and sizeofs read back; FPGA
// mode skips concretization, so an unknown outer length faults at
// allocation.
func (c *compiler) vlaDecl(d *cast.DeclStmt, cond bool) execOp {
	pos, p, name, t := d.Pos(), d.P, d.Name, d.Type
	dimOps := make([]evalOp, len(d.VLADims))
	for i, e := range d.VLADims {
		dimOps[i] = c.eval(e)
	}
	leafOps, initOp := c.initOps(t, d.Init)
	_, isArray := ctypes.Resolve(t).(ctypes.Array)
	slot := c.declare(name, t, isArray, cond)
	key := c.profileKey(name)
	return func(in *Interp, fr *frame) control {
		in.step(pos)
		typ := t
		if in.opts.Mode == CPU {
			typ = in.concretize(t, dimOps, p, name, fr)
		}
		b := in.allocate(name, typ, leafOps, initOp, fr)
		fr.slots[slot] = b
		if in.opts.Profile && b.isLV {
			if v := b.lv.load(); v.Kind == VInt {
				in.noteProfile(key, v.Int)
			}
		}
		in.addCost(costStore)
		return ctlNone
	}
}

// concretize fills a VLA type's unknown dimensions, outer first, with
// the values of its dimension expressions.
func (in *Interp) concretize(t ctypes.Type, dimOps []evalOp, p ctoken.Pos, name string, fr *frame) ctypes.Type {
	dims := make([]int, len(dimOps))
	for i, op := range dimOps {
		n := op(in, fr).AsInt()
		if n < 0 || n > 1<<22 {
			in.fail(p, "invalid VLA dimension %d for %q", n, name)
		}
		dims[i] = int(n)
	}
	var fill func(t ctypes.Type) ctypes.Type
	fill = func(t ctypes.Type) ctypes.Type {
		a, ok := t.(ctypes.Array)
		if !ok {
			return t
		}
		if a.Len < 0 && len(dims) > 0 {
			a.Len, dims = dims[0], dims[1:]
		}
		return ctypes.Array{Elem: fill(a.Elem), Len: a.Len}
	}
	return fill(t)
}

// allocate creates the storage of a declaration of type t and runs its
// compiled initializer: an array zero-fills and takes the
// initializer-list leaves (an unknown length faults), anything else
// stores the initializer's value.
func (in *Interp) allocate(name string, t ctypes.Type, leafOps []evalOp, initOp evalOp, fr *frame) *binding {
	rt := ctypes.Resolve(t)
	if arr, ok := rt.(ctypes.Array); ok {
		if arr.Len < 0 {
			in.fail(ctoken.Pos{}, "array %q has unknown size at allocation", name)
		}
		total, elem := flattenArray(arr)
		return &binding{typ: t, obj: in.newArray(name, elem, total, leafOps, fr)}
	}
	v := ZeroValue(rt)
	if initOp != nil {
		v = in.coerce(initOp(in, fr), rt).DeepCopy()
	}
	return newScalar(name, rt, t, v)
}

// initOps compiles a declaration's initializer for allocate.
func (c *compiler) initOps(t ctypes.Type, init cast.Expr) ([]evalOp, evalOp) {
	rt := ctypes.Resolve(t)
	if _, ok := rt.(ctypes.Array); ok {
		return c.initLeaves(init), nil
	}
	return nil, c.initOp(init, rt)
}

// initLeaves compiles the flattened leaves of an array initializer
// list. A non-InitList initializer on an array declaration is never
// evaluated, so nothing is compiled for it.
func (c *compiler) initLeaves(init cast.Expr) []evalOp {
	il, ok := init.(*cast.InitList)
	if !ok {
		return nil
	}
	var leafOps []evalOp
	var collect func(e cast.Expr)
	collect = func(e cast.Expr) {
		if sub, ok := e.(*cast.InitList); ok {
			for _, el := range sub.Elems {
				collect(el)
			}
			return
		}
		leafOps = append(leafOps, c.eval(e))
	}
	for _, el := range il.Elems {
		collect(el)
	}
	return leafOps
}

// newArray allocates zero-filled storage of total elements, then runs
// the initializer leaves in order (leaves beyond the array's capacity
// are never evaluated).
func (in *Interp) newArray(name string, elem ctypes.Type, total int, leafOps []evalOp, fr *frame) *Object {
	obj := &Object{Name: name, Elem: elem, Elems: make([]Value, total)}
	zero := ZeroValue(elem)
	for i := range obj.Elems {
		obj.Elems[i] = zero.DeepCopy()
	}
	for i, leaf := range leafOps {
		if i >= total {
			break
		}
		obj.Elems[i] = in.coerce(leaf(in, fr), elem).DeepCopy()
	}
	return obj
}

// initOp compiles a scalar declaration's initializer: a struct
// initializer list constructs the struct value; anything else is a
// plain evaluation.
func (c *compiler) initOp(init cast.Expr, rt ctypes.Type) evalOp {
	if init == nil {
		return nil
	}
	if il, ok := init.(*cast.InitList); ok {
		if st, ok := ctypes.Resolve(rt).(*ctypes.Struct); ok {
			return c.structInit(st, il)
		}
	}
	return c.eval(init)
}

// structInit compiles a struct initializer list: when the struct has a
// constructor taking as many parameters as the list has elements, the
// elements are its arguments and it runs on a temporary; otherwise they
// initialize the fields in order (elements beyond the field count are
// never evaluated). The constructor is looked up at run time, in the
// method tables Reset has installed so far.
func (c *compiler) structInit(st *ctypes.Struct, il *cast.InitList) evalOp {
	elemOps := make([]evalOp, len(il.Elems))
	for i, e := range il.Elems {
		elemOps[i] = c.eval(e)
	}
	n := len(il.Elems)
	if n > len(st.Fields) {
		n = len(st.Fields)
	}
	p, tmp := il.P, "tmp."+st.Tag
	return func(in *Interp, fr *frame) Value {
		v := ZeroValue(st)
		if ctor, ok := in.methods[st.Tag][st.Tag]; ok && len(ctor.Params) == len(elemOps) {
			recv := newTemp(tmp, st, v)
			args, base := in.evalArgs(elemOps, ctor.Params, fr)
			in.callMethod(ctor, recv, st, args, p)
			in.args = in.args[:base]
			return recv.obj.Elems[0]
		}
		for i := 0; i < n; i++ {
			v.Fields[i] = in.coerce(elemOps[i](in, fr), st.Fields[i].Type).DeepCopy()
		}
		return v
	}
}

// ---------------------------------------------------------------------------
// Static expression typing

// ctTypeOf is the static type of e, with every name typed by its
// compile-time resolution (nil when unknown). It is exact unless e reads
// a conditionally declared name whose alternatives differ in type
// (ambiguous), and up to array lengths, which a variable-length array's
// binding carries only at run time (unsized).
func (c *compiler) ctTypeOf(e cast.Expr) ctypes.Type {
	return c.typeOf(e, func(id *cast.Ident) ctypes.Type { return c.resolve(id.Name).typ })
}

// typer compiles e's type as a run-time read: the names in e are
// resolved now, and typed by whatever they are bound to when the op
// runs.
func (c *compiler) typer(e cast.Expr) func(in *Interp, fr *frame) ctypes.Type {
	refs := map[*cast.Ident]*nameRef{}
	cast.Inspect(e, func(n cast.Node) bool {
		if id, ok := n.(*cast.Ident); ok {
			refs[id] = c.resolve(id.Name)
		}
		return true
	})
	env := c.typeEnv
	return func(in *Interp, fr *frame) ctypes.Type {
		return env.typeOf(e, func(id *cast.Ident) ctypes.Type { return refs[id].typeAt(in, fr) })
	}
}

// typeOf is the best-effort static type of e (nil when unknown), typing
// names with ident. It drives sizeof, strides, array decay and stream
// dispatch.
func (env typeEnv) typeOf(e cast.Expr, ident func(*cast.Ident) ctypes.Type) ctypes.Type {
	switch x := e.(type) {
	case *cast.IntLit:
		return ctypes.IntT
	case *cast.FloatLit:
		return ctypes.DoubleT
	case *cast.CharLit:
		return ctypes.Char
	case *cast.BoolLit:
		return ctypes.Bool{}
	case *cast.Ident:
		return ident(x)
	case *cast.Index:
		bt := env.typeOf(x.X, ident)
		switch u := ctypes.Resolve(bt).(type) {
		case ctypes.Array:
			return u.Elem
		case ctypes.Pointer:
			return u.Elem
		}
		return nil
	case *cast.Member:
		bt := env.typeOf(x.X, ident)
		rt := ctypes.Resolve(bt)
		if p, ok := rt.(ctypes.Pointer); ok && x.Arrow {
			rt = ctypes.Resolve(p.Elem)
		}
		if st, ok := rt.(*ctypes.Struct); ok {
			if i := st.FieldIndex(x.Field); i >= 0 {
				return st.Fields[i].Type
			}
		}
		return nil
	case *cast.Unary:
		switch x.Op {
		case ctoken.MUL:
			if p, ok := ctypes.Resolve(env.typeOf(x.X, ident)).(ctypes.Pointer); ok {
				return p.Elem
			}
			return nil
		case ctoken.AND:
			bt := env.typeOf(x.X, ident)
			if bt == nil {
				return nil
			}
			return ctypes.Pointer{Elem: bt}
		case ctoken.NOT:
			return ctypes.IntT
		}
		return env.typeOf(x.X, ident)
	case *cast.Postfix:
		return env.typeOf(x.X, ident)
	case *cast.Binary:
		lt := env.typeOf(x.L, ident)
		rt := env.typeOf(x.R, ident)
		if lt == nil {
			return rt
		}
		if rt == nil {
			return lt
		}
		if ctypes.IsFloat(lt) {
			return lt
		}
		if ctypes.IsFloat(rt) {
			return rt
		}
		return lt
	case *cast.Assign:
		return env.typeOf(x.L, ident)
	case *cast.Cond:
		return env.typeOf(x.T, ident)
	case *cast.Cast:
		return x.To
	case *cast.Call:
		if id, ok := x.Fun.(*cast.Ident); ok {
			if fn := env.unit.Func(id.Name); fn != nil {
				return fn.Ret
			}
			switch id.Name {
			case "malloc":
				return ctypes.Pointer{Elem: ctypes.Char}
			case "sqrt", "fabs", "pow", "sin", "cos", "exp", "log",
				"floor", "ceil", "fmin", "fmax":
				return ctypes.DoubleT
			case "abs":
				return ctypes.IntT
			}
		}
		if m, ok := x.Fun.(*cast.Member); ok {
			bt := env.typeOf(m.X, ident)
			if st, ok := ctypes.Resolve(bt).(ctypes.Stream); ok {
				switch m.Field {
				case "read":
					return st.Elem
				case "empty", "full":
					return ctypes.Bool{}
				case "size":
					return ctypes.IntT
				}
				return ctypes.Void{}
			}
			if st, ok := ctypes.Resolve(bt).(*ctypes.Struct); ok {
				if ms, ok := env.methods[st.Tag]; ok {
					if fn, ok := ms[m.Field]; ok {
						return fn.Ret
					}
				}
			}
		}
		return nil
	case *cast.SizeofExpr, *cast.SizeofType:
		return ctypes.UIntT
	case *cast.InitList:
		return x.Type
	}
	return nil
}
