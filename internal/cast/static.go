package cast

import (
	"strconv"
	"strings"

	"github.com/hetero/heterogen/internal/ctoken"
	"github.com/hetero/heterogen/internal/ctypes"
)

// This file holds the facts about a program that follow from its text
// alone: HLS pragma directives, the static type of an expression, the
// trip count of a counted loop and the arrays in scope of a function.
// The interpreter, the HLS checkers, the simulator and the repair
// templates all read them from here.

// ---------------------------------------------------------------------------
// Pragma directives

// PragmaKind classifies an HLS pragma directive.
type PragmaKind int

// HLS pragma kinds.
const (
	PragmaUnknown PragmaKind = iota
	PragmaUnroll
	PragmaPipeline
	PragmaDataflow
	PragmaArrayPartition
	PragmaInterface
	PragmaInline
	PragmaTop
	PragmaStream
)

// PragmaDirective is a parsed "#pragma HLS ..." line.
type PragmaDirective struct {
	Kind     PragmaKind
	Raw      string
	Factor   int    // unroll/partition factor, II for pipeline
	Variable string // variable= operand
	IsHLS    bool
	Name     string // interface/top name operands
	// PartitionType is the array_partition type= operand: "cyclic"
	// (default), "block", or "complete" (full registerization — every
	// element gets its own ports).
	PartitionType string
}

// ParsePragma parses the text after "#pragma".
func ParsePragma(text string) PragmaDirective {
	d := PragmaDirective{Raw: text}
	fields := strings.Fields(text)
	if len(fields) == 0 {
		return d
	}
	if !strings.EqualFold(fields[0], "HLS") {
		return d
	}
	d.IsHLS = true
	if len(fields) < 2 {
		return d
	}
	switch strings.ToLower(fields[1]) {
	case "unroll":
		d.Kind = PragmaUnroll
	case "pipeline":
		d.Kind = PragmaPipeline
	case "dataflow":
		d.Kind = PragmaDataflow
	case "array_partition":
		d.Kind = PragmaArrayPartition
	case "interface":
		d.Kind = PragmaInterface
	case "inline":
		d.Kind = PragmaInline
	case "top":
		d.Kind = PragmaTop
	case "stream":
		d.Kind = PragmaStream
	}
	for _, f := range fields[2:] {
		if eq := strings.IndexByte(f, '='); eq > 0 {
			key := strings.ToLower(f[:eq])
			val := f[eq+1:]
			switch key {
			case "factor", "ii":
				if n, err := strconv.Atoi(val); err == nil {
					d.Factor = n
				}
			case "variable":
				d.Variable = val
			case "name":
				d.Name = val
			case "type":
				d.PartitionType = val
			}
		}
	}
	return d
}

// HasDataflow reports whether fn's head carries "#pragma HLS dataflow".
func (fn *FuncDecl) HasDataflow() bool {
	for _, p := range fn.Pragmas {
		if ParsePragma(p.Text).Kind == PragmaDataflow {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Static expression types

// TypeOf is the best-effort static type of e (nil when unknown), typing
// identifiers with ident. Comparisons and logical operators are int,
// pointer arithmetic keeps the pointer, and otherwise a floating operand
// wins over an integer one.
func (u *Unit) TypeOf(e Expr, ident func(*Ident) ctypes.Type) ctypes.Type {
	switch x := e.(type) {
	case *IntLit:
		return ctypes.IntT
	case *FloatLit:
		return ctypes.DoubleT
	case *CharLit:
		return ctypes.Char
	case *BoolLit:
		return ctypes.Bool{}
	case *Ident:
		return ident(x)
	case *Index:
		switch t := ctypes.Resolve(u.TypeOf(x.X, ident)).(type) {
		case ctypes.Array:
			return t.Elem
		case ctypes.Pointer:
			return t.Elem
		}
		return nil
	case *Member:
		rt := ctypes.Resolve(u.TypeOf(x.X, ident))
		if p, ok := rt.(ctypes.Pointer); ok && x.Arrow {
			rt = ctypes.Resolve(p.Elem)
		}
		if st, ok := rt.(*ctypes.Struct); ok {
			if i := st.FieldIndex(x.Field); i >= 0 {
				return st.Fields[i].Type
			}
		}
		return nil
	case *Unary:
		switch x.Op {
		case ctoken.MUL:
			if p, ok := ctypes.Resolve(u.TypeOf(x.X, ident)).(ctypes.Pointer); ok {
				return p.Elem
			}
			return nil
		case ctoken.AND:
			bt := u.TypeOf(x.X, ident)
			if bt == nil {
				return nil
			}
			return ctypes.Pointer{Elem: bt}
		case ctoken.NOT:
			return ctypes.IntT
		}
		return u.TypeOf(x.X, ident)
	case *Postfix:
		return u.TypeOf(x.X, ident)
	case *Binary:
		lt := u.TypeOf(x.L, ident)
		rt := u.TypeOf(x.R, ident)
		switch x.Op {
		case ctoken.LSS, ctoken.GTR, ctoken.LEQ, ctoken.GEQ,
			ctoken.EQL, ctoken.NEQ, ctoken.LAND, ctoken.LOR:
			return ctypes.IntT
		}
		if lt == nil {
			return rt
		}
		if rt == nil {
			return lt
		}
		if _, ok := ctypes.Resolve(lt).(ctypes.Pointer); ok {
			return lt
		}
		if _, ok := ctypes.Resolve(rt).(ctypes.Pointer); ok {
			return rt
		}
		if ctypes.IsFloat(lt) {
			return lt
		}
		if ctypes.IsFloat(rt) {
			return rt
		}
		return lt
	case *Assign:
		return u.TypeOf(x.L, ident)
	case *Cond:
		if t := u.TypeOf(x.T, ident); t != nil {
			return t
		}
		return u.TypeOf(x.F, ident)
	case *Cast:
		return x.To
	case *Call:
		if id, ok := x.Fun.(*Ident); ok {
			if fn := u.Func(id.Name); fn != nil {
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
		if m, ok := x.Fun.(*Member); ok {
			switch bt := ctypes.Resolve(u.TypeOf(m.X, ident)).(type) {
			case ctypes.Stream:
				switch m.Field {
				case "read":
					return bt.Elem
				case "empty", "full":
					return ctypes.Bool{}
				case "size":
					return ctypes.IntT
				}
				return ctypes.Void{}
			case *ctypes.Struct:
				if sd := u.StructOf(bt.Tag); sd != nil {
					for _, fn := range sd.Methods {
						if fn.Name == m.Field {
							return fn.Ret
						}
					}
				}
			}
		}
		return nil
	case *SizeofExpr, *SizeofType:
		return ctypes.UIntT
	case *InitList:
		return x.Type
	}
	return nil
}

// ---------------------------------------------------------------------------
// Loops and arrays

// TripCount is the iteration count of the counted loop "for (i = a; i <
// N; ...)" or "i <= N" with literal bounds (a defaults to 0 when the
// loop does not initialize i), or -1 when it cannot be determined.
func (f *For) TripCount() int {
	cond, ok := f.Cond.(*Binary)
	if !ok {
		return -1
	}
	lit, ok := cond.R.(*IntLit)
	if !ok {
		return -1
	}
	start := int64(0)
	switch init := f.Init.(type) {
	case *DeclStmt:
		if il, ok := init.Init.(*IntLit); ok {
			start = il.Value
		} else if init.Init != nil {
			return -1
		}
	case *ExprStmt:
		if as, ok := init.X.(*Assign); ok {
			if il, ok := as.R.(*IntLit); ok {
				start = il.Value
			} else {
				return -1
			}
		}
	}
	switch cond.Op {
	case ctoken.LSS:
		return int(lit.Value - start)
	case ctoken.LEQ:
		return int(lit.Value - start + 1)
	}
	return -1
}

// ArraySizes maps the names of the fixed-size arrays visible in fn to
// their outer dimension: the unit's globals, then fn's parameters, then
// its locals, a later array of the same name replacing an earlier one.
func (u *Unit) ArraySizes(fn *FuncDecl) map[string]int {
	out := map[string]int{}
	record := func(name string, t ctypes.Type) {
		if arr, ok := ctypes.Resolve(t).(ctypes.Array); ok && arr.Len > 0 {
			out[name] = arr.Len
		}
	}
	for _, d := range u.Decls {
		if v, ok := d.(*VarDecl); ok {
			record(v.Name, v.Type)
		}
	}
	for _, p := range fn.Params {
		record(p.Name, p.Type)
	}
	Inspect(fn, func(n Node) bool {
		if d, ok := n.(*DeclStmt); ok {
			record(d.Name, d.Type)
		}
		return true
	})
	return out
}
