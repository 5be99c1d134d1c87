// Package cparser implements a recursive-descent parser for the C/HLS-C
// subset used throughout HeteroGen: functions, struct/union definitions
// (including HLS-C member functions and constructors), typedefs, global and
// local declarations, pointers and references, fixed- and unknown-size
// arrays, the full C expression grammar, control flow, and #pragma HLS
// directives, which attach to the loop or function they precede.
package cparser

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/hetero/heterogen/internal/cast"
	"github.com/hetero/heterogen/internal/ctoken"
	"github.com/hetero/heterogen/internal/ctypes"
)

// Parse parses a translation unit from source text.
func Parse(src string) (*cast.Unit, error) {
	toks, lexErrs := ctoken.Tokenize(src)
	p := &parser{
		toks:     toks,
		unit:     &cast.Unit{Typedefs: map[string]ctypes.Type{}, Structs: map[string]*ctypes.Struct{}},
		typedefs: map[string]ctypes.Type{},
	}
	for _, e := range lexErrs {
		p.errs = append(p.errs, e.Error())
	}
	p.parseUnit()
	if len(p.errs) > 0 {
		return p.unit, fmt.Errorf("parse: %s", strings.Join(p.errs, "; "))
	}
	cast.NumberBranches(p.unit)
	return p.unit, nil
}

// MustParse parses src and panics on error; for tests and embedded subjects.
func MustParse(src string) *cast.Unit {
	u, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return u
}

type parser struct {
	toks     []ctoken.Token
	pos      int
	unit     *cast.Unit
	typedefs map[string]ctypes.Type
	errs     []string
	// lastVLADims holds runtime dimension expressions captured by the
	// most recent parseDeclarator call.
	lastVLADims []cast.Expr
	// curStruct is the struct currently being parsed (methods may refer
	// to its own tag as a constructor name).
	curStruct *ctypes.Struct
}

func (p *parser) cur() ctoken.Token  { return p.toks[p.pos] }
func (p *parser) peek() ctoken.Token { return p.at(1) }

func (p *parser) at(n int) ctoken.Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1] // EOF
	}
	return p.toks[p.pos+n]
}

func (p *parser) next() ctoken.Token {
	t := p.cur()
	if t.Kind != ctoken.EOF {
		p.pos++
	}
	return t
}

func (p *parser) accept(k ctoken.Kind) bool {
	if p.cur().Kind == k {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k ctoken.Kind) ctoken.Token {
	if p.cur().Kind == k {
		return p.next()
	}
	p.errorf("expected %s, found %s", k, p.cur())
	return ctoken.Token{Kind: k, Pos: p.cur().Pos}
}

func (p *parser) errorf(format string, args ...any) {
	if len(p.errs) <= 40 { // avoid error floods on badly broken input
		p.errs = append(p.errs, fmt.Sprintf("%s: %s", p.cur().Pos, fmt.Sprintf(format, args...)))
	}
	// Recovery: always skip one token so loops make progress, even when
	// the message itself is suppressed.
	if p.cur().Kind != ctoken.EOF {
		p.pos++
	}
}

// ---------------------------------------------------------------------------
// Unit

func (p *parser) parseUnit() {
	var pendingPragmas []*cast.Pragma
	for p.cur().Kind != ctoken.EOF {
		if p.cur().Kind == ctoken.PRAGMA {
			t := p.next()
			pendingPragmas = append(pendingPragmas, &cast.Pragma{P: t.Pos, Text: t.Lit})
			continue
		}
		d := p.parseDecl()
		if d == nil {
			continue
		}
		if f, ok := d.(*cast.FuncDecl); ok && len(pendingPragmas) > 0 {
			f.Pragmas = append(pendingPragmas, f.Pragmas...)
			pendingPragmas = nil
		} else if len(pendingPragmas) > 0 {
			for _, pr := range pendingPragmas {
				p.unit.Decls = append(p.unit.Decls, &cast.PragmaDecl{P: pr.P, Text: pr.Text})
			}
			pendingPragmas = nil
		}
		p.unit.Decls = append(p.unit.Decls, d)
	}
	for _, pr := range pendingPragmas {
		p.unit.Decls = append(p.unit.Decls, &cast.PragmaDecl{P: pr.P, Text: pr.Text})
	}
}

// parseDecl parses one top-level declaration.
func (p *parser) parseDecl() cast.Decl {
	start := p.cur().Pos
	switch p.cur().Kind {
	case ctoken.KwTypedef:
		p.next()
		base := p.parseTypeSpec()
		if base == nil {
			p.errorf("expected type after 'typedef', found %s", p.cur())
			return nil
		}
		typ, name := p.parseDeclarator(base)
		if name == "" {
			p.errorf("typedef needs a name")
			return nil
		}
		p.expect(ctoken.SEMI)
		p.typedefs[name] = typ
		p.unit.Typedefs[name] = typ
		return &cast.TypedefDecl{P: start, Name: name, Type: typ}

	case ctoken.KwStruct, ctoken.KwUnion:
		// Distinguish "struct S { ... };" (definition) from
		// "struct S name;" (variable of struct type).
		if p.peek().Kind == ctoken.IDENT && p.at(2).Kind == ctoken.LBRACE {
			return p.parseStructDecl()
		}
	}

	// General declaration: specifiers, declarator, then either a function
	// body or a variable initializer.
	static, constQ := false, false
	for {
		switch p.cur().Kind {
		case ctoken.KwStatic:
			static = true
			p.next()
			continue
		case ctoken.KwConst:
			constQ = true
			p.next()
			continue
		case ctoken.KwExtern, ctoken.KwInline:
			p.next()
			continue
		}
		break
	}
	base := p.parseTypeSpec()
	if base == nil {
		p.errorf("expected declaration, found %s", p.cur())
		return nil
	}
	typ, name := p.parseDeclarator(base)
	if p.cur().Kind == ctoken.LPAREN {
		return p.parseFuncRest(start, typ, name, static)
	}
	v := &cast.VarDecl{P: start, Name: name, Type: typ, Static: static, Const: constQ}
	if p.accept(ctoken.ASSIGN) {
		v.Init = p.parseInitializer()
	}
	// Comma-separated additional declarators become separate decls; the
	// first is returned, the rest appended directly.
	for p.accept(ctoken.COMMA) {
		typ2, name2 := p.parseDeclarator(base)
		v2 := &cast.VarDecl{P: p.cur().Pos, Name: name2, Type: typ2, Static: static, Const: constQ}
		if p.accept(ctoken.ASSIGN) {
			v2.Init = p.parseInitializer()
		}
		p.unit.Decls = append(p.unit.Decls, v2)
	}
	p.expect(ctoken.SEMI)
	return v
}

// parseStructDecl parses "struct Tag { fields... methods... };".
func (p *parser) parseStructDecl() cast.Decl {
	start := p.cur().Pos
	isUnion := p.cur().Kind == ctoken.KwUnion
	p.next() // struct/union
	tag := p.expect(ctoken.IDENT).Lit
	st := &ctypes.Struct{Tag: tag, IsUnion: isUnion}
	p.unit.Structs[tag] = st
	decl := &cast.StructDecl{P: start, Type: st}
	prev := p.curStruct
	p.curStruct = st
	defer func() { p.curStruct = prev }()

	p.expect(ctoken.LBRACE)
	for p.cur().Kind != ctoken.RBRACE && p.cur().Kind != ctoken.EOF {
		// Constructor: Tag ( params ) [: init-list] { body }
		if p.cur().Kind == ctoken.IDENT && p.cur().Lit == tag && p.peek().Kind == ctoken.LPAREN {
			m := p.parseCtor(st)
			decl.Methods = append(decl.Methods, m)
			decl.HasCtor = true
			continue
		}
		base := p.parseTypeSpec()
		if base == nil {
			p.errorf("expected struct member, found %s", p.cur())
			continue
		}
		typ, name := p.parseDeclarator(base)
		if p.cur().Kind == ctoken.LPAREN {
			// Member function. One named after its struct is a
			// constructor: cast.Print renders constructors as
			// `void Tag(...)`, so printed units must parse back to one.
			m := p.parseFuncRest(p.cur().Pos, typ, name, false).(*cast.FuncDecl)
			decl.Methods = append(decl.Methods, m)
			if name == tag {
				decl.HasCtor = true
			}
			continue
		}
		st.Fields = append(st.Fields, ctypes.Field{Name: name, Type: typ})
		for p.accept(ctoken.COMMA) {
			typ2, name2 := p.parseDeclarator(base)
			st.Fields = append(st.Fields, ctypes.Field{Name: name2, Type: typ2})
		}
		p.expect(ctoken.SEMI)
	}
	p.expect(ctoken.RBRACE)
	p.accept(ctoken.SEMI)
	return decl
}

// parseCtor parses a C++-style constructor, desugaring the member
// initializer list into leading assignments of the body.
func (p *parser) parseCtor(st *ctypes.Struct) *cast.FuncDecl {
	start := p.cur().Pos
	name := p.next().Lit // tag
	f := &cast.FuncDecl{P: start, Name: name, Ret: ctypes.Void{}}
	p.expect(ctoken.LPAREN)
	f.Params = p.parseParams()
	p.expect(ctoken.RPAREN)
	var inits []cast.Stmt
	if p.accept(ctoken.COLON) {
		for {
			fieldTok := p.expect(ctoken.IDENT)
			p.expect(ctoken.LPAREN)
			val := p.parseExpr()
			p.expect(ctoken.RPAREN)
			inits = append(inits, &cast.ExprStmt{P: fieldTok.Pos, X: &cast.Assign{
				P:  fieldTok.Pos,
				Op: ctoken.ASSIGN,
				L:  &cast.Ident{P: fieldTok.Pos, Name: fieldTok.Lit},
				R:  val,
			}})
			if !p.accept(ctoken.COMMA) {
				break
			}
		}
	}
	body := p.parseBlock()
	body.Stmts = append(inits, body.Stmts...)
	f.Body = body
	return f
}

// parseFuncRest parses the remainder of a function definition after its
// return type and name.
func (p *parser) parseFuncRest(start ctoken.Pos, ret ctypes.Type, name string, static bool) cast.Decl {
	f := &cast.FuncDecl{P: start, Name: name, Ret: ret, Static: static}
	p.expect(ctoken.LPAREN)
	f.Params = p.parseParams()
	p.expect(ctoken.RPAREN)
	p.accept(ctoken.KwConst) // trailing const on methods
	if p.accept(ctoken.SEMI) {
		return f // prototype
	}
	body := p.parseBlock()
	// Hoist leading pragmas of the body to the function head.
	for len(body.Stmts) > 0 {
		pr, ok := body.Stmts[0].(*cast.Pragma)
		if !ok {
			break
		}
		f.Pragmas = append(f.Pragmas, pr)
		body.Stmts = body.Stmts[1:]
	}
	f.Body = body
	return f
}

func (p *parser) parseParams() []cast.Param {
	var params []cast.Param
	if p.cur().Kind == ctoken.RPAREN {
		return params
	}
	if p.cur().Kind == ctoken.KwVoid && p.peek().Kind == ctoken.RPAREN {
		p.next()
		return params
	}
	for {
		base := p.parseTypeSpec()
		if base == nil {
			p.errorf("expected parameter type, found %s", p.cur())
			return params
		}
		typ, name := p.parseDeclarator(base)
		params = append(params, cast.Param{Name: name, Type: typ})
		if !p.accept(ctoken.COMMA) {
			break
		}
	}
	return params
}

// ---------------------------------------------------------------------------
// Types

// parseTypeSpec parses a type specifier (without declarator parts), or nil
// if the current token cannot start a type.
func (p *parser) parseTypeSpec() ctypes.Type {
	for p.cur().Kind == ctoken.KwConst || p.cur().Kind == ctoken.KwStatic {
		p.next()
	}
	t := p.cur()
	switch t.Kind {
	case ctoken.KwVoid:
		p.next()
		return ctypes.Void{}
	case ctoken.KwBool:
		p.next()
		return ctypes.Bool{}
	case ctoken.KwChar:
		p.next()
		return ctypes.Char
	case ctoken.KwFloat:
		p.next()
		return ctypes.FloatT
	case ctoken.KwDouble:
		p.next()
		return ctypes.DoubleT
	case ctoken.KwShort:
		p.next()
		p.accept(ctoken.KwInt)
		return ctypes.Short
	case ctoken.KwInt:
		p.next()
		return ctypes.IntT
	case ctoken.KwLong:
		p.next()
		switch p.cur().Kind {
		case ctoken.KwDouble:
			p.next()
			return ctypes.LongDoubleT
		case ctoken.KwLong:
			p.next()
			p.accept(ctoken.KwInt)
			return ctypes.LongLong
		case ctoken.KwInt:
			p.next()
		}
		return ctypes.Long
	case ctoken.KwSigned, ctoken.KwUnsigned:
		unsigned := t.Kind == ctoken.KwUnsigned
		p.next()
		base := ctypes.IntT
		switch p.cur().Kind {
		case ctoken.KwChar:
			p.next()
			base = ctypes.Char
		case ctoken.KwShort:
			p.next()
			p.accept(ctoken.KwInt)
			base = ctypes.Short
		case ctoken.KwInt:
			p.next()
		case ctoken.KwLong:
			p.next()
			p.accept(ctoken.KwLong)
			p.accept(ctoken.KwInt)
			base = ctypes.Long
		}
		base.Unsigned = unsigned
		return base
	case ctoken.KwStruct, ctoken.KwUnion:
		isUnion := t.Kind == ctoken.KwUnion
		p.next()
		tag := p.expect(ctoken.IDENT).Lit
		if st, ok := p.unit.Structs[tag]; ok {
			return st
		}
		// Forward reference: create the shell now; the definition fills it.
		st := &ctypes.Struct{Tag: tag, IsUnion: isUnion}
		p.unit.Structs[tag] = st
		return st
	case ctoken.IDENT:
		switch t.Lit {
		case "fpga_uint", "fpga_int":
			p.next()
			p.expect(ctoken.LSS)
			w := p.parseConstInt()
			p.expect(ctoken.GTR)
			return ctypes.FPGAInt{Width: w, Unsigned: t.Lit == "fpga_uint"}
		case "fpga_float":
			p.next()
			p.expect(ctoken.LSS)
			e := p.parseConstInt()
			p.expect(ctoken.COMMA)
			m := p.parseConstInt()
			p.expect(ctoken.GTR)
			return ctypes.FPGAFloat{Exp: e, Mant: m}
		case "hls":
			if p.peek().Kind == ctoken.COLONCOLON {
				p.next() // hls
				p.next() // ::
				kw := p.expect(ctoken.IDENT).Lit
				if kw != "stream" {
					p.errorf("unsupported hls:: type %q", kw)
				}
				p.expect(ctoken.LSS)
				elem := p.parseTypeSpec()
				if elem == nil {
					p.errorf("expected stream element type")
					elem = ctypes.IntT
				}
				p.expect(ctoken.GTR)
				return ctypes.Stream{Elem: elem}
			}
		case "size_t", "uint32_t":
			p.next()
			return ctypes.UIntT
		case "int32_t":
			p.next()
			return ctypes.IntT
		case "uint8_t":
			p.next()
			return ctypes.UChar
		case "int8_t":
			p.next()
			return ctypes.Char
		case "uint16_t":
			p.next()
			return ctypes.UShort
		case "int64_t":
			p.next()
			return ctypes.Long
		case "uint64_t":
			p.next()
			return ctypes.ULong
		}
		if td, ok := p.typedefs[t.Lit]; ok {
			p.next()
			return ctypes.Named{Name: t.Lit, Underlying: td}
		}
		if st, ok := p.unit.Structs[t.Lit]; ok {
			// HLS-C allows bare struct tags as type names.
			p.next()
			return st
		}
		return nil
	}
	return nil
}

func (p *parser) parseConstInt() int {
	neg := p.accept(ctoken.SUB)
	tok := p.expect(ctoken.INTLIT)
	v, _ := strconv.ParseInt(strings.TrimRight(tok.Lit, "uUlL"), 0, 64)
	if neg {
		v = -v
	}
	return int(v)
}

// parseDeclarator parses pointer stars, optional reference, the declared
// name, and array suffixes, returning the full type and the name. An empty
// name results for abstract declarators (casts). Runtime (VLA) dimension
// expressions are recorded in p.lastVLADims for the declaration parser.
func (p *parser) parseDeclarator(base ctypes.Type) (ctypes.Type, string) {
	typ := base
	for p.accept(ctoken.MUL) {
		typ = ctypes.Pointer{Elem: typ}
	}
	if p.accept(ctoken.AND) {
		typ = ctypes.Ref{Elem: typ}
	}
	name := ""
	if p.cur().Kind == ctoken.IDENT {
		name = p.next().Lit
	}
	// Array suffixes: build outermost-first so int a[2][3] is
	// Array(len=2, Array(len=3, int)).
	var dims []int
	p.lastVLADims = nil
	for p.accept(ctoken.LBRACKET) {
		if p.cur().Kind == ctoken.RBRACKET {
			dims = append(dims, -1)
		} else if p.cur().Kind == ctoken.INTLIT {
			dims = append(dims, p.parseConstInt())
		} else {
			// Unknown-size (expression) dimension: the canonical
			// SYNCHK-61 trigger. Keep the expression so the CPU
			// interpreter can still run the original program.
			p.lastVLADims = append(p.lastVLADims, p.parseExpr())
			dims = append(dims, -1)
		}
		p.expect(ctoken.RBRACKET)
	}
	for i := len(dims) - 1; i >= 0; i-- {
		typ = ctypes.Array{Elem: typ, Len: dims[i]}
	}
	return typ, name
}

// tryType attempts to parse a full abstract type (for casts and sizeof);
// it returns nil and restores the position on failure.
func (p *parser) tryType() ctypes.Type {
	save := p.pos
	base := p.parseTypeSpec()
	if base == nil {
		p.pos = save
		return nil
	}
	typ, name := p.parseDeclarator(base)
	if name != "" {
		p.pos = save
		return nil
	}
	return typ
}

// isTypeAhead reports whether a declaration (not an expression) starts at
// the current token, used to disambiguate statements.
func (p *parser) isTypeAhead() bool {
	switch p.cur().Kind {
	case ctoken.KwVoid, ctoken.KwChar, ctoken.KwShort, ctoken.KwInt,
		ctoken.KwLong, ctoken.KwFloat, ctoken.KwDouble, ctoken.KwSigned,
		ctoken.KwUnsigned, ctoken.KwBool, ctoken.KwStruct, ctoken.KwUnion,
		ctoken.KwConst, ctoken.KwStatic:
		return true
	case ctoken.IDENT:
		lit := p.cur().Lit
		switch lit {
		case "fpga_uint", "fpga_int", "fpga_float":
			return p.peek().Kind == ctoken.LSS
		case "hls":
			return p.peek().Kind == ctoken.COLONCOLON
		case "size_t", "uint8_t", "int8_t", "uint16_t", "uint32_t",
			"int32_t", "uint64_t", "int64_t":
			return true
		}
		_, isTypedef := p.typedefs[lit]
		_, isStruct := p.unit.Structs[lit]
		if !isTypedef && !isStruct {
			return false
		}
		// "T x", "T *x", "T &x" are declarations; "T(...)" or "T {" are
		// expressions (ctor temporaries).
		switch p.peek().Kind {
		case ctoken.IDENT, ctoken.MUL, ctoken.AND:
			return true
		}
		return false
	}
	return false
}
