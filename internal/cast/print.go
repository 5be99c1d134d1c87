package cast

import (
	"fmt"
	"strings"

	"github.com/hetero/heterogen/internal/ctoken"
	"github.com/hetero/heterogen/internal/ctypes"
)

// Print renders a translation unit back to C/HLS-C source. The output is
// stable: printing, reparsing, and printing again yields identical text,
// which the property-based tests rely on. LOC deltas in the evaluation
// (Table 5) are computed over this rendering.
func Print(u *Unit) string {
	var p printer
	for i, d := range u.Decls {
		if i > 0 {
			p.nl()
		}
		p.decl(d)
	}
	return p.sb.String()
}

// PrintDecl renders a single top-level declaration. The per-declaration
// fingerprints (fingerprint.go) hash this rendering, so a unit's
// composed fingerprint can be recombined from cached declaration hashes
// after an edit instead of reprinting the whole unit.
func PrintDecl(d Decl) string {
	var p printer
	p.decl(d)
	return p.sb.String()
}

// PrintStmt renders a single statement (used in diagnostics and tests).
func PrintStmt(s Stmt) string {
	var p printer
	p.stmt(s)
	return strings.TrimRight(p.sb.String(), "\n")
}

// PrintExpr renders a single expression.
func PrintExpr(e Expr) string {
	var p printer
	p.expr(e, 0)
	return p.sb.String()
}

// CountLines returns the number of non-blank source lines in the printed
// form of u — the unit of measure for the paper's LOC comparisons.
func CountLines(u *Unit) int { return countLines(Print(u)) }

func countLines(text string) int {
	n := 0
	for text != "" {
		line, rest, _ := strings.Cut(text, "\n")
		if strings.TrimSpace(line) != "" {
			n++
		}
		text = rest
	}
	return n
}

type printer struct {
	sb     strings.Builder
	indent int
}

func (p *printer) ws() {
	for i := 0; i < p.indent; i++ {
		p.sb.WriteString("    ")
	}
}

func (p *printer) nl() { p.sb.WriteByte('\n') }

func (p *printer) printf(format string, args ...any) {
	fmt.Fprintf(&p.sb, format, args...)
}

// ---------------------------------------------------------------------------
// Declarations

func (p *printer) decl(d Decl) {
	switch x := d.(type) {
	case *FuncDecl:
		p.funcDecl(x)
	case *VarDecl:
		p.ws()
		if x.Static {
			p.printf("static ")
		}
		if x.Const {
			p.printf("const ")
		}
		p.printf("%s", x.Type.C(x.Name))
		if x.Init != nil {
			p.printf(" = ")
			p.expr(x.Init, 0)
		}
		p.printf(";\n")
	case *StructDecl:
		kw := "struct"
		if x.Type.IsUnion {
			kw = "union"
		}
		p.ws()
		p.printf("%s %s {\n", kw, x.Type.Tag)
		p.indent++
		for _, f := range x.Type.Fields {
			p.ws()
			p.printf("%s;\n", f.Type.C(f.Name))
		}
		for _, m := range x.Methods {
			p.funcDecl(m)
		}
		p.indent--
		p.ws()
		p.printf("};\n")
	case *TypedefDecl:
		p.ws()
		p.printf("typedef %s;\n", x.Type.C(x.Name))
	case *PragmaDecl:
		p.ws()
		p.printf("#pragma %s\n", x.Text)
	}
}

func (p *printer) funcDecl(f *FuncDecl) {
	p.ws()
	if f.Static {
		p.printf("static ")
	}
	params := make([]string, len(f.Params))
	for i, prm := range f.Params {
		params[i] = prm.Type.C(prm.Name)
	}
	p.printf("%s(%s)", f.Ret.C(f.Name), strings.Join(params, ", "))
	if f.Body == nil {
		p.printf(";\n")
		return
	}
	p.printf(" {\n")
	p.indent++
	for _, pr := range f.Pragmas {
		p.ws()
		p.printf("#pragma %s\n", pr.Text)
	}
	for _, s := range f.Body.Stmts {
		p.stmt(s)
	}
	p.indent--
	p.ws()
	p.printf("}\n")
}

// ---------------------------------------------------------------------------
// Statements

func (p *printer) stmt(s Stmt) {
	switch x := s.(type) {
	case *ExprStmt:
		p.ws()
		p.expr(x.X, 0)
		p.printf(";\n")
	case *DeclStmt:
		p.ws()
		if x.Static {
			p.printf("static ")
		}
		if x.Const {
			p.printf("const ")
		}
		if len(x.VLADims) > 0 {
			// Variable-length array: render the runtime dimensions.
			elem := x.Type
			depth := 0
			for {
				a, ok := elem.(ctypes.Array)
				if !ok {
					break
				}
				elem = a.Elem
				depth++
			}
			p.printf("%s %s", elem.C(""), x.Name)
			for i := 0; i < depth; i++ {
				p.printf("[")
				if i < len(x.VLADims) {
					p.expr(x.VLADims[i], 0)
				}
				p.printf("]")
			}
		} else {
			p.printf("%s", x.Type.C(x.Name))
		}
		if x.Init != nil {
			p.printf(" = ")
			p.expr(x.Init, 0)
		}
		p.printf(";\n")
	case *Block:
		p.ws()
		p.printf("{\n")
		p.indent++
		for _, st := range x.Stmts {
			p.stmt(st)
		}
		p.indent--
		p.ws()
		p.printf("}\n")
	case *If:
		p.ws()
		p.printf("if (")
		p.expr(x.Cond, 0)
		p.printf(")")
		p.body(x.Then)
		if x.Else != nil {
			p.ws()
			p.printf("else")
			p.body(x.Else)
		}
	case *For:
		p.ws()
		p.printf("for (")
		switch init := x.Init.(type) {
		case nil:
		case *DeclStmt:
			p.printf("%s", init.Type.C(init.Name))
			if init.Init != nil {
				p.printf(" = ")
				p.expr(init.Init, 0)
			}
		case *ExprStmt:
			p.expr(init.X, 0)
		}
		p.printf("; ")
		if x.Cond != nil {
			p.expr(x.Cond, 0)
		}
		p.printf("; ")
		if x.Post != nil {
			p.expr(x.Post, 0)
		}
		p.printf(")")
		p.loopBody(x.Body, x.Pragmas)
	case *While:
		if x.DoWhile {
			p.ws()
			p.printf("do")
			p.loopBody(x.Body, x.Pragmas)
			p.ws()
			p.printf("while (")
			p.expr(x.Cond, 0)
			p.printf(");\n")
			return
		}
		p.ws()
		p.printf("while (")
		p.expr(x.Cond, 0)
		p.printf(")")
		p.loopBody(x.Body, x.Pragmas)
	case *Return:
		p.ws()
		p.printf("return")
		if x.X != nil {
			p.printf(" ")
			p.expr(x.X, 0)
		}
		p.printf(";\n")
	case *Break:
		p.ws()
		p.printf("break;\n")
	case *Continue:
		p.ws()
		p.printf("continue;\n")
	case *Switch:
		p.ws()
		p.printf("switch (")
		p.expr(x.X, 0)
		p.printf(") {\n")
		for _, c := range x.Cases {
			p.ws()
			if c.IsDefault {
				p.printf("default:\n")
			} else {
				p.printf("case ")
				p.expr(c.Value, 0)
				p.printf(":\n")
			}
			p.indent++
			for _, st := range c.Body {
				p.stmt(st)
			}
			p.indent--
		}
		p.ws()
		p.printf("}\n")
	case *Pragma:
		p.ws()
		p.printf("#pragma %s\n", x.Text)
	case *Label:
		p.printf("%s:\n", x.Name)
	case *Goto:
		p.ws()
		p.printf("goto %s;\n", x.Name)
	}
}

// body prints a statement as the body of an if/else, forcing block form.
func (p *printer) body(s Stmt) {
	if b, ok := s.(*Block); ok {
		p.printf(" {\n")
		p.indent++
		for _, st := range b.Stmts {
			p.stmt(st)
		}
		p.indent--
		p.ws()
		p.printf("}\n")
		return
	}
	p.printf("\n")
	p.indent++
	p.stmt(s)
	p.indent--
}

// loopBody prints a loop body with its HLS pragmas at the head, the form
// Vivado requires.
func (p *printer) loopBody(s Stmt, pragmas []*Pragma) {
	p.printf(" {\n")
	p.indent++
	for _, pr := range pragmas {
		p.ws()
		p.printf("#pragma %s\n", pr.Text)
	}
	if b, ok := s.(*Block); ok {
		for _, st := range b.Stmts {
			p.stmt(st)
		}
	} else if s != nil {
		p.stmt(s)
	}
	p.indent--
	p.ws()
	p.printf("}\n")
}

// ---------------------------------------------------------------------------
// Expressions

// Operator precedence (higher binds tighter), mirroring C.
func precOf(op ctoken.Kind) int {
	switch op {
	case ctoken.MUL, ctoken.QUO, ctoken.REM:
		return 10
	case ctoken.ADD, ctoken.SUB:
		return 9
	case ctoken.SHL, ctoken.SHR:
		return 8
	case ctoken.LSS, ctoken.GTR, ctoken.LEQ, ctoken.GEQ:
		return 7
	case ctoken.EQL, ctoken.NEQ:
		return 6
	case ctoken.AND:
		return 5
	case ctoken.XOR:
		return 4
	case ctoken.OR:
		return 3
	case ctoken.LAND:
		return 2
	case ctoken.LOR:
		return 1
	}
	return 0
}

func (p *printer) expr(e Expr, parentPrec int) {
	switch x := e.(type) {
	case *IntLit:
		if x.Text != "" {
			p.printf("%s", x.Text)
		} else {
			p.printf("%d", x.Value)
		}
	case *FloatLit:
		if x.Text != "" {
			p.printf("%s", x.Text)
		} else {
			p.printf("%g", x.Value)
		}
	case *StrLit:
		p.printf("%q", x.Value)
	case *CharLit:
		switch {
		case x.Value == '\n':
			p.printf(`'\n'`)
		case x.Value == '\t':
			p.printf(`'\t'`)
		case x.Value == 0:
			p.printf(`'\0'`)
		case x.Value == '\'':
			p.printf(`'\''`)
		case x.Value == '\\':
			p.printf(`'\\'`)
		case x.Value >= 32 && x.Value < 127:
			p.printf("'%c'", x.Value)
		default:
			// Non-printable or non-ASCII bytes print as their integer
			// value (same C semantics, lossless round trip).
			p.printf("%d", x.Value)
		}
	case *BoolLit:
		p.printf("%t", x.Value)
	case *Ident:
		p.printf("%s", x.Name)
	case *Unary:
		p.printf("%s", x.Op)
		// Parenthesize compound operands to keep round-tripping stable.
		p.exprChild(x.X)
	case *Postfix:
		p.exprChild(x.X)
		p.printf("%s", x.Op)
	case *Binary:
		prec := precOf(x.Op)
		if prec <= parentPrec {
			p.printf("(")
		}
		p.expr(x.L, prec-1)
		p.printf(" %s ", x.Op)
		p.expr(x.R, prec)
		if prec <= parentPrec {
			p.printf(")")
		}
	case *Assign:
		if parentPrec > 0 {
			p.printf("(")
		}
		p.expr(x.L, 11)
		p.printf(" %s ", x.Op)
		p.expr(x.R, 0)
		if parentPrec > 0 {
			p.printf(")")
		}
	case *Cond:
		if parentPrec > 0 {
			p.printf("(")
		}
		p.expr(x.C, 2)
		p.printf(" ? ")
		p.expr(x.T, 0)
		p.printf(" : ")
		p.expr(x.F, 0)
		if parentPrec > 0 {
			p.printf(")")
		}
	case *Call:
		p.exprChild(x.Fun)
		p.printf("(")
		for i, a := range x.Args {
			if i > 0 {
				p.printf(", ")
			}
			p.expr(a, 0)
		}
		p.printf(")")
	case *Index:
		p.exprChild(x.X)
		p.printf("[")
		p.expr(x.Idx, 0)
		p.printf("]")
	case *Member:
		p.exprChild(x.X)
		if x.Arrow {
			p.printf("->%s", x.Field)
		} else {
			p.printf(".%s", x.Field)
		}
	case *Cast:
		p.printf("(%s)", x.To.C(""))
		p.exprChild(x.X)
	case *SizeofType:
		p.printf("sizeof(%s)", x.T.C(""))
	case *SizeofExpr:
		p.printf("sizeof(")
		p.expr(x.X, 0)
		p.printf(")")
	case *InitList:
		if x.Type != nil {
			if st, ok := x.Type.(*ctypes.Struct); ok {
				p.printf("%s", st.Tag)
			} else {
				p.printf("%s", x.Type.C(""))
			}
		}
		p.printf("{")
		for i, el := range x.Elems {
			if i > 0 {
				p.printf(", ")
			}
			p.expr(el, 0)
		}
		p.printf("}")
	}
}

// exprChild prints a child of a postfix/unary context, parenthesizing any
// operator expression so precedence never changes across a round trip.
func (p *printer) exprChild(e Expr) {
	switch e.(type) {
	case *IntLit, *FloatLit, *StrLit, *CharLit, *BoolLit, *Ident, *Call,
		*Index, *Member, *SizeofType, *SizeofExpr, *InitList, *Postfix:
		p.expr(e, 0)
	default:
		p.printf("(")
		p.expr(e, 0)
		p.printf(")")
	}
}
