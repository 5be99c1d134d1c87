// Package ctoken defines the lexical tokens of the C subset handled by the
// HeteroGen frontend, together with source positions and the lexer that
// produces them.
//
// The subset covers everything the ten evaluation subjects and the six
// repair-pattern families need: the usual declarators and control flow,
// struct/union, pointers, dynamic allocation calls, HLS vendor types such
// as fpga_uint<7>, and #pragma HLS directives (which are lexed as a single
// PRAGMA token carrying the directive text).
package ctoken

import "fmt"

// Kind enumerates token kinds.
type Kind int

// Token kinds. Literal and identifier kinds carry their text; operator and
// keyword kinds are fully identified by the kind alone.
const (
	EOF Kind = iota
	IDENT
	INTLIT   // 123, 0x7f, 'a'
	FLOATLIT // 1.5, 2e10
	STRLIT   // "..."
	CHARLIT  // 'c'
	PRAGMA   // #pragma ... (whole line, text in Lit)

	// Punctuation and operators.
	LPAREN   // (
	RPAREN   // )
	LBRACE   // {
	RBRACE   // }
	LBRACKET // [
	RBRACKET // ]
	SEMI     // ;
	COMMA    // ,
	DOT      // .
	ARROW    // ->
	ELLIPSIS // ...

	ADD // +
	SUB // -
	MUL // *
	QUO // /
	REM // %

	AND  // &
	OR   // |
	XOR  // ^
	SHL  // <<
	SHR  // >>
	NOT  // !
	TILD // ~

	LAND // &&
	LOR  // ||

	EQL // ==
	NEQ // !=
	LSS // <
	GTR // >
	LEQ // <=
	GEQ // >=

	ASSIGN     // =
	ADDASSIGN  // +=
	SUBASSIGN  // -=
	MULASSIGN  // *=
	QUOASSIGN  // /=
	REMASSIGN  // %=
	ANDASSIGN  // &=
	ORASSIGN   // |=
	XORASSIGN  // ^=
	SHLASSIGN  // <<=
	SHRASSIGN  // >>=
	INC        // ++
	DEC        // --
	QUESTION   // ?
	COLON      // :
	COLONCOLON // ::

	// Keywords.
	KwVoid
	KwChar
	KwShort
	KwInt
	KwLong
	KwFloat
	KwDouble
	KwSigned
	KwUnsigned
	KwBool
	KwStruct
	KwUnion
	KwEnum
	KwTypedef
	KwStatic
	KwConst
	KwExtern
	KwInline
	KwIf
	KwElse
	KwFor
	KwWhile
	KwDo
	KwReturn
	KwBreak
	KwContinue
	KwSwitch
	KwCase
	KwDefault
	KwGoto
	KwSizeof
	KwTrue
	KwFalse
)

var kindNames = map[Kind]string{
	EOF: "EOF", IDENT: "IDENT", INTLIT: "INTLIT", FLOATLIT: "FLOATLIT",
	STRLIT: "STRLIT", CHARLIT: "CHARLIT", PRAGMA: "PRAGMA",
	LPAREN: "(", RPAREN: ")", LBRACE: "{", RBRACE: "}",
	LBRACKET: "[", RBRACKET: "]", SEMI: ";", COMMA: ",", DOT: ".",
	ARROW: "->", ELLIPSIS: "...",
	ADD: "+", SUB: "-", MUL: "*", QUO: "/", REM: "%",
	AND: "&", OR: "|", XOR: "^", SHL: "<<", SHR: ">>", NOT: "!", TILD: "~",
	LAND: "&&", LOR: "||",
	EQL: "==", NEQ: "!=", LSS: "<", GTR: ">", LEQ: "<=", GEQ: ">=",
	ASSIGN: "=", ADDASSIGN: "+=", SUBASSIGN: "-=", MULASSIGN: "*=",
	QUOASSIGN: "/=", REMASSIGN: "%=", ANDASSIGN: "&=", ORASSIGN: "|=",
	XORASSIGN: "^=", SHLASSIGN: "<<=", SHRASSIGN: ">>=",
	INC: "++", DEC: "--", QUESTION: "?", COLON: ":", COLONCOLON: "::",
	KwVoid: "void", KwChar: "char", KwShort: "short", KwInt: "int",
	KwLong: "long", KwFloat: "float", KwDouble: "double",
	KwSigned: "signed", KwUnsigned: "unsigned", KwBool: "bool",
	KwStruct: "struct", KwUnion: "union", KwEnum: "enum",
	KwTypedef: "typedef", KwStatic: "static", KwConst: "const",
	KwExtern: "extern", KwInline: "inline",
	KwIf: "if", KwElse: "else", KwFor: "for", KwWhile: "while", KwDo: "do",
	KwReturn: "return", KwBreak: "break", KwContinue: "continue",
	KwSwitch: "switch", KwCase: "case", KwDefault: "default", KwGoto: "goto",
	KwSizeof: "sizeof", KwTrue: "true", KwFalse: "false",
}

// String returns a printable name for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Keywords maps keyword spellings to their kinds.
var Keywords = map[string]Kind{
	"void": KwVoid, "char": KwChar, "short": KwShort, "int": KwInt,
	"long": KwLong, "float": KwFloat, "double": KwDouble,
	"signed": KwSigned, "unsigned": KwUnsigned, "bool": KwBool,
	"struct": KwStruct, "union": KwUnion, "enum": KwEnum,
	"typedef": KwTypedef, "static": KwStatic, "const": KwConst,
	"extern": KwExtern, "inline": KwInline,
	"if": KwIf, "else": KwElse, "for": KwFor, "while": KwWhile, "do": KwDo,
	"return": KwReturn, "break": KwBreak, "continue": KwContinue,
	"switch": KwSwitch, "case": KwCase, "default": KwDefault,
	"goto": KwGoto, "sizeof": KwSizeof, "true": KwTrue, "false": KwFalse,
}

// Pos is a source position (1-based line and column).
type Pos struct {
	Line int
	Col  int
}

// String renders the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// IsValid reports whether the position has been set.
func (p Pos) IsValid() bool { return p.Line > 0 }

// Token is a single lexical token.
type Token struct {
	Kind Kind
	Lit  string // literal text for IDENT/INTLIT/FLOATLIT/STRLIT/CHARLIT/PRAGMA
	Pos  Pos
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case IDENT, INTLIT, FLOATLIT, STRLIT, CHARLIT, PRAGMA:
		return fmt.Sprintf("%s(%q)", t.Kind, t.Lit)
	default:
		return t.Kind.String()
	}
}

// IsAssignOp reports whether the kind is any assignment operator.
func (k Kind) IsAssignOp() bool {
	switch k {
	case ASSIGN, ADDASSIGN, SUBASSIGN, MULASSIGN, QUOASSIGN, REMASSIGN,
		ANDASSIGN, ORASSIGN, XORASSIGN, SHLASSIGN, SHRASSIGN:
		return true
	}
	return false
}
