// Package clex implements a lexical analyzer for the C subset used by the
// ParaGraph benchmark kernels. It produces a token stream with source
// positions, captures #pragma lines verbatim as one token (cparse tokenizes
// an OpenMP pragma's text again to parse its clauses), and skips comments
// and uninteresting preprocessor directives.
package clex

import "fmt"

// Kind classifies a token.
type Kind int

// Token kinds. Punctuation tokens use their literal spelling via Tok.Text;
// Kind distinguishes only the lexical class.
const (
	EOF Kind = iota
	Ident
	Keyword
	IntLit
	FloatLit
	CharLit
	StringLit
	Punct
	Pragma // a full "#pragma ..." line, continuations folded
)

var kindNames = [...]string{
	EOF:       "EOF",
	Ident:     "Ident",
	Keyword:   "Keyword",
	IntLit:    "IntLit",
	FloatLit:  "FloatLit",
	CharLit:   "CharLit",
	StringLit: "StringLit",
	Punct:     "Punct",
	Pragma:    "Pragma",
}

// String returns the name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Pos is a source position. Line and Col are 1-based; Offset is a 0-based
// byte offset into the input.
type Pos struct {
	Line   int
	Col    int
	Offset int
}

// String renders the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is a single lexical token.
type Token struct {
	Kind Kind
	Text string
	Pos  Pos
}

// String renders the token for diagnostics.
func (t Token) String() string {
	return fmt.Sprintf("%s(%q)@%s", t.Kind, t.Text, t.Pos)
}

// Is reports whether the token is a punctuation token with the given
// spelling.
func (t Token) Is(punct string) bool { return t.Kind == Punct && t.Text == punct }

// IsKeyword reports whether the token is the given keyword.
func (t Token) IsKeyword(kw string) bool { return t.Kind == Keyword && t.Text == kw }

// keywords is the C keyword set recognized by the lexer. Identifiers not in
// this set lex as Ident.
var keywords = map[string]bool{
	"auto": true, "break": true, "case": true, "char": true,
	"const": true, "continue": true, "default": true, "do": true,
	"double": true, "else": true, "enum": true, "extern": true,
	"float": true, "for": true, "goto": true, "if": true,
	"inline": true, "int": true, "long": true, "register": true,
	"restrict": true, "return": true, "short": true, "signed": true,
	"sizeof": true, "static": true, "struct": true, "switch": true,
	"typedef": true, "union": true, "unsigned": true, "void": true,
	"volatile": true, "while": true, "size_t": true,
}

// IsTypeKeyword reports whether s names a builtin type or type qualifier that
// can begin a declaration in the supported subset.
func IsTypeKeyword(s string) bool {
	switch s {
	case "void", "char", "short", "int", "long", "float", "double",
		"signed", "unsigned", "const", "static", "size_t", "struct":
		return true
	}
	return false
}
