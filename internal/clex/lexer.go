package clex

import (
	"fmt"
	"strings"
)

// Error is a lexical error with a source position.
type Error struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("clex: %s: %s", e.Pos, e.Msg) }

// Lexer tokenizes C source text. Create one with New and call Next until it
// returns an EOF token, or use Tokenize to collect the whole stream.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
	err  *Error
}

// New returns a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Tokenize lexes the entire input and returns the token stream, excluding the
// trailing EOF token.
func Tokenize(src string) ([]Token, error) {
	lx := New(src)
	var toks []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return toks, err
		}
		if t.Kind == EOF {
			return toks, nil
		}
		toks = append(toks, t)
	}
}

func (l *Lexer) pos() Pos { return Pos{Line: l.line, Col: l.col, Offset: l.off} }

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peekAt(delta int) byte {
	if l.off+delta >= len(l.src) {
		return 0
	}
	return l.src[l.off+delta]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) errorf(p Pos, format string, args ...any) error {
	l.err = &Error{Pos: p, Msg: fmt.Sprintf(format, args...)}
	return l.err
}

// Next returns the next token. After an error, Next keeps returning the same
// error.
func (l *Lexer) Next() (Token, error) {
	if l.err != nil {
		return Token{}, l.err
	}
	for {
		l.skipSpaceAndComments()
		if l.off >= len(l.src) {
			return Token{Kind: EOF, Pos: l.pos()}, nil
		}
		c := l.peek()
		switch {
		case c == '#':
			tok, keep, err := l.lexDirective()
			if err != nil {
				return Token{}, err
			}
			if keep {
				return tok, nil
			}
			continue // skipped preprocessor line (e.g. #include)
		case isIdentStart(c):
			return l.lexIdent(), nil
		case isDigit(c) || (c == '.' && isDigit(l.peekAt(1))):
			return l.lexNumber()
		case c == '"':
			return l.lexString()
		case c == '\'':
			return l.lexChar()
		default:
			return l.lexPunct()
		}
	}
}

func (l *Lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peekAt(1) == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peekAt(1) == '*':
			l.advance()
			l.advance()
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peekAt(1) == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		default:
			return
		}
	}
}

// lexDirective handles a preprocessor line. #pragma lines are returned as a
// single Pragma token with backslash continuations folded into spaces; all
// other directives (#include, #define, ...) are skipped.
func (l *Lexer) lexDirective() (Token, bool, error) {
	start := l.pos()
	var sb strings.Builder
	for l.off < len(l.src) {
		c := l.peek()
		if c == '\\' && (l.peekAt(1) == '\n' || (l.peekAt(1) == '\r' && l.peekAt(2) == '\n')) {
			l.advance() // backslash
			for l.peek() == '\r' {
				l.advance()
			}
			if l.peek() == '\n' {
				l.advance()
			}
			sb.WriteByte(' ')
			continue
		}
		if c == '\n' {
			break
		}
		sb.WriteByte(c)
		l.advance()
	}
	line := strings.TrimSpace(sb.String())
	rest := strings.TrimSpace(strings.TrimPrefix(line, "#"))
	if strings.HasPrefix(rest, "pragma") {
		return Token{Kind: Pragma, Text: line, Pos: start}, true, nil
	}
	return Token{}, false, nil
}

func (l *Lexer) lexIdent() Token {
	start := l.pos()
	begin := l.off
	for l.off < len(l.src) && isIdentCont(l.peek()) {
		l.advance()
	}
	text := l.src[begin:l.off]
	kind := Ident
	if keywords[text] {
		kind = Keyword
	}
	return Token{Kind: kind, Text: text, Pos: start}
}

func (l *Lexer) lexNumber() (Token, error) {
	start := l.pos()
	begin := l.off
	isFloat := false
	// Hex literal.
	if l.peek() == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') {
		l.advance()
		l.advance()
		for isHexDigit(l.peek()) {
			l.advance()
		}
		l.consumeIntSuffix()
		return Token{Kind: IntLit, Text: l.src[begin:l.off], Pos: start}, nil
	}
	for isDigit(l.peek()) {
		l.advance()
	}
	if l.peek() == '.' {
		isFloat = true
		l.advance()
		for isDigit(l.peek()) {
			l.advance()
		}
	}
	if c := l.peek(); c == 'e' || c == 'E' {
		next := l.peekAt(1)
		if isDigit(next) || ((next == '+' || next == '-') && isDigit(l.peekAt(2))) {
			isFloat = true
			l.advance()
			if l.peek() == '+' || l.peek() == '-' {
				l.advance()
			}
			for isDigit(l.peek()) {
				l.advance()
			}
		}
	}
	if isFloat {
		if c := l.peek(); c == 'f' || c == 'F' || c == 'l' || c == 'L' {
			l.advance()
		}
		return Token{Kind: FloatLit, Text: l.src[begin:l.off], Pos: start}, nil
	}
	l.consumeIntSuffix()
	return Token{Kind: IntLit, Text: l.src[begin:l.off], Pos: start}, nil
}

func (l *Lexer) consumeIntSuffix() {
	for {
		c := l.peek()
		if c == 'u' || c == 'U' || c == 'l' || c == 'L' {
			l.advance()
			continue
		}
		return
	}
}

func (l *Lexer) lexString() (Token, error) {
	start := l.pos()
	begin := l.off
	l.advance() // opening quote
	for {
		if l.off >= len(l.src) {
			return Token{}, l.errorf(start, "unterminated string literal")
		}
		c := l.advance()
		if c == '\\' && l.off < len(l.src) {
			l.advance()
			continue
		}
		if c == '"' {
			return Token{Kind: StringLit, Text: l.src[begin:l.off], Pos: start}, nil
		}
		if c == '\n' {
			return Token{}, l.errorf(start, "newline in string literal")
		}
	}
}

func (l *Lexer) lexChar() (Token, error) {
	start := l.pos()
	begin := l.off
	l.advance() // opening quote
	for {
		if l.off >= len(l.src) {
			return Token{}, l.errorf(start, "unterminated character literal")
		}
		c := l.advance()
		if c == '\\' && l.off < len(l.src) {
			l.advance()
			continue
		}
		if c == '\'' {
			return Token{Kind: CharLit, Text: l.src[begin:l.off], Pos: start}, nil
		}
		if c == '\n' {
			return Token{}, l.errorf(start, "newline in character literal")
		}
	}
}

// punct3 and punct2 list multi-character operators, longest first.
var punct3 = []string{"<<=", ">>=", "..."}

var punct2 = []string{
	"<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
	"++", "--", "->",
}

func (l *Lexer) lexPunct() (Token, error) {
	start := l.pos()
	// Brackets, separators and ?:~ begin no longer operator.
	switch c := l.peek(); c {
	case '(', ')', '[', ']', '{', '}', ',', ';', '?', ':', '~':
		l.advance()
		return Token{Kind: Punct, Text: string(c), Pos: start}, nil
	}
	rest := l.src[l.off:]
	for _, p := range punct3 {
		if strings.HasPrefix(rest, p) {
			for range p {
				l.advance()
			}
			return Token{Kind: Punct, Text: p, Pos: start}, nil
		}
	}
	for _, p := range punct2 {
		if strings.HasPrefix(rest, p) {
			for range p {
				l.advance()
			}
			return Token{Kind: Punct, Text: p, Pos: start}, nil
		}
	}
	c := l.peek()
	switch c {
	case '+', '-', '*', '/', '%', '=', '<', '>', '!', '&', '|', '^', '~',
		'?', ':', ';', ',', '.', '(', ')', '[', ']', '{', '}':
		l.advance()
		return Token{Kind: Punct, Text: string(c), Pos: start}, nil
	}
	return Token{}, l.errorf(start, "unexpected character %q", c)
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}
