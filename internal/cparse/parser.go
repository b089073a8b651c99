// Package cparse parses the C subset used by the ParaGraph benchmark kernels
// into a Clang-style AST (package cast). The subset covers what the paper's
// nine applications need: function definitions, scalar/pointer/array
// declarations, for/while/do/if control flow, full C expression precedence,
// and OpenMP pragmas attached to statements, whose clauses it parses from
// tokens into OMPClause children of the directive (pragma.go): the AST is
// the one record of a pragma.
//
// Two Clang behaviours the ParaGraph representation relies on are mimicked:
//
//   - ImplicitCastExpr nodes wrap identifier and array reads in rvalue
//     position (the paper's Figure 2 shows this shape for `x = 50`).
//   - DeclRefExpr nodes carry a resolved reference to the VarDecl or
//     ParmVarDecl that declared the variable, which is what ParaGraph's Ref
//     edges connect.
package cparse

import (
	"cmp"
	"fmt"
	"strings"

	"paragraph/internal/cast"
	"paragraph/internal/clex"
	"paragraph/internal/omp"
)

// Error is a parse error with a source position.
type Error struct {
	Pos clex.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("cparse: %s: %s", e.Pos, e.Msg) }

// Parse parses a complete translation unit and returns its root
// TranslationUnitDecl. The returned tree is finalized (IDs and parent
// pointers assigned).
func Parse(src string) (*cast.Node, error) {
	toks, err := clex.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, left: maxTokens}
	p.pushScope()
	root := cast.NewNode(cast.KindTranslationUnitDecl)
	for !p.atEOF() {
		if p.peek().Kind == clex.Pragma {
			// A pragma at file scope binds to the next function's body
			// statements only through textual position; we do not support
			// file-scope OpenMP pragmas, so reject loudly rather than drop.
			return nil, p.errorf("file-scope pragma not supported: %s", p.peek().Text)
		}
		decl, err := p.parseExternalDecl()
		// Past the length budget, err is only its echo.
		if err = cmp.Or(p.over, err); err != nil {
			return nil, err
		}
		root.AddChild(decl)
	}
	markAndWrapRValues(root)
	root.Finalize()
	return root, nil
}

// ParseFunction parses a source fragment expected to contain at least one
// function and returns the first FunctionDecl.
func ParseFunction(src string) (*cast.Node, error) {
	root, err := Parse(src)
	if err != nil {
		return nil, err
	}
	fns := cast.FindAll(root, cast.KindFunctionDecl)
	if len(fns) == 0 {
		return nil, fmt.Errorf("cparse: no function in source")
	}
	return fns[0], nil
}

type parser struct {
	toks   []clex.Token
	pos    int
	end    clex.Pos // reported for an error at the end of toks
	scopes []map[string]*cast.Node
	depth  int   // live parseStmt/parseAssign/parseUnary frames, see enter
	left   int   // tokens the parse may still consume, see maxTokens
	over   error // set once it consumed more; the parser then sees EOF
}

// maxTokens is the length budget: how many tokens, pragma text included,
// one parse may consume. The nesting budget bounds how deep a tree gets;
// this bounds how big, and with it every later walk. Without it a flat
// 140 kB body of 20 000 `a[i] +` terms, under the request body cap, costs
// ~0.1 s to parse and as much to build a topology, per variant kind, inside
// an admission slot. The suite's largest variant consumes 200 tokens, the
// largest of 5 000 default progen kernels 2 157. It is charged as tokens
// are consumed, so a source that breaks the nesting budget first gets that
// error.
const maxTokens = 1 << 14

// maxDepth is the nesting budget: how many statement and expression levels
// may be open at once. Every cycle of the recursive descent passes through
// parseStmt, parseAssign or parseUnary, so the one counter bounds the
// parser's stack — and with it the nesting the recursive walks over the
// finished tree (markAndWrapRValues, cast.Node.Finalize, cast.Walk,
// paragraph's edge builders) have to follow. Source arrives over HTTP:
// without the bound 300 000 nested parentheses, well under the request body
// cap, overflow the goroutine stack, which no recover can catch. The suite's
// kernels peak at 17 open levels across every variant kind (their deepest
// tree is 24 nodes tall), so 256 is a better than 10x margin; it is a
// constant, not an option. Operator chains the parser folds in a loop —
// a+b+c, a,b,c, a[0][1] — are flat source and are not counted.
const maxDepth = 256

// enter opens one nesting level, failing once the budget is spent; the
// caller pairs it with leave.
func (p *parser) enter() error {
	if p.depth++; p.depth > maxDepth {
		return p.errorf("nesting deeper than %d levels", maxDepth)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) atEOF() bool { return p.pos >= len(p.toks) || p.over != nil }

func (p *parser) peek() clex.Token {
	if p.atEOF() {
		return clex.Token{Kind: clex.EOF, Pos: p.end}
	}
	return p.toks[p.pos]
}

func (p *parser) peekAt(delta int) clex.Token {
	if p.pos+delta >= len(p.toks) {
		return clex.Token{Kind: clex.EOF}
	}
	return p.toks[p.pos+delta]
}

func (p *parser) next() clex.Token {
	t := p.peek()
	if !p.atEOF() {
		p.pos++
		p.charge(1, t.Pos)
	}
	return t
}

// charge spends n tokens, consumed at pos, of the length budget.
func (p *parser) charge(n int, pos clex.Pos) {
	if p.left -= n; p.left < 0 && p.over == nil {
		p.over = &Error{Pos: pos, Msg: fmt.Sprintf("source longer than %d tokens", maxTokens)}
	}
}

func (p *parser) errorf(format string, args ...any) error {
	return &Error{Pos: p.peek().Pos, Msg: fmt.Sprintf(format, args...)}
}

// sub returns a parser over toks, a pragma's, in p's scope and at its
// nesting depth; p has charged them to its budget.
func (p *parser) sub(toks []clex.Token, end clex.Pos) *parser {
	return &parser{toks: toks, end: end, scopes: p.scopes, depth: p.depth, left: len(toks)}
}

func (p *parser) expectPunct(s string) (clex.Token, error) {
	t := p.peek()
	if !t.Is(s) {
		return t, p.errorf("expected %q, found %q", s, t.Text)
	}
	return p.next(), nil
}

// --- scopes ---

func (p *parser) pushScope() { p.scopes = append(p.scopes, map[string]*cast.Node{}) }

func (p *parser) popScope() { p.scopes = p.scopes[:len(p.scopes)-1] }

func (p *parser) declare(name string, decl *cast.Node) {
	p.scopes[len(p.scopes)-1][name] = decl
}

func (p *parser) lookup(name string) *cast.Node {
	for i := len(p.scopes) - 1; i >= 0; i-- {
		if d, ok := p.scopes[i][name]; ok {
			return d
		}
	}
	return nil
}

// --- declarations ---

// parseTypeSpec consumes a sequence of type keywords/qualifiers and pointer
// stars, returning the type spelling. It assumes the current token starts a
// type.
func (p *parser) parseTypeSpec() (string, error) {
	var parts []string
	for {
		t := p.peek()
		if t.Kind == clex.Keyword && clex.IsTypeKeyword(t.Text) {
			parts = append(parts, t.Text)
			p.next()
			if t.Text == "struct" {
				name := p.peek()
				if name.Kind != clex.Ident {
					return "", p.errorf("expected struct name, found %q", name.Text)
				}
				parts = append(parts, name.Text)
				p.next()
			}
			continue
		}
		break
	}
	if len(parts) == 0 {
		return "", p.errorf("expected type, found %q", p.peek().Text)
	}
	ty := strings.Join(parts, " ")
	for p.peek().Is("*") {
		ty += " *"
		p.next()
	}
	return ty, nil
}

// startsType reports whether the current token begins a type specifier.
func (p *parser) startsType() bool {
	t := p.peek()
	return t.Kind == clex.Keyword && clex.IsTypeKeyword(t.Text)
}

// parseExternalDecl parses a function definition or a file-scope variable
// declaration.
func (p *parser) parseExternalDecl() (*cast.Node, error) {
	ty, err := p.parseTypeSpec()
	if err != nil {
		return nil, err
	}
	nameTok := p.peek()
	if nameTok.Kind != clex.Ident {
		return nil, p.errorf("expected identifier after type %q, found %q", ty, nameTok.Text)
	}
	p.next()
	if p.peek().Is("(") {
		return p.parseFunctionRest(ty, nameTok)
	}
	// File-scope variable declaration; reuse the declarator tail logic.
	declStmt, err := p.parseDeclRest(ty, nameTok)
	if err != nil {
		return nil, err
	}
	return declStmt, nil
}

// parseFunctionRest parses "( params ) { body }" after the return type and
// function name have been consumed.
func (p *parser) parseFunctionRest(retTy string, nameTok clex.Token) (*cast.Node, error) {
	fn := cast.NewNode(cast.KindFunctionDecl)
	fn.Name = nameTok.Text
	fn.TypeName = retTy
	fn.Pos = nameTok.Pos
	p.declare(nameTok.Text, fn)
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	p.pushScope()
	defer p.popScope()
	for !p.peek().Is(")") {
		if p.peek().IsKeyword("void") && p.peekAt(1).Is(")") {
			p.next()
			break
		}
		ty, err := p.parseTypeSpec()
		if err != nil {
			return nil, err
		}
		pn := p.peek()
		if pn.Kind != clex.Ident {
			return nil, p.errorf("expected parameter name, found %q", pn.Text)
		}
		p.next()
		// Array parameter suffixes: a[] or a[N][M].
		for p.peek().Is("[") {
			depth := 1
			p.next()
			for depth > 0 {
				t := p.next()
				switch {
				case t.Is("["):
					depth++
				case t.Is("]"):
					depth--
				case t.Kind == clex.EOF:
					return nil, p.errorf("unterminated array parameter")
				}
			}
			ty += " *"
		}
		parm := cast.NewNode(cast.KindParmVarDecl)
		parm.Name = pn.Text
		parm.TypeName = ty
		parm.Pos = pn.Pos
		p.declare(pn.Text, parm)
		fn.AddChild(parm)
		if p.peek().Is(",") {
			p.next()
		}
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if p.peek().Is(";") { // prototype
		p.next()
		return fn, nil
	}
	body, err := p.parseCompound()
	if err != nil {
		return nil, err
	}
	fn.AddChild(body)
	return fn, nil
}

// parseDeclRest parses the declarator list after "type name" has been
// consumed, producing a DeclStmt holding one or more VarDecls.
func (p *parser) parseDeclRest(ty string, first clex.Token) (*cast.Node, error) {
	ds := cast.NewNode(cast.KindDeclStmt)
	ds.Pos = first.Pos
	nameTok := first
	curTy := ty
	for {
		vd := cast.NewNode(cast.KindVarDecl)
		vd.Name = nameTok.Text
		vd.TypeName = curTy
		vd.Pos = nameTok.Pos
		// Array declarator: int a[N] or int a[N][M].
		for p.peek().Is("[") {
			p.next()
			if !p.peek().Is("]") {
				size, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				vd.AddChild(size)
			}
			if _, err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			vd.TypeName += " []"
		}
		if p.peek().Is("=") {
			p.next()
			init, err := p.parseAssign()
			if err != nil {
				return nil, err
			}
			vd.AddChild(init)
		}
		p.declare(vd.Name, vd)
		ds.AddChild(vd)
		if !p.peek().Is(",") {
			break
		}
		p.next()
		// In C the '*' binds to the declarator, not the type: in
		// "double *p, q;" q is a plain double. parseTypeSpec folded the
		// first declarator's stars into ty, so strip them for the rest.
		curTy = strings.TrimRight(strings.ReplaceAll(ty, " *", ""), " ")
		for p.peek().Is("*") {
			curTy += " *"
			p.next()
		}
		nameTok = p.peek()
		if nameTok.Kind != clex.Ident {
			return nil, p.errorf("expected identifier in declaration, found %q", nameTok.Text)
		}
		p.next()
	}
	if _, err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return ds, nil
}

// --- statements ---

func (p *parser) parseCompound() (*cast.Node, error) {
	open, err := p.expectPunct("{")
	if err != nil {
		return nil, err
	}
	p.pushScope()
	defer p.popScope()
	cs := cast.NewNode(cast.KindCompoundStmt)
	cs.Pos = open.Pos
	for !p.peek().Is("}") {
		if p.atEOF() {
			return nil, p.errorf("unterminated compound statement")
		}
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if st != nil {
			cs.AddChild(st)
		}
	}
	p.next() // '}'
	return cs, nil
}

func (p *parser) parseStmt() (*cast.Node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.peek()
	switch {
	case t.Kind == clex.Pragma:
		return p.parsePragmaStmt()
	case t.Is("{"):
		return p.parseCompound()
	case t.Is(";"):
		p.next()
		ns := cast.NewNode(cast.KindNullStmt)
		ns.Pos = t.Pos
		return ns, nil
	case t.IsKeyword("for"):
		return p.parseFor()
	case t.IsKeyword("while"):
		return p.parseWhile()
	case t.IsKeyword("do"):
		return p.parseDo()
	case t.IsKeyword("if"):
		return p.parseIf()
	case t.IsKeyword("return"):
		p.next()
		rs := cast.NewNode(cast.KindReturnStmt)
		rs.Pos = t.Pos
		if !p.peek().Is(";") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			rs.AddChild(e)
		}
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return rs, nil
	case t.IsKeyword("break"):
		p.next()
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		bs := cast.NewNode(cast.KindBreakStmt)
		bs.Pos = t.Pos
		return bs, nil
	case t.IsKeyword("continue"):
		p.next()
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		cs := cast.NewNode(cast.KindContinueStmt)
		cs.Pos = t.Pos
		return cs, nil
	case p.startsType():
		ty, err := p.parseTypeSpec()
		if err != nil {
			return nil, err
		}
		nameTok := p.peek()
		if nameTok.Kind != clex.Ident {
			return nil, p.errorf("expected identifier in declaration, found %q", nameTok.Text)
		}
		p.next()
		return p.parseDeclRest(ty, nameTok)
	default:
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return e, nil
	}
}

// parsePragmaStmt parses a pragma followed by its associated statement. An
// OpenMP pragma wraps the statement in an OMPExecutableDirective node after
// the directive's OMPClause children; any other pragma (#pragma once) is
// dropped and the statement returned bare.
func (p *parser) parsePragmaStmt() (*cast.Node, error) {
	dir, err := p.parseDirective(p.next())
	if err != nil {
		return nil, err
	}
	// A standalone directive (barrier) has no associated statement, and the
	// graph sees no clauses on it.
	if dir != nil && dir.Dir == omp.DirBarrier {
		dir.Children = nil
		return dir, nil
	}
	stmt, err := p.parseStmt()
	if err != nil || dir == nil {
		return stmt, err
	}
	return dir.AddChild(stmt), nil
}

// parseFor builds a ForStmt with the paper's child ordering:
// [init, cond, body, inc]. Omitted clauses become NullStmt placeholders so
// the ForExec/ForNext edge construction always has all four anchors.
func (p *parser) parseFor() (*cast.Node, error) {
	forTok := p.next() // 'for'
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	p.pushScope()
	defer p.popScope()

	fs := cast.NewNode(cast.KindForStmt)
	fs.Pos = forTok.Pos

	null := func() *cast.Node {
		n := cast.NewNode(cast.KindNullStmt)
		n.Pos = p.peek().Pos
		return n
	}

	// Init clause.
	var init *cast.Node
	switch {
	case p.peek().Is(";"):
		init = null()
		p.next()
	case p.startsType():
		ty, err := p.parseTypeSpec()
		if err != nil {
			return nil, err
		}
		nameTok := p.peek()
		if nameTok.Kind != clex.Ident {
			return nil, p.errorf("expected identifier in for-init, found %q", nameTok.Text)
		}
		p.next()
		init, err = p.parseDeclRest(ty, nameTok) // consumes ';'
		if err != nil {
			return nil, err
		}
	default:
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		init = e
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
	}

	// Condition clause.
	var cond *cast.Node
	if p.peek().Is(";") {
		cond = null()
	} else {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		cond = e
	}
	if _, err := p.expectPunct(";"); err != nil {
		return nil, err
	}

	// Increment clause.
	var inc *cast.Node
	if p.peek().Is(")") {
		inc = null()
	} else {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		inc = e
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, err
	}

	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	fs.AddChild(init, cond, body, inc)
	return fs, nil
}

func (p *parser) parseWhile() (*cast.Node, error) {
	wTok := p.next()
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	ws := cast.NewNode(cast.KindWhileStmt)
	ws.Pos = wTok.Pos
	ws.AddChild(cond, body)
	return ws, nil
}

func (p *parser) parseDo() (*cast.Node, error) {
	dTok := p.next()
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if !p.peek().IsKeyword("while") {
		return nil, p.errorf("expected 'while' after do body, found %q", p.peek().Text)
	}
	p.next()
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	ds := cast.NewNode(cast.KindDoStmt)
	ds.Pos = dTok.Pos
	ds.AddChild(body, cond)
	return ds, nil
}

func (p *parser) parseIf() (*cast.Node, error) {
	iTok := p.next()
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	then, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	is := cast.NewNode(cast.KindIfStmt)
	is.Pos = iTok.Pos
	is.AddChild(cond, then)
	if p.peek().IsKeyword("else") {
		p.next()
		els, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		is.AddChild(els)
	}
	return is, nil
}

// --- expressions ---

func (p *parser) parseExpr() (*cast.Node, error) {
	e, err := p.parseAssign()
	if err != nil {
		return nil, err
	}
	// Comma expressions: fold left into BinaryOperator ','.
	for p.peek().Is(",") {
		opTok := p.next()
		rhs, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		bo := cast.NewNode(cast.KindBinaryOperator)
		bo.Op = ","
		bo.Pos = opTok.Pos
		bo.AddChild(e, rhs)
		e = bo
	}
	return e, nil
}

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true,
}

func (p *parser) parseAssign() (*cast.Node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	lhs, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind == clex.Punct && assignOps[t.Text] {
		p.next()
		rhs, err := p.parseAssign() // right associative
		if err != nil {
			return nil, err
		}
		kind := cast.KindBinaryOperator
		if t.Text != "=" {
			kind = cast.KindCompoundAssignOperator
		}
		n := cast.NewNode(kind)
		n.Op = t.Text
		n.Pos = t.Pos
		n.AddChild(lhs, rhs)
		return n, nil
	}
	return lhs, nil
}

func (p *parser) parseTernary() (*cast.Node, error) {
	cond, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if !p.peek().Is("?") {
		return cond, nil
	}
	qTok := p.next()
	then, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	els, err := p.parseAssign()
	if err != nil {
		return nil, err
	}
	n := cast.NewNode(cast.KindConditionalOperator)
	n.Pos = qTok.Pos
	n.AddChild(cond, then, els)
	return n, nil
}

// binPrec returns the precedence of a binary operator (higher binds tighter)
// or -1 when the token is not a binary operator.
func binPrec(t clex.Token) int {
	if t.Kind != clex.Punct {
		return -1
	}
	switch t.Text {
	case "||":
		return 1
	case "&&":
		return 2
	case "|":
		return 3
	case "^":
		return 4
	case "&":
		return 5
	case "==", "!=":
		return 6
	case "<", ">", "<=", ">=":
		return 7
	case "<<", ">>":
		return 8
	case "+", "-":
		return 9
	case "*", "/", "%":
		return 10
	}
	return -1
}

func (p *parser) parseBinary(minPrec int) (*cast.Node, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		prec := binPrec(t)
		if prec < 0 || prec < minPrec {
			return lhs, nil
		}
		p.next()
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		bo := cast.NewNode(cast.KindBinaryOperator)
		bo.Op = t.Text
		bo.Pos = t.Pos
		bo.AddChild(lhs, rhs)
		lhs = bo
	}
}

func (p *parser) parseUnary() (*cast.Node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.peek()
	if t.Kind == clex.Punct {
		switch t.Text {
		case "+", "-", "!", "~", "*", "&", "++", "--":
			p.next()
			operand, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			u := cast.NewNode(cast.KindUnaryOperator)
			u.Op = t.Text
			u.Pos = t.Pos
			if t.Text == "++" || t.Text == "--" {
				u.Op = "pre" + t.Text
			}
			u.AddChild(operand)
			return u, nil
		}
	}
	if t.IsKeyword("sizeof") {
		p.next()
		if p.peek().Is("(") {
			p.next()
			var inner *cast.Node
			if p.startsType() {
				ty, err := p.parseTypeSpec()
				if err != nil {
					return nil, err
				}
				inner = cast.NewNode(cast.KindDeclRefExpr)
				inner.Name = ty
				inner.TypeName = ty
				inner.Pos = t.Pos
			} else {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				inner = e
			}
			if _, err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			u := cast.NewNode(cast.KindUnaryOperator)
			u.Op = "sizeof"
			u.Pos = t.Pos
			u.AddChild(inner)
			return u, nil
		}
		operand, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		u := cast.NewNode(cast.KindUnaryOperator)
		u.Op = "sizeof"
		u.Pos = t.Pos
		u.AddChild(operand)
		return u, nil
	}
	// Cast expression: "(type) expr".
	if t.Is("(") && p.peekAt(1).Kind == clex.Keyword && clex.IsTypeKeyword(p.peekAt(1).Text) {
		p.next()
		ty, err := p.parseTypeSpec()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		operand, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		c := cast.NewNode(cast.KindImplicitCastExpr)
		c.TypeName = ty
		c.Pos = t.Pos
		c.AddChild(operand)
		return c, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (*cast.Node, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		switch {
		case t.Is("("):
			p.next()
			call := cast.NewNode(cast.KindCallExpr)
			call.Pos = t.Pos
			call.Name = e.Name
			call.AddChild(e)
			for !p.peek().Is(")") {
				arg, err := p.parseAssign()
				if err != nil {
					return nil, err
				}
				call.AddChild(arg)
				if p.peek().Is(",") {
					p.next()
				} else {
					break
				}
			}
			if _, err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			e = call
		case t.Is("["):
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			sub := cast.NewNode(cast.KindArraySubscriptExpr)
			sub.Pos = t.Pos
			sub.AddChild(e, idx)
			e = sub
		case t.Is("++"), t.Is("--"):
			p.next()
			u := cast.NewNode(cast.KindUnaryOperator)
			u.Op = "post" + t.Text
			u.Pos = t.Pos
			u.AddChild(e)
			e = u
		default:
			return e, nil
		}
	}
}

func (p *parser) parsePrimary() (*cast.Node, error) {
	t := p.peek()
	switch t.Kind {
	case clex.IntLit:
		p.next()
		n := cast.NewNode(cast.KindIntegerLiteral)
		n.Value = t.Text
		n.Pos = t.Pos
		return n, nil
	case clex.FloatLit:
		p.next()
		n := cast.NewNode(cast.KindFloatingLiteral)
		n.Value = t.Text
		n.Pos = t.Pos
		return n, nil
	case clex.StringLit:
		p.next()
		n := cast.NewNode(cast.KindStringLiteral)
		n.Value = t.Text
		n.Pos = t.Pos
		return n, nil
	case clex.CharLit:
		p.next()
		n := cast.NewNode(cast.KindCharacterLiteral)
		n.Value = t.Text
		n.Pos = t.Pos
		return n, nil
	case clex.Ident:
		p.next()
		n := cast.NewNode(cast.KindDeclRefExpr)
		n.Name = t.Text
		n.Pos = t.Pos
		n.Ref = p.lookup(t.Text)
		return n, nil
	}
	if t.Is("(") {
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		pe := cast.NewNode(cast.KindParenExpr)
		pe.Pos = t.Pos
		pe.AddChild(e)
		return pe, nil
	}
	return nil, p.errorf("unexpected token %q in expression", t.Text)
}

// --- rvalue marking / ImplicitCastExpr insertion ---

// markAndWrapRValues wraps DeclRefExpr and ArraySubscriptExpr nodes used in
// rvalue position in ImplicitCastExpr nodes, matching Clang's
// LValueToRValue casts and the tree shape shown in the paper's Figure 2.
// Lvalue positions — assignment LHS, ++/-- operand, & operand, callee, array
// base — are left bare.
func markAndWrapRValues(root *cast.Node) {
	var rec func(n *cast.Node)
	wrap := func(parent *cast.Node, idx int) {
		child := parent.Children[idx]
		if child.Kind != cast.KindDeclRefExpr && child.Kind != cast.KindArraySubscriptExpr {
			return
		}
		// A reference to a function (e.g. in a call we already skip the
		// callee) or unresolved name still gets wrapped: Clang does the same
		// for rvalue function-pointer uses, and uniformity keeps the graph
		// builder simple.
		ice := cast.NewNode(cast.KindImplicitCastExpr)
		ice.TypeName = "LValueToRValue"
		ice.Pos = child.Pos
		ice.AddChild(child)
		parent.Children[idx] = ice
	}
	rec = func(n *cast.Node) {
		for i, c := range n.Children {
			rec(c)
			switch n.Kind {
			case cast.KindBinaryOperator, cast.KindCompoundAssignOperator:
				// LHS of assignment stays an lvalue; compound assignment
				// both reads and writes, but Clang keeps the LHS bare.
				if i == 0 && (n.Op == "=" || assignOps[n.Op]) {
					continue
				}
				wrap(n, i)
			case cast.KindUnaryOperator:
				switch n.Op {
				case "pre++", "pre--", "post++", "post--", "&", "sizeof":
					continue
				}
				wrap(n, i)
			case cast.KindCallExpr:
				if i == 0 {
					continue // callee
				}
				wrap(n, i)
			case cast.KindArraySubscriptExpr:
				if i == 0 {
					continue // array base stays bare in our subset
				}
				wrap(n, i)
			case cast.KindVarDecl, cast.KindReturnStmt, cast.KindParenExpr,
				cast.KindConditionalOperator, cast.KindIfStmt, cast.KindWhileStmt,
				cast.KindDoStmt, cast.KindInitListExpr:
				wrap(n, i)
			case cast.KindForStmt:
				if i == 1 { // condition is read
					wrap(n, i)
				}
			}
		}
	}
	rec(root)
}
