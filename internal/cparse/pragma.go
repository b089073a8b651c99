package cparse

import (
	"errors"
	"fmt"
	"strings"
	"unicode"

	"paragraph/internal/cast"
	"paragraph/internal/clex"
	"paragraph/internal/omp"
)

// parseDirective parses pragma token t, from clex tokens of its text, into
// an OMPExecutableDirective node with one OMPClause child per clause, or
// returns nil for a pragma that is not OpenMP — a string test on the text.
// As in Clang, clause payloads are expression children, so resident-data
// and transferring variants are different graphs: an IntegerLiteral for
// collapse, num_teams, num_threads, thread_limit and simdlen; an array
// section per map item; a scope-resolved DeclRefExpr per reduction, private
// or shared variable; a StringLiteral per other argument. A map type or
// reduction operator is the clause node's Op.
func (p *parser) parseDirective(t clex.Token) (*cast.Node, error) {
	s := strings.TrimLeftFunc(strings.TrimPrefix(t.Text, "#"), unicode.IsSpace)
	s = strings.TrimLeftFunc(strings.TrimPrefix(s, "pragma"), unicode.IsSpace)
	if !strings.HasPrefix(s, "omp") {
		return nil, nil
	}
	text := s[len("omp"):]
	origin := t.Pos.Offset + len(t.Text) - len(text)
	// at places a position in text in the source; exact for a pragma
	// without line continuations, which the lexer folds into spaces.
	at := func(rel clex.Pos) clex.Pos {
		return clex.Pos{Line: t.Pos.Line, Col: t.Pos.Col + origin - t.Pos.Offset + rel.Offset, Offset: origin + rel.Offset}
	}
	toks, err := clex.Tokenize(text)
	if err != nil {
		pos, msg := t.Pos, err.Error()
		var lerr *clex.Error
		if errors.As(err, &lerr) {
			pos, msg = at(lerr.Pos), lerr.Msg
		}
		return nil, &Error{Pos: pos, Msg: "OpenMP pragma: " + msg}
	}
	if i := skipped(text, toks); i >= 0 {
		return nil, &Error{Pos: at(clex.Pos{Offset: i}), Msg: "OpenMP pragma: unexpected '#'"}
	}
	if p.charge(len(toks), t.Pos); p.over != nil {
		return nil, p.over
	}
	for i := range toks {
		toks[i].Pos = at(toks[i].Pos)
	}
	pp := &pragma{parser: p.sub(toks, at(clex.Pos{Offset: len(text)})), text: text, origin: origin}
	return pp.directive(t.Pos)
}

// skipped returns where in text a '#' starts that clex skipped to the end
// of the line as a preprocessor directive, or -1. Only comments and blanks
// may follow the last token.
func skipped(text string, toks []clex.Token) int {
	i := 0
	if len(toks) > 0 {
		last := toks[len(toks)-1]
		i = last.Pos.Offset + len(last.Text)
	}
	for i < len(text) {
		switch rest := text[i:]; {
		case unicode.IsSpace(rune(rest[0])):
			i++
		case strings.HasPrefix(rest, "//"):
			return -1
		case strings.HasPrefix(rest, "/*"):
			end := strings.Index(rest[2:], "*/")
			if end < 0 {
				return -1
			}
			i += end + 4
		default:
			return i
		}
	}
	return -1
}

// pragma parses the tokens of one OpenMP pragma after "omp". It can slice
// the pragma's text, so an argument keeps its spelling.
type pragma struct {
	*parser
	text   string
	origin int // Pos.Offset of text[0]
}

// rel is the index in text where token t starts.
func (p *pragma) rel(t clex.Token) int { return t.Pos.Offset - p.origin }

// directive parses the directive name, the longest one the leading words
// spell, then its clauses, which commas may separate.
func (p *pragma) directive(pos clex.Pos) (*cast.Node, error) {
	if p.atEOF() {
		return nil, p.errorf("OpenMP pragma names no directive")
	}
	var words []string
	for _, t := range p.toks {
		if t.Kind != clex.Ident && t.Kind != clex.Keyword {
			break
		}
		words = append(words, t.Text)
	}
	kind, n := omp.MatchDirective(words)
	if kind == omp.DirUnknown {
		return nil, p.errorf("unknown OpenMP directive %q", p.peek().Text)
	}
	p.pos = n
	dir := cast.NewNode(cast.KindOMPExecutableDirective)
	dir.Dir, dir.Pos = kind, pos
	// critical may name its section; the graph does not see the name.
	if kind == omp.DirCritical && p.peek().Is("(") && p.peekAt(1).Kind == clex.Ident && p.peekAt(2).Is(")") {
		p.pos += 3
	}
	for !p.atEOF() {
		if p.peek().Is(",") {
			p.next()
			continue
		}
		c, err := p.clause()
		if err != nil {
			return nil, err
		}
		dir.AddChild(c)
	}
	return dir, nil
}

// clause parses one clause into its OMPClause node.
func (p *pragma) clause() (*cast.Node, error) {
	t := p.peek()
	kind, ok := omp.ClauseByName(t.Text)
	if !ok {
		return nil, p.errorf("unknown OpenMP clause %q", t.Text)
	}
	p.next()
	c := cast.NewNode(cast.KindOMPClause)
	c.Name, c.Clause, c.Pos = kind.String(), kind, t.Pos
	if kind == omp.ClauseNowait {
		return c, nil
	}
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	mod, args, err := p.args(kind == omp.ClauseMap || kind == omp.ClauseReduction)
	if err != nil {
		return nil, err
	}
	switch kind {
	case omp.ClauseCollapse, omp.ClauseNumTeams, omp.ClauseNumThreads,
		omp.ClauseThreadLimit, omp.ClauseSIMDLen:
		lit := cast.NewNode(cast.KindIntegerLiteral)
		lit.Pos = t.Pos
		if len(args) > 0 {
			lit.Value = args[0].text
		}
		c.AddChild(lit)
	case omp.ClauseMap:
		m := omp.MapToFrom // the type is optional
		if mod != nil {
			if m, ok = omp.MapTypeByName(*mod); !ok {
				return nil, &Error{t.Pos, fmt.Sprintf("unknown map type %q", *mod)}
			}
		}
		c.Op = m.String()
		for _, a := range args {
			c.AddChild(p.section(a, t.Pos))
		}
	case omp.ClauseReduction, omp.ClausePrivate, omp.ClauseFirstPrivate,
		omp.ClauseLastPrivate, omp.ClauseShared:
		if kind == omp.ClauseReduction {
			if mod == nil {
				return nil, &Error{t.Pos, "reduction clause missing ':'"}
			}
			c.Op = *mod
		}
		for _, a := range args {
			c.AddChild(p.ref(a.text, t.Pos))
		}
	case omp.ClauseSchedule, omp.ClauseDefault, omp.ClauseIf, omp.ClauseDevice:
		for _, a := range args {
			lit := cast.NewNode(cast.KindStringLiteral)
			lit.Value, lit.Pos = a.text, t.Pos
			c.AddChild(lit)
		}
	}
	return c, nil
}

// arg is one comma-separated clause argument: its tokens, where its text
// starts and its spelling there, trimmed.
type arg struct {
	toks []clex.Token
	from int
	text string
}

// args consumes a clause's argument list through its closing ')', which
// must nest with every '(' and '[' inside. It splits the list at top-level
// commas, dropping empty arguments. With modified set, the text before the
// first top-level ':' — a map type or reduction operator — is mod instead.
func (p *pragma) args(modified bool) (mod *string, args []arg, err error) {
	start, from := p.pos, p.rel(p.toks[p.pos-1])+1
	body := from
	end := func(sep clex.Token) { // the argument that sep ends
		if text := strings.TrimSpace(p.text[from:p.rel(sep)]); text != "" {
			args = append(args, arg{p.toks[start : p.pos-1], from, text})
		}
		start, from = p.pos, p.rel(sep)+len(sep.Text)
	}
	var open []string // the unclosed '(' and '[' inside the list
	for {
		if p.atEOF() {
			return nil, nil, p.errorf("unterminated clause: missing ')'")
		}
		t := p.next()
		switch {
		case t.Is("(") || t.Is("["):
			open = append(open, t.Text)
		case t.Is(")") && len(open) == 0:
			end(t)
			return mod, args, nil
		case t.Is(")") || t.Is("]"):
			if len(open) == 0 || (open[len(open)-1] == "(") != t.Is(")") {
				return nil, nil, &Error{t.Pos, fmt.Sprintf("%q does not close the clause's brackets", t.Text)}
			}
			open = open[:len(open)-1]
		case len(open) > 0:
			// Inside brackets: part of the current argument.
		case t.Is(","):
			end(t)
		case t.Is(":") && modified && mod == nil:
			m := strings.TrimSpace(p.text[body:p.rel(t)])
			mod, args = &m, nil
			start, from = p.pos, p.rel(t)+1
		}
	}
}

// section builds the payload of one map list item: a bare name is a
// DeclRefExpr, an array section base[lower:length] an ArraySubscriptExpr
// of the base and the length, which analysis prices the transfer from.
func (p *pragma) section(a arg, pos clex.Pos) *cast.Node {
	open, close := -1, -1
	for i, t := range a.toks {
		switch {
		case t.Is("[") && open < 0:
			open = i
		case t.Is("]"):
			close = i
		}
	}
	if open < 0 {
		return p.ref(a.text, pos)
	}
	base := p.ref(strings.TrimSpace(p.text[a.from:p.rel(a.toks[open])]), pos)
	length := a.toks[open+1 : close]
	for i, t := range length {
		if t.Is(":") {
			length = length[i+1:]
			break
		}
	}
	if len(length) == 0 {
		return base
	}
	sub := cast.NewNode(cast.KindArraySubscriptExpr)
	sub.Pos = pos
	return sub.AddChild(base, p.expr(length))
}

// expr parses toks as one expression in the enclosing scope. Tokens that
// are not one expression keep their spelling, as a DeclRefExpr's name.
func (p *pragma) expr(toks []clex.Token) *cast.Node {
	sub := p.sub(toks, clex.Pos{})
	if e, err := sub.parseExpr(); err == nil && sub.atEOF() {
		return e
	}
	last := toks[len(toks)-1]
	return p.ref(p.text[p.rel(toks[0]):p.rel(last)+len(last.Text)], toks[0].Pos)
}

// ref is a DeclRefExpr to name, resolved in the enclosing scope.
func (p *pragma) ref(name string, pos clex.Pos) *cast.Node {
	r := cast.NewNode(cast.KindDeclRefExpr)
	r.Name, r.Ref, r.Pos = name, p.lookup(name), pos
	return r
}
