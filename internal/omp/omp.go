// Package omp models OpenMP directives and clauses for the C subset used by
// the ParaGraph benchmarks. It parses "#pragma omp ..." lines into a typed
// Directive structure that the AST and variant-generation layers consume.
package omp

import (
	"fmt"
	"strconv"
	"strings"
)

// DirectiveKind identifies an OpenMP executable directive. The set covers
// the combined constructs used by the paper's six kernel variants plus the
// building blocks they compose from.
type DirectiveKind int

// Directive kinds.
const (
	DirUnknown DirectiveKind = iota
	DirParallel
	DirFor
	DirParallelFor
	DirSIMD
	DirTarget
	DirTargetData
	DirTargetEnterData
	DirTargetExitData
	DirTeams
	DirDistribute
	DirTeamsDistribute
	DirDistributeParallelFor
	DirTargetTeams
	DirTargetTeamsDistribute
	DirTargetTeamsDistributeParallelFor
	DirBarrier
	DirCritical
	DirAtomic
	DirSingle
	DirMaster
)

var dirNames = map[DirectiveKind]string{
	DirUnknown:                          "unknown",
	DirParallel:                         "parallel",
	DirFor:                              "for",
	DirParallelFor:                      "parallel for",
	DirSIMD:                             "simd",
	DirTarget:                           "target",
	DirTargetData:                       "target data",
	DirTargetEnterData:                  "target enter data",
	DirTargetExitData:                   "target exit data",
	DirTeams:                            "teams",
	DirDistribute:                       "distribute",
	DirTeamsDistribute:                  "teams distribute",
	DirDistributeParallelFor:            "distribute parallel for",
	DirTargetTeams:                      "target teams",
	DirTargetTeamsDistribute:            "target teams distribute",
	DirTargetTeamsDistributeParallelFor: "target teams distribute parallel for",
	DirBarrier:                          "barrier",
	DirCritical:                         "critical",
	DirAtomic:                           "atomic",
	DirSingle:                           "single",
	DirMaster:                           "master",
}

// String returns the canonical OpenMP spelling of the directive kind.
func (k DirectiveKind) String() string {
	if s, ok := dirNames[k]; ok {
		return s
	}
	return fmt.Sprintf("DirectiveKind(%d)", int(k))
}

// IsTarget reports whether the directive offloads to a device.
func (k DirectiveKind) IsTarget() bool {
	switch k {
	case DirTarget, DirTargetData, DirTargetEnterData, DirTargetExitData,
		DirTargetTeams, DirTargetTeamsDistribute, DirTargetTeamsDistributeParallelFor:
		return true
	}
	return false
}

// IsLoopAssociated reports whether the directive binds to a following loop.
func (k DirectiveKind) IsLoopAssociated() bool {
	switch k {
	case DirFor, DirParallelFor, DirSIMD, DirDistribute, DirTeamsDistribute,
		DirDistributeParallelFor, DirTargetTeamsDistribute,
		DirTargetTeamsDistributeParallelFor:
		return true
	}
	return false
}

// ClauseKind identifies an OpenMP clause.
type ClauseKind int

// Clause kinds.
const (
	ClauseUnknown ClauseKind = iota
	ClauseCollapse
	ClauseNumTeams
	ClauseNumThreads
	ClauseThreadLimit
	ClauseMap
	ClauseReduction
	ClausePrivate
	ClauseFirstPrivate
	ClauseLastPrivate
	ClauseShared
	ClauseSchedule
	ClauseDefault
	ClauseNowait
	ClauseIf
	ClauseDevice
	ClauseSIMDLen
)

var clauseNames = map[ClauseKind]string{
	ClauseUnknown:      "unknown",
	ClauseCollapse:     "collapse",
	ClauseNumTeams:     "num_teams",
	ClauseNumThreads:   "num_threads",
	ClauseThreadLimit:  "thread_limit",
	ClauseMap:          "map",
	ClauseReduction:    "reduction",
	ClausePrivate:      "private",
	ClauseFirstPrivate: "firstprivate",
	ClauseLastPrivate:  "lastprivate",
	ClauseShared:       "shared",
	ClauseSchedule:     "schedule",
	ClauseDefault:      "default",
	ClauseNowait:       "nowait",
	ClauseIf:           "if",
	ClauseDevice:       "device",
	ClauseSIMDLen:      "simdlen",
}

var clauseByName = func() map[string]ClauseKind {
	m := make(map[string]ClauseKind, len(clauseNames))
	for k, n := range clauseNames {
		m[n] = k
	}
	return m
}()

// String returns the OpenMP spelling of the clause kind.
func (k ClauseKind) String() string {
	if s, ok := clauseNames[k]; ok {
		return s
	}
	return fmt.Sprintf("ClauseKind(%d)", int(k))
}

// MapType is the map clause direction (to / from / tofrom / alloc).
type MapType int

// Map clause directions.
const (
	MapToFrom MapType = iota // default when no type is given
	MapTo
	MapFrom
	MapAlloc
)

// String returns the OpenMP spelling of the map direction.
func (m MapType) String() string {
	switch m {
	case MapTo:
		return "to"
	case MapFrom:
		return "from"
	case MapAlloc:
		return "alloc"
	default:
		return "tofrom"
	}
}

// Clause is one parsed clause. Args carries the raw comma-separated
// arguments (variable names or array sections); IntArg carries the parsed
// integer for collapse/num_teams/num_threads/thread_limit/simdlen when the
// argument is a literal, else 0. For map clauses MapDir holds the direction;
// for reduction clauses Reducer holds the operator.
type Clause struct {
	Kind    ClauseKind
	Args    []string
	IntArg  int
	MapDir  MapType
	Reducer string
}

// String renders the clause in OpenMP syntax.
func (c Clause) String() string {
	switch c.Kind {
	case ClauseNowait:
		return "nowait"
	case ClauseMap:
		return fmt.Sprintf("map(%s: %s)", c.MapDir, strings.Join(c.Args, ", "))
	case ClauseReduction:
		return fmt.Sprintf("reduction(%s: %s)", c.Reducer, strings.Join(c.Args, ", "))
	default:
		return fmt.Sprintf("%s(%s)", c.Kind, strings.Join(c.Args, ", "))
	}
}

// Directive is a parsed "#pragma omp" line.
type Directive struct {
	Kind    DirectiveKind
	Clauses []Clause
	Raw     string // original pragma text, for diagnostics
}

// String renders the directive in OpenMP syntax.
func (d *Directive) String() string {
	var sb strings.Builder
	sb.WriteString("#pragma omp ")
	sb.WriteString(d.Kind.String())
	for _, c := range d.Clauses {
		sb.WriteByte(' ')
		sb.WriteString(c.String())
	}
	return sb.String()
}

// Clause returns the first clause of the given kind and whether it exists.
func (d *Directive) Clause(kind ClauseKind) (Clause, bool) {
	for _, c := range d.Clauses {
		if c.Kind == kind {
			return c, true
		}
	}
	return Clause{}, false
}

// CollapseDepth returns the collapse(n) value, or 1 when absent (a loop
// directive always binds at least the immediately following loop).
func (d *Directive) CollapseDepth() int {
	if c, ok := d.Clause(ClauseCollapse); ok && c.IntArg >= 1 {
		return c.IntArg
	}
	return 1
}

// NumTeams returns the num_teams(n) literal value, or 0 when absent.
func (d *Directive) NumTeams() int {
	if c, ok := d.Clause(ClauseNumTeams); ok {
		return c.IntArg
	}
	return 0
}

// NumThreads returns the num_threads(n) literal value, or 0 when absent.
func (d *Directive) NumThreads() int {
	if c, ok := d.Clause(ClauseNumThreads); ok {
		return c.IntArg
	}
	return 0
}

// directivePhrases maps multi-word directive names to kinds, longest match
// first (order matters: "target teams distribute parallel for" must win over
// "target teams").
var directivePhrases = []struct {
	words []string
	kind  DirectiveKind
}{
	{[]string{"target", "teams", "distribute", "parallel", "for"}, DirTargetTeamsDistributeParallelFor},
	{[]string{"target", "teams", "distribute"}, DirTargetTeamsDistribute},
	{[]string{"distribute", "parallel", "for"}, DirDistributeParallelFor},
	{[]string{"target", "enter", "data"}, DirTargetEnterData},
	{[]string{"target", "exit", "data"}, DirTargetExitData},
	{[]string{"teams", "distribute"}, DirTeamsDistribute},
	{[]string{"target", "teams"}, DirTargetTeams},
	{[]string{"target", "data"}, DirTargetData},
	{[]string{"parallel", "for"}, DirParallelFor},
	{[]string{"parallel"}, DirParallel},
	{[]string{"for"}, DirFor},
	{[]string{"simd"}, DirSIMD},
	{[]string{"target"}, DirTarget},
	{[]string{"teams"}, DirTeams},
	{[]string{"distribute"}, DirDistribute},
	{[]string{"barrier"}, DirBarrier},
	{[]string{"critical"}, DirCritical},
	{[]string{"atomic"}, DirAtomic},
	{[]string{"single"}, DirSingle},
	{[]string{"master"}, DirMaster},
}

// ParsePragma parses a "#pragma omp ..." line (leading '#' optional) into a
// Directive. It returns (nil, nil) for pragmas that are not OpenMP pragmas,
// and an error for malformed OpenMP pragmas.
func ParsePragma(text string) (*Directive, error) {
	raw := text
	s := strings.TrimSpace(text)
	s = strings.TrimPrefix(s, "#")
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "pragma") {
		return nil, fmt.Errorf("omp: not a pragma: %q", raw)
	}
	s = strings.TrimSpace(strings.TrimPrefix(s, "pragma"))
	if !strings.HasPrefix(s, "omp") {
		return nil, nil // e.g. #pragma once — not ours
	}
	s = strings.TrimSpace(strings.TrimPrefix(s, "omp"))

	p := &pragmaParser{input: s}
	words := p.peekWords()
	if len(words) == 0 {
		return nil, fmt.Errorf("omp: empty omp pragma: %q", raw)
	}
	var kind DirectiveKind
	for _, ph := range directivePhrases {
		if hasPrefixWords(words, ph.words) {
			kind = ph.kind
			p.consumeWords(len(ph.words))
			break
		}
	}
	if kind == DirUnknown {
		return nil, fmt.Errorf("omp: unknown directive %q in %q", words[0], raw)
	}
	d := &Directive{Kind: kind, Raw: raw}
	for {
		c, done, err := p.parseClause()
		if err != nil {
			return nil, fmt.Errorf("omp: %v in %q", err, raw)
		}
		if done {
			break
		}
		d.Clauses = append(d.Clauses, c)
	}
	return d, nil
}

func hasPrefixWords(have, want []string) bool {
	if len(have) < len(want) {
		return false
	}
	for i, w := range want {
		if have[i] != w {
			return false
		}
	}
	return true
}

// pragmaParser is a tiny scanner over the clause region of a pragma line.
type pragmaParser struct {
	input string
	pos   int
}

func (p *pragmaParser) skipSpace() {
	for p.pos < len(p.input) {
		c := p.input[p.pos]
		if c != ' ' && c != '\t' && c != ',' {
			return
		}
		p.pos++
	}
}

// peekWords splits the remaining input into identifier words, stopping at the
// first parenthesis (clause argument).
func (p *pragmaParser) peekWords() []string {
	rest := p.input[p.pos:]
	if i := strings.IndexByte(rest, '('); i >= 0 {
		rest = rest[:i]
	}
	return strings.Fields(rest)
}

// consumeWords advances past the first n whitespace-separated words.
func (p *pragmaParser) consumeWords(n int) {
	for ; n > 0; n-- {
		p.skipSpace()
		for p.pos < len(p.input) && p.input[p.pos] != ' ' && p.input[p.pos] != '\t' {
			p.pos++
		}
	}
}

func (p *pragmaParser) parseIdent() string {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.input) {
		c := p.input[p.pos]
		if c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
			p.pos++
			continue
		}
		break
	}
	return p.input[start:p.pos]
}

// parseParenBody consumes a balanced "(...)" group and returns its interior.
func (p *pragmaParser) parseParenBody() (string, error) {
	p.skipSpace()
	if p.pos >= len(p.input) || p.input[p.pos] != '(' {
		return "", fmt.Errorf("expected '('")
	}
	depth := 0
	start := p.pos + 1
	for ; p.pos < len(p.input); p.pos++ {
		switch p.input[p.pos] {
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				body := p.input[start:p.pos]
				p.pos++
				return body, nil
			}
		}
	}
	return "", fmt.Errorf("unbalanced parentheses")
}

// parseClause parses one clause; done is true at end of input.
func (p *pragmaParser) parseClause() (Clause, bool, error) {
	p.skipSpace()
	if p.pos >= len(p.input) {
		return Clause{}, true, nil
	}
	name := p.parseIdent()
	if name == "" {
		return Clause{}, false, fmt.Errorf("expected clause name at %q", p.input[p.pos:])
	}
	kind, ok := clauseByName[name]
	if !ok {
		return Clause{}, false, fmt.Errorf("unknown clause %q", name)
	}
	c := Clause{Kind: kind}
	if kind == ClauseNowait {
		return c, false, nil
	}
	body, err := p.parseParenBody()
	if err != nil {
		return Clause{}, false, fmt.Errorf("clause %s: %v", name, err)
	}
	switch kind {
	case ClauseMap:
		dir := MapToFrom
		rest := body
		if i := strings.IndexByte(body, ':'); i >= 0 {
			switch strings.TrimSpace(body[:i]) {
			case "to":
				dir = MapTo
			case "from":
				dir = MapFrom
			case "tofrom":
				dir = MapToFrom
			case "alloc":
				dir = MapAlloc
			default:
				return Clause{}, false, fmt.Errorf("unknown map type %q", strings.TrimSpace(body[:i]))
			}
			rest = body[i+1:]
		}
		c.MapDir = dir
		c.Args = splitArgs(rest)
	case ClauseReduction:
		i := strings.IndexByte(body, ':')
		if i < 0 {
			return Clause{}, false, fmt.Errorf("reduction clause missing ':'")
		}
		c.Reducer = strings.TrimSpace(body[:i])
		c.Args = splitArgs(body[i+1:])
	default:
		c.Args = splitArgs(body)
		if len(c.Args) > 0 {
			if n, err := strconv.Atoi(c.Args[0]); err == nil {
				c.IntArg = n
			}
		}
	}
	return c, false, nil
}

// splitArgs splits a clause body on top-level commas, trimming whitespace.
// Commas inside brackets (array sections like a[0:n]) or parens are kept.
func splitArgs(s string) []string {
	var args []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case ',':
			if depth == 0 {
				if a := strings.TrimSpace(s[start:i]); a != "" {
					args = append(args, a)
				}
				start = i + 1
			}
		}
	}
	if a := strings.TrimSpace(s[start:]); a != "" {
		args = append(args, a)
	}
	return args
}
