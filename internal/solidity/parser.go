package solidity

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Options configures the parser.
type Options struct {
	// Fuzzy enables the snippet grammar: top-level functions/statements,
	// newline statement termination and "..." placeholders. When false the
	// parser approximates the standard Solidity grammar.
	Fuzzy bool
	// MaxErrors aborts parsing after this many recorded errors (0 = 32).
	MaxErrors int
}

// ParseError is a positioned syntax error.
type ParseError struct {
	Pos Position
	Msg string
}

func (e *ParseError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Parser is a recursive-descent parser over a token stream.
type Parser struct {
	toks []Token
	pos  int
	opts Options
	errs []error
	a    *arena // holds every node and list of the tree being built
}

// Parse parses src with the fuzzy snippet grammar.
func Parse(src string) (*SourceUnit, error) {
	return ParseWith(src, Options{Fuzzy: true})
}

// ParseStrict parses src with the standard (non-snippet) grammar.
func ParseStrict(src string) (*SourceUnit, error) {
	return ParseWith(src, Options{Fuzzy: false})
}

// ParseWith parses src with explicit options. The returned SourceUnit is
// always non-nil and contains everything that could be parsed; the error is
// non-nil if any syntax errors were recorded. The tree is built on an arena
// from a pool: a caller done with it may Release it for the next parse.
func ParseWith(src string, opts Options) (*SourceUnit, error) {
	return parseOn(treePool.Get().(*arena), src, opts)
}

// parseOn is ParseWith building the tree on a.
func parseOn(a *arena, src string, opts Options) (*SourceUnit, error) {
	if opts.MaxErrors == 0 {
		opts.MaxErrors = 32
	}
	buf := tokenPool.Get().(*[]Token)
	all := tokenize(src, *buf)
	toks := all
	if opts.Fuzzy {
		toks = filterPlaceholders(toks)
	}
	p := &Parser{toks: toks, opts: opts, a: a}
	unit := p.parseSourceUnit()
	// Clear the tokens so that their literals do not pin src in the pool.
	clear(all)
	if cap(all) <= maxPooledTokens {
		*buf = all[:0]
		tokenPool.Put(buf)
	}
	if len(p.errs) > 0 {
		return unit, errors.Join(p.errs...)
	}
	return unit, nil
}

// maxPooledTokens caps the token buffers tokenPool keeps (56 bytes a token),
// so that one huge source does not pin its buffer.
const maxPooledTokens = 1 << 14

// tokenPool recycles ParseWith's token buffers. The parser copies tokens by
// value, so nothing it returns points into a buffer.
var tokenPool = sync.Pool{New: func() any { return new([]Token) }}

// filterPlaceholders removes "..." tokens in place, propagating their
// newline flag so statement termination still works around elided code.
func filterPlaceholders(toks []Token) []Token {
	out := toks[:0]
	pendingNL := false
	for _, t := range toks {
		if t.Kind == PLACEHOLDER {
			pendingNL = pendingNL || t.NewlineBefore
			// An elision always acts as a statement boundary.
			pendingNL = true
			continue
		}
		if pendingNL {
			t.NewlineBefore = true
			pendingNL = false
		}
		out = append(out, t)
	}
	return out
}

// --- token helpers ---------------------------------------------------------

func (p *Parser) cur() Token     { return p.toks[p.pos] }
func (p *Parser) kind() Kind     { return p.toks[p.pos].Kind }
func (p *Parser) at(k Kind) bool { return p.toks[p.pos].Kind == k }

func (p *Parser) peekKind(n int) Kind {
	if p.pos+n >= len(p.toks) {
		return EOF
	}
	return p.toks[p.pos+n].Kind
}

func (p *Parser) peekTok(n int) Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *Parser) accept(k Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k Kind) Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf("expected %s, found %s", k, p.cur())
	return Token{Kind: k, Pos: p.cur().Pos}
}

func (p *Parser) errorf(format string, args ...any) {
	if len(p.errs) < p.opts.MaxErrors {
		p.errs = append(p.errs, &ParseError{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)})
	}
}

func tokEnd(t Token) Position {
	e := t.Pos
	n := len(t.Literal)
	if n == 0 {
		n = len(t.Kind.String())
	}
	e.Offset += n
	e.Column += n
	return e
}

func (p *Parser) prevEnd() Position {
	if p.pos == 0 {
		return p.cur().Pos
	}
	return tokEnd(p.toks[p.pos-1])
}

func (p *Parser) span(start Position) Span {
	return Span{StartPos: start, EndPos: p.prevEnd()}
}

// terminator consumes a statement terminator: ";" normally, or (fuzzy mode)
// a newline boundary, "}" or EOF.
func (p *Parser) terminator() {
	if p.accept(SEMICOLON) {
		return
	}
	if p.opts.Fuzzy && (p.cur().NewlineBefore || p.at(RBRACE) || p.at(EOF)) {
		return
	}
	p.errorf("expected ';', found %s", p.cur())
	// Recover: skip to next terminator-ish token.
	p.syncStatement()
}

// syncStatement skips tokens until a plausible statement boundary.
func (p *Parser) syncStatement() {
	depth := 0
	for !p.at(EOF) {
		switch p.kind() {
		case SEMICOLON:
			if depth == 0 {
				p.next()
				return
			}
			p.next()
		case LBRACE, LPAREN, LBRACKET:
			depth++
			p.next()
		case RBRACE, RPAREN, RBRACKET:
			if depth == 0 {
				return
			}
			depth--
			p.next()
		default:
			if p.opts.Fuzzy && depth == 0 && p.cur().NewlineBefore {
				return
			}
			p.next()
		}
	}
}

// --- source unit -----------------------------------------------------------

func (p *Parser) parseSourceUnit() *SourceUnit {
	unit := &SourceUnit{arena: p.a}
	start := p.cur().Pos
	for !p.at(EOF) {
		if len(p.errs) >= p.opts.MaxErrors {
			break
		}
		before := p.pos
		switch p.kind() {
		case KwPragma:
			unit.Pragmas = p.a.pragmaList.Append(unit.Pragmas, p.parsePragma())
		case KwImport:
			unit.Imports = p.a.importList.Append(unit.Imports, p.parseImport())
		case KwContract, KwInterface, KwLibrary, KwAbstract:
			unit.Decls = p.a.nodeList.Append(unit.Decls, p.parseContract())
		case SEMICOLON:
			p.next()
		default:
			if p.opts.Fuzzy {
				if d := p.parseSnippetLevelDecl(); d != nil {
					unit.Decls = p.a.nodeList.Append(unit.Decls, d)
				}
			} else {
				// Standard grammar: only directives and contract-like
				// declarations may appear at the top level.
				p.errorf("unexpected token %s at top level", p.cur())
				p.syncStatement()
			}
		}
		if p.pos == before && !p.at(EOF) {
			// Guarantee progress.
			p.next()
		}
	}
	unit.Span = p.span(start)
	return unit
}

// parseSnippetLevelDecl handles the unnested hierarchy: at the global level a
// snippet may contain contract parts (functions, modifiers, events, state
// variables) or bare statements.
func (p *Parser) parseSnippetLevelDecl() Node {
	switch p.kind() {
	case KwFunction, KwConstructor:
		return p.parseFunction()
	case KwModifier:
		return p.parseModifier()
	case KwEvent:
		return p.parseEvent()
	case KwStruct:
		return p.parseStruct()
	case KwEnum:
		return p.parseEnum()
	case KwUsing:
		return p.parseUsing()
	case KwMapping:
		// A mapping declaration at top level is a state variable.
		if sv := p.tryStateVar(); sv != nil {
			return sv
		}
	}
	// receive()/fallback() written without the function keyword.
	if p.at(IDENT) && (p.cur().Literal == "receive" || p.cur().Literal == "fallback") && p.peekKind(1) == LPAREN {
		return p.parseFunction()
	}
	// Try a state-variable declaration: Type name [= expr] ;
	if sv := p.tryStateVar(); sv != nil {
		return sv
	}
	// Otherwise parse a bare statement.
	return p.parseStatement()
}

// tryStateVar attempts `Type [visibility] name [= expr] ;` with backtracking.
// It only succeeds when a visibility keyword or initializer/terminator
// follows, distinguishing state variables from local declarations is not
// needed at snippet level.
func (p *Parser) tryStateVar() Node {
	save := p.pos
	errsave := len(p.errs)
	if !p.startsType() {
		return nil
	}
	t := p.parseType()
	if t == nil {
		p.pos, p.errs = save, p.errs[:errsave]
		return nil
	}
	// visibility / constant keywords
	vis := ""
	constant, immutable := false, false
	for {
		switch p.kind() {
		case KwPublic, KwPrivate, KwInternal:
			vis = p.next().Literal
			continue
		case KwConstant:
			constant = true
			p.next()
			continue
		case KwImmutable:
			immutable = true
			p.next()
			continue
		}
		break
	}
	if !p.at(IDENT) {
		p.pos, p.errs = save, p.errs[:errsave]
		return nil
	}
	name := p.next().Literal
	var val Expr
	if p.accept(ASSIGN) {
		val = p.parseExpr()
	} else if !p.at(SEMICOLON) && !(p.opts.Fuzzy && (p.cur().NewlineBefore || p.at(RBRACE) || p.at(EOF))) {
		p.pos, p.errs = save, p.errs[:errsave]
		return nil
	}
	start := p.toks[save].Pos
	p.terminator()
	return p.a.stateVars.Put(StateVarDecl{Span: p.span(start), Type: t, Name: name,
		Visibility: vis, Constant: constant, Immutable: immutable, Value: val})
}

// --- directives ------------------------------------------------------------

func (p *Parser) parsePragma() *PragmaDirective {
	start := p.expect(KwPragma).Pos
	name := ""
	if p.at(IDENT) {
		name = p.next().Literal
	}
	var parts []string // scratch on the arena
	size := 0
	for !p.at(SEMICOLON) && !p.at(EOF) && !p.cur().NewlineBefore {
		t := p.next()
		part := t.Literal
		switch t.Kind {
		case STRING:
			// Keep string tokens quoted so the rendered pragma re-lexes to
			// the same token sequence.
			part = "\"" + escapeStringLit(t.Literal) + "\""
		case HEXSTRING:
			part = "hex\"" + escapeStringLit(t.Literal) + "\""
		}
		parts = p.a.stringList.Append(parts, part)
		size += len(part) + 1
	}
	p.accept(SEMICOLON)
	// Concatenate, separating only boundaries whose fusion would be
	// swallowed on re-lexing — "//" and "/*" start comments, "..." becomes a
	// filtered elision marker. Every other fusion re-lexes to a stable token
	// run, and version ranges like ">=0.4.22" stay in one piece.
	value := ""
	if len(parts) == 1 {
		value = parts[0]
	} else if len(parts) > 1 {
		var sb strings.Builder
		sb.Grow(size)
		for i, part := range parts {
			if i > 0 && len(parts[i-1]) > 0 && len(part) > 0 {
				prev, next := parts[i-1][len(parts[i-1])-1], part[0]
				if (prev == '.' || prev == '/') && (next == '.' || next == '/' || next == '*') {
					sb.WriteByte(' ')
				}
			}
			sb.WriteString(part)
		}
		value = sb.String()
	}
	return p.a.pragmas.Put(PragmaDirective{Span: p.span(start), Name: name, Value: value})
}

func (p *Parser) parseImport() *ImportDirective {
	start := p.expect(KwImport).Pos
	path := ""
	for !p.at(SEMICOLON) && !p.at(EOF) {
		t := p.next()
		if t.Kind == STRING {
			path = t.Literal
		}
		if p.cur().NewlineBefore && p.opts.Fuzzy {
			break
		}
	}
	p.accept(SEMICOLON)
	return p.a.imports.Put(ImportDirective{Span: p.span(start), Path: path})
}

// --- contracts -------------------------------------------------------------

func (p *Parser) parseContract() *ContractDecl {
	start := p.cur().Pos
	abstract := p.accept(KwAbstract)
	kind := KindContract
	switch p.kind() {
	case KwInterface:
		kind = KindInterface
	case KwLibrary:
		kind = KindLibrary
	}
	p.next() // contract/interface/library
	name := ""
	if p.at(IDENT) {
		name = p.next().Literal
	}
	var bases []string
	if p.accept(KwIs) {
		for {
			if !p.at(IDENT) {
				break
			}
			base := p.next().Literal
			for p.accept(DOT) {
				if p.at(IDENT) {
					base += "." + p.next().Literal
				}
			}
			// Base constructor arguments.
			if p.at(LPAREN) {
				p.skipBalanced(LPAREN, RPAREN)
			}
			bases = p.a.stringList.Append(bases, base)
			if !p.accept(COMMA) {
				break
			}
		}
	}
	c := p.a.contracts.Put(ContractDecl{Kind: kind, Abstract: abstract, Name: name, Bases: bases})
	if p.accept(LBRACE) {
		for !p.at(RBRACE) && !p.at(EOF) {
			if len(p.errs) >= p.opts.MaxErrors {
				break
			}
			before := p.pos
			if part := p.parseContractPart(); part != nil {
				c.Parts = p.a.nodeList.Append(c.Parts, part)
			}
			if p.pos == before && !p.at(RBRACE) && !p.at(EOF) {
				p.next()
			}
		}
		p.expect(RBRACE)
	} else if p.opts.Fuzzy {
		// Snippet cut off after the header: treat the rest of the input as
		// the contract body.
		for !p.at(EOF) && len(p.errs) < p.opts.MaxErrors {
			before := p.pos
			if part := p.parseContractPart(); part != nil {
				c.Parts = p.a.nodeList.Append(c.Parts, part)
			}
			if p.pos == before && !p.at(EOF) {
				p.next()
			}
		}
	} else {
		p.errorf("expected '{' after contract header")
	}
	c.Span = p.span(start)
	return c
}

func (p *Parser) parseContractPart() Node {
	switch p.kind() {
	case SEMICOLON:
		p.next()
		return nil
	case KwFunction, KwConstructor:
		return p.parseFunction()
	case KwModifier:
		return p.parseModifier()
	case KwEvent:
		return p.parseEvent()
	case KwStruct:
		return p.parseStruct()
	case KwEnum:
		return p.parseEnum()
	case KwUsing:
		return p.parseUsing()
	case KwPragma:
		return p.parsePragma()
	}
	if p.at(IDENT) && (p.cur().Literal == "receive" || p.cur().Literal == "fallback") && p.peekKind(1) == LPAREN {
		return p.parseFunction()
	}
	if sv := p.tryStateVar(); sv != nil {
		return sv
	}
	if p.opts.Fuzzy {
		// Snippets sometimes place bare statements directly in a contract.
		return p.parseStatement()
	}
	p.errorf("unexpected token %s in contract body", p.cur())
	p.syncStatement()
	return nil
}

// --- functions & modifiers -------------------------------------------------

func (p *Parser) parseFunction() *FunctionDecl {
	start := p.cur().Pos
	f := p.a.functions.Put(FunctionDecl{})
	switch p.kind() {
	case KwConstructor:
		p.next()
		f.IsConstructor = true
	case KwFunction:
		p.next()
		if p.at(IDENT) {
			f.Name = p.next().Literal
			// Old-style constructors are named after the contract; the CPG
			// frontend resolves that with contract context.
		} else if p.at(KwConstructor) {
			p.next()
			f.IsConstructor = true
		} else {
			f.IsFallback = true
		}
	default: // receive / fallback identifier form
		lit := p.next().Literal
		f.IsReceive = lit == "receive"
		f.IsFallback = lit == "fallback"
	}
	if f.Name == "receive" {
		f.IsReceive, f.Name = true, ""
	}
	if f.Name == "fallback" {
		f.IsFallback, f.Name = true, ""
	}
	if p.at(LPAREN) {
		f.Params = p.parseParamList()
	}
	// Header attributes in any order (fuzzy snippets sometimes put modifiers
	// before the parameter list, cf. Listing 1 of the paper).
	for {
		switch p.kind() {
		case KwPublic, KwPrivate, KwInternal, KwExternal:
			f.Visibility = p.next().Literal
			continue
		case KwPure, KwView, KwPayable, KwConstant:
			f.Mutability = p.next().Literal
			continue
		case KwVirtual:
			f.Virtual = true
			p.next()
			continue
		case KwOverride:
			f.Override = true
			p.next()
			if p.at(LPAREN) {
				p.skipBalanced(LPAREN, RPAREN)
			}
			continue
		case KwReturns:
			p.next()
			if p.at(LPAREN) {
				f.Returns = p.parseParamList()
			}
			continue
		case IDENT:
			// Modifier invocation.
			mi := p.a.modInvokes.Put(ModifierInvocation{Span: Span{StartPos: p.cur().Pos}, Name: p.next().Literal})
			for p.accept(DOT) {
				if p.at(IDENT) {
					mi.Name += "." + p.next().Literal
				}
			}
			if p.at(LPAREN) {
				// Could be the (late) parameter list of a malformed header:
				// `function withdrawAll public onlyOwner ()`. If the parens
				// enclose type-like params and we have none yet, treat them
				// as the parameter list.
				if f.Params == nil && len(f.Modifiers) == 0 && p.peekKind(1) == RPAREN {
					f.Params = p.parseParamList()
					f.Modifiers = p.a.modInvList.Append(f.Modifiers, mi)
					mi.EndPos = p.prevEnd()
					continue
				}
				mi.Args = p.parseCallArgs()
			}
			mi.EndPos = p.prevEnd()
			f.Modifiers = p.a.modInvList.Append(f.Modifiers, mi)
			continue
		}
		break
	}
	if p.at(LBRACE) {
		f.Body = p.parseBlock()
	} else {
		p.accept(SEMICOLON)
	}
	f.Span = p.span(start)
	return f
}

func (p *Parser) parseModifier() *ModifierDecl {
	start := p.expect(KwModifier).Pos
	m := p.a.modifiers.Put(ModifierDecl{})
	if p.at(IDENT) {
		m.Name = p.next().Literal
	}
	if p.at(LPAREN) {
		m.Params = p.parseParamList()
	}
	for p.at(KwVirtual) || p.at(KwOverride) {
		p.next()
	}
	if p.at(LBRACE) {
		m.Body = p.parseBlock()
	} else {
		p.accept(SEMICOLON)
	}
	m.Span = p.span(start)
	return m
}

func (p *Parser) parseEvent() *EventDecl {
	start := p.expect(KwEvent).Pos
	e := p.a.events.Put(EventDecl{})
	if p.at(IDENT) {
		e.Name = p.next().Literal
	}
	if p.at(LPAREN) {
		e.Params = p.parseParamList()
	}
	e.Anonymous = p.accept(KwAnonymous)
	p.terminator()
	e.Span = p.span(start)
	return e
}

func (p *Parser) parseStruct() *StructDecl {
	start := p.expect(KwStruct).Pos
	s := p.a.structs.Put(StructDecl{})
	if p.at(IDENT) {
		s.Name = p.next().Literal
	}
	if p.accept(LBRACE) {
		for !p.at(RBRACE) && !p.at(EOF) {
			fstart := p.cur().Pos
			before := p.pos
			t := p.parseType()
			if t == nil {
				p.syncStatement()
				p.accept(SEMICOLON)
				if p.pos == before && !p.at(RBRACE) && !p.at(EOF) {
					// Recovery stalled on an unbalanced closer (e.g. a stray
					// ')'): force progress rather than loop forever.
					p.next()
				}
				continue
			}
			name := ""
			if p.at(IDENT) {
				name = p.next().Literal
			}
			p.terminator()
			s.Fields = p.a.paramList.Append(s.Fields, p.a.params.Put(Param{Span: p.span(fstart), Type: t, Name: name}))
		}
		p.expect(RBRACE)
	}
	s.Span = p.span(start)
	return s
}

func (p *Parser) parseEnum() *EnumDecl {
	start := p.expect(KwEnum).Pos
	e := p.a.enums.Put(EnumDecl{})
	if p.at(IDENT) {
		e.Name = p.next().Literal
	}
	if p.accept(LBRACE) {
		for p.at(IDENT) {
			e.Members = p.a.stringList.Append(e.Members, p.next().Literal)
			if !p.accept(COMMA) {
				break
			}
		}
		p.expect(RBRACE)
	}
	e.Span = p.span(start)
	return e
}

func (p *Parser) parseUsing() *UsingDecl {
	start := p.expect(KwUsing).Pos
	u := p.a.usings.Put(UsingDecl{})
	if p.at(IDENT) {
		u.Library = p.next().Literal
	}
	if p.at(KwFor) {
		p.next()
		if p.at(MUL) {
			p.next()
		} else {
			u.Target = p.parseType()
		}
	}
	p.terminator()
	u.Span = p.span(start)
	return u
}

// parseParamList parses `( [type [storage] [indexed] [name]] , ... )`.
func (p *Parser) parseParamList() []*Param {
	p.expect(LPAREN)
	var params []*Param
	for !p.at(RPAREN) && !p.at(EOF) {
		start := p.cur().Pos
		t := p.parseType()
		if t == nil {
			// Snippet with a bare name (missing type): default to uint per
			// the paper's normalization rule.
			if p.at(IDENT) {
				name := p.next().Literal
				params = p.a.paramList.Append(params, p.a.params.Put(Param{Span: p.span(start),
					Type: p.a.elementary.Put(ElementaryType{Name: "uint"}), Name: name}))
				if !p.accept(COMMA) {
					break
				}
				continue
			}
			break
		}
		prm := p.a.params.Put(Param{Type: t})
		for {
			switch p.kind() {
			case KwMemory, KwStorage, KwCalldata:
				prm.Storage = p.next().Literal
				continue
			case KwIndexed:
				prm.Indexed = true
				p.next()
				continue
			case KwPayable:
				p.next()
				continue
			}
			break
		}
		if p.at(IDENT) {
			prm.Name = p.next().Literal
		} else if ut, ok := t.(*UserType); ok && p.opts.Fuzzy && !strings.Contains(ut.Name, ".") {
			// Snippet parameter without a type declaration: what parsed as a
			// user type is actually the name; default the type to uint.
			prm.Name = ut.Name
			prm.Type = p.a.elementary.Put(ElementaryType{Span: ut.Span, Name: "uint"})
		}
		prm.Span = p.span(start)
		params = p.a.paramList.Append(params, prm)
		if !p.accept(COMMA) {
			break
		}
	}
	p.expect(RPAREN)
	return params
}

// skipBalanced consumes from an opening token through its matching closer.
func (p *Parser) skipBalanced(open, close Kind) {
	depth := 0
	for !p.at(EOF) {
		switch p.kind() {
		case open:
			depth++
		case close:
			depth--
			if depth == 0 {
				p.next()
				return
			}
		}
		p.next()
	}
}
