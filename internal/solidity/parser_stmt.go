package solidity

import "strings"

// Statement, type and expression parsing.

// parseBlock parses `{ stmt* }`.
func (p *Parser) parseBlock() *Block {
	start := p.cur().Pos
	b := p.a.blocks.Put(Block{})
	p.expect(LBRACE)
	for !p.at(RBRACE) && !p.at(EOF) {
		if len(p.errs) >= p.opts.MaxErrors {
			break
		}
		before := p.pos
		if s := p.parseStatement(); s != nil {
			b.Stmts = p.a.stmtList.Append(b.Stmts, s)
		}
		if p.pos == before && !p.at(RBRACE) && !p.at(EOF) {
			p.next()
		}
	}
	p.expect(RBRACE)
	b.Span = p.span(start)
	return b
}

// parseStatement parses a single statement.
func (p *Parser) parseStatement() Stmt {
	start := p.cur().Pos
	switch p.kind() {
	case LBRACE:
		return p.parseBlock()
	case KwIf:
		return p.parseIf()
	case KwFor:
		return p.parseFor()
	case KwWhile:
		return p.parseWhile()
	case KwDo:
		return p.parseDoWhile()
	case KwReturn:
		p.next()
		var v Expr
		if !p.at(SEMICOLON) && !p.at(RBRACE) && !p.at(EOF) &&
			!(p.opts.Fuzzy && p.cur().NewlineBefore) {
			v = p.parseExpr()
		}
		p.terminator()
		return p.a.returns.Put(ReturnStmt{Span: p.span(start), Value: v})
	case KwBreak:
		p.next()
		p.terminator()
		return p.a.breaks.Put(BreakStmt{Span: p.span(start)})
	case KwContinue:
		p.next()
		p.terminator()
		return p.a.continues.Put(ContinueStmt{Span: p.span(start)})
	case KwThrow:
		p.next()
		p.terminator()
		return p.a.throws.Put(ThrowStmt{Span: p.span(start)})
	case KwEmit:
		p.next()
		e := p.parseExpr()
		p.terminator()
		call, ok := e.(*CallExpr)
		if !ok {
			call = p.a.calls.Put(CallExpr{Span: p.span(start), Callee: e})
		}
		return p.a.emits.Put(EmitStmt{Span: p.span(start), Call: call})
	case KwDelete:
		p.next()
		x := p.parseExpr()
		p.terminator()
		return p.a.deletes.Put(DeleteStmt{Span: p.span(start), X: x})
	case KwAssembly:
		return p.parseAssembly()
	case KwUnchecked:
		p.next()
		var body *Block
		if p.at(LBRACE) {
			body = p.parseBlock()
		}
		return p.a.uncheckeds.Put(UncheckedBlock{Span: p.span(start), Body: body})
	case KwTry:
		return p.parseTry()
	case SEMICOLON:
		p.next()
		return nil
	}
	// `_;` placeholder inside modifiers.
	if p.at(IDENT) && p.cur().Literal == "_" &&
		(p.peekKind(1) == SEMICOLON || p.peekTok(1).NewlineBefore || p.peekKind(1) == RBRACE) {
		p.next()
		p.accept(SEMICOLON)
		return p.a.placeholder.Put(PlaceholderStmt{Span: p.span(start)})
	}
	// Variable declaration vs expression: backtrack on failure.
	if s := p.tryVarDeclStmt(); s != nil {
		return s
	}
	x := p.parseExpr()
	p.terminator()
	if x == nil {
		return nil
	}
	return p.a.exprStmts.Put(ExprStmt{Span: p.span(start), X: x})
}

// tryVarDeclStmt attempts a local variable declaration, including tuple
// destructuring `(uint a, , uint b) = ...` and `var (a, b) = ...`.
func (p *Parser) tryVarDeclStmt() Stmt {
	start := p.cur().Pos
	save := p.pos
	errsave := len(p.errs)
	fail := func() Stmt {
		p.pos, p.errs = save, p.errs[:errsave]
		return nil
	}

	// var (a, b) = expr  /  var x = expr
	if p.at(KwVar) {
		p.next()
		vds := p.a.varStmts.Put(VarDeclStmt{})
		if p.accept(LPAREN) {
			for !p.at(RPAREN) && !p.at(EOF) {
				if p.accept(COMMA) {
					vds.Decls = p.a.varDeclList.Append(vds.Decls, nil)
					continue
				}
				if p.at(IDENT) {
					t := p.next()
					vds.Decls = p.a.varDeclList.Append(vds.Decls, p.a.varDecls.Put(VarDecl{Span: Span{StartPos: t.Pos, EndPos: tokEnd(t)}, Name: t.Literal}))
				}
				if !p.accept(COMMA) {
					break
				}
			}
			p.expect(RPAREN)
		} else if p.at(IDENT) {
			t := p.next()
			vds.Decls = p.a.varDeclList.Append(vds.Decls, p.a.varDecls.Put(VarDecl{Span: Span{StartPos: t.Pos, EndPos: tokEnd(t)}, Name: t.Literal}))
		} else {
			return fail()
		}
		if p.accept(ASSIGN) {
			vds.Value = p.parseExpr()
		}
		p.terminator()
		vds.Span = p.span(start)
		return vds
	}

	// Tuple destructuring declaration: (uint a, uint b) = expr
	if p.at(LPAREN) && p.looksLikeTupleDecl() {
		p.next()
		vds := p.a.varStmts.Put(VarDeclStmt{})
		for !p.at(RPAREN) && !p.at(EOF) {
			if p.at(COMMA) {
				vds.Decls = p.a.varDeclList.Append(vds.Decls, nil)
				p.next()
				continue
			}
			dstart := p.cur().Pos
			t := p.parseType()
			if t == nil {
				return fail()
			}
			storage := ""
			for p.at(KwMemory) || p.at(KwStorage) || p.at(KwCalldata) {
				storage = p.next().Literal
			}
			name := ""
			if p.at(IDENT) {
				name = p.next().Literal
			}
			vds.Decls = p.a.varDeclList.Append(vds.Decls, p.a.varDecls.Put(VarDecl{Span: p.span(dstart), Type: t, Name: name, Storage: storage}))
			if !p.accept(COMMA) {
				break
			}
		}
		p.expect(RPAREN)
		if !p.accept(ASSIGN) {
			return fail()
		}
		vds.Value = p.parseExpr()
		p.terminator()
		vds.Span = p.span(start)
		return vds
	}

	if !p.startsType() {
		return nil
	}
	t := p.parseType()
	if t == nil {
		return fail()
	}
	storage := ""
	for p.at(KwMemory) || p.at(KwStorage) || p.at(KwCalldata) {
		storage = p.next().Literal
	}
	if !p.at(IDENT) {
		return fail()
	}
	name := p.next().Literal
	vd := p.a.varDecls.Put(VarDecl{Span: p.span(start), Type: t, Name: name, Storage: storage})
	vds := p.a.varStmts.Put(VarDeclStmt{Decls: p.a.varDeclList.Append(nil, vd)})
	if p.accept(ASSIGN) {
		vds.Value = p.parseExpr()
	} else if !p.at(SEMICOLON) && !(p.opts.Fuzzy && (p.cur().NewlineBefore || p.at(RBRACE) || p.at(EOF))) {
		return fail()
	}
	p.terminator()
	vds.Span = p.span(start)
	return vds
}

// looksLikeTupleDecl peeks past "(" for `Type ident` which signals a tuple
// declaration rather than a parenthesized expression.
func (p *Parser) looksLikeTupleDecl() bool {
	k1, t1 := p.peekKind(1), p.peekTok(1)
	switch {
	case k1 == KwUint, k1 == KwInt, k1 == KwAddress, k1 == KwBool,
		k1 == KwStringT, k1 == KwBytesT, k1 == KwByte, k1 == KwMapping:
		return true
	case k1 == IDENT && IsElementaryType(t1.Literal):
		return p.peekKind(2) == IDENT
	case k1 == IDENT && p.peekKind(2) == IDENT:
		return true
	case k1 == COMMA:
		return true
	}
	return false
}

// startsType reports whether the current token could begin a type name.
func (p *Parser) startsType() bool {
	switch p.kind() {
	case KwUint, KwInt, KwAddress, KwBool, KwStringT, KwBytesT, KwByte,
		KwFixed, KwUfixed, KwMapping, KwFunction, KwVar:
		return true
	case IDENT:
		return true
	}
	return false
}

// parseType parses a type name with array suffixes. Returns nil (with
// position restored) if the tokens do not form a type.
func (p *Parser) parseType() TypeName {
	start := p.cur().Pos
	var base TypeName
	switch p.kind() {
	case KwUint, KwInt, KwAddress, KwBool, KwStringT, KwBytesT, KwByte, KwFixed, KwUfixed, KwVar:
		name := p.next().Literal
		payable := false
		if name == "address" && p.at(KwPayable) {
			p.next()
			payable = true
		}
		base = p.a.elementary.Put(ElementaryType{Span: p.span(start), Name: name, Payable: payable})
	case KwMapping:
		p.next()
		m := p.a.mappings.Put(MappingType{})
		if p.accept(LPAREN) {
			m.Key = p.parseType()
			// mapping(address owner => uint) named keys (0.8.18+): skip name.
			if p.at(IDENT) {
				p.next()
			}
			p.expect(ARROW)
			m.Value = p.parseType()
			if p.at(IDENT) {
				p.next()
			}
			p.expect(RPAREN)
		}
		m.Span = p.span(start)
		base = m
	case KwFunction:
		p.next()
		ft := p.a.funcTypes.Put(FunctionType{})
		if p.at(LPAREN) {
			ft.Params = p.parseParamList()
		}
		for {
			switch p.kind() {
			case KwInternal, KwExternal, KwPublic, KwPrivate, KwPure, KwView, KwPayable, KwConstant:
				p.next()
				continue
			case KwReturns:
				p.next()
				if p.at(LPAREN) {
					ft.Returns = p.parseParamList()
				}
				continue
			}
			break
		}
		ft.Span = p.span(start)
		base = ft
	case IDENT:
		lit := p.cur().Literal
		if IsElementaryType(lit) {
			p.next()
			base = p.a.elementary.Put(ElementaryType{Span: p.span(start), Name: lit})
		} else {
			name := p.next().Literal
			for p.at(DOT) && p.peekKind(1) == IDENT {
				p.next()
				name += "." + p.next().Literal
			}
			base = p.a.userTypes.Put(UserType{Span: p.span(start), Name: name})
		}
	default:
		return nil
	}
	// Array suffixes.
	for p.at(LBRACKET) {
		p.next()
		var length Expr
		if !p.at(RBRACKET) {
			length = p.parseExpr()
		}
		p.expect(RBRACKET)
		base = p.a.arrays.Put(ArrayType{Span: p.span(start), Elem: base, Length: length})
	}
	return base
}

// --- control flow ----------------------------------------------------------

func (p *Parser) parseIf() Stmt {
	start := p.expect(KwIf).Pos
	var cond Expr
	if p.accept(LPAREN) {
		cond = p.parseExpr()
		p.expect(RPAREN)
	} else {
		cond = p.parseExpr()
	}
	then := p.parseStatement()
	var els Stmt
	if p.accept(KwElse) {
		els = p.parseStatement()
	}
	return p.a.ifs.Put(IfStmt{Span: p.span(start), Cond: cond, Then: then, Else: els})
}

func (p *Parser) parseFor() Stmt {
	start := p.expect(KwFor).Pos
	f := p.a.fors.Put(ForStmt{})
	if p.accept(LPAREN) {
		if !p.accept(SEMICOLON) {
			if s := p.tryVarDeclStmt(); s != nil {
				f.Init = s
			} else {
				x := p.parseExpr()
				f.Init = p.a.exprStmts.Put(ExprStmt{Span: Span{StartPos: start, EndPos: p.prevEnd()}, X: x})
				p.accept(SEMICOLON)
			}
		}
		if !p.at(SEMICOLON) && !p.at(RPAREN) {
			f.Cond = p.parseExpr()
		}
		p.accept(SEMICOLON)
		if !p.at(RPAREN) {
			f.Post = p.parseExpr()
		}
		p.expect(RPAREN)
	}
	f.Body = p.parseStatement()
	f.Span = p.span(start)
	return f
}

func (p *Parser) parseWhile() Stmt {
	start := p.expect(KwWhile).Pos
	var cond Expr
	if p.accept(LPAREN) {
		cond = p.parseExpr()
		p.expect(RPAREN)
	} else {
		cond = p.parseExpr()
	}
	body := p.parseStatement()
	return p.a.whiles.Put(WhileStmt{Span: p.span(start), Cond: cond, Body: body})
}

func (p *Parser) parseDoWhile() Stmt {
	start := p.expect(KwDo).Pos
	body := p.parseStatement()
	var cond Expr
	if p.accept(KwWhile) {
		if p.accept(LPAREN) {
			cond = p.parseExpr()
			p.expect(RPAREN)
		} else {
			cond = p.parseExpr()
		}
	}
	p.accept(SEMICOLON)
	return p.a.doWhiles.Put(DoWhileStmt{Span: p.span(start), Body: body, Cond: cond})
}

func (p *Parser) parseAssembly() Stmt {
	start := p.expect(KwAssembly).Pos
	if p.at(STRING) { // assembly "evmasm" { ... }
		p.next()
	}
	raw := ""
	if p.at(LBRACE) {
		from := p.pos
		p.skipBalanced(LBRACE, RBRACE)
		// Capture the body only — the delimiting braces stay out of Raw, so
		// printing "assembly { <raw> }" and re-parsing reproduces the same
		// statement instead of nesting one block deeper per round trip.
		to := p.pos
		if to > from && p.toks[to-1].Kind == RBRACE {
			to--
		}
		var parts []string
		for i := from + 1; i < to; i++ {
			tok := p.toks[i]
			// Token literals hold decoded values; string-ish tokens must be
			// re-quoted or the raw text re-lexes differently.
			switch tok.Kind {
			case STRING:
				parts = append(parts, "\""+escapeStringLit(tok.Literal)+"\"")
			case HEXSTRING:
				parts = append(parts, "hex\""+escapeStringLit(tok.Literal)+"\"")
			default:
				if tok.Literal != "" {
					parts = append(parts, tok.Literal)
				}
			}
		}
		raw = strings.Join(parts, " ")
	}
	return p.a.assemblies.Put(AssemblyStmt{Span: p.span(start), Raw: raw})
}

func (p *Parser) parseTry() Stmt {
	start := p.expect(KwTry).Pos
	t := p.a.tries.Put(TryStmt{})
	t.Call = p.parseExpr()
	if p.accept(KwReturns) && p.at(LPAREN) {
		t.Returns = p.parseParamList()
	}
	if p.at(LBRACE) {
		t.Body = p.parseBlock()
	}
	for p.accept(KwCatch) {
		c := p.a.catches.Put(CatchClause{Span: Span{StartPos: p.prevEnd()}})
		if p.at(IDENT) {
			c.Ident = p.next().Literal
		}
		if p.at(LPAREN) {
			c.Params = p.parseParamList()
		}
		if p.at(LBRACE) {
			c.Body = p.parseBlock()
		}
		c.EndPos = p.prevEnd()
		t.Catches = p.a.catchList.Append(t.Catches, c)
	}
	t.Span = p.span(start)
	return t
}
