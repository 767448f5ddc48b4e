package solidity

// Expression parsing via precedence climbing.

// binary operator precedence; higher binds tighter. Assignment handled
// separately (right-associative, lowest).
func binaryPrec(k Kind) int {
	switch k {
	case OR:
		return 1
	case AND:
		return 2
	case EQ, NEQ:
		return 3
	case LT, GT, LEQ, GEQ:
		return 4
	case BITOR:
		return 5
	case BITXOR:
		return 6
	case BITAND:
		return 7
	case SHL, SHR:
		return 8
	case ADD, SUB:
		return 9
	case MUL, DIV, MOD:
		return 10
	case POW:
		return 11
	}
	return 0
}

// parseExpr parses a full expression including assignment and ternary.
func (p *Parser) parseExpr() Expr {
	start := p.cur().Pos
	lhs := p.parseTernary()
	if lhs == nil {
		return nil
	}
	if p.kind().IsAssignOp() {
		op := p.next().Kind
		rhs := p.parseExpr() // right-associative
		return p.a.binaries.Put(BinaryExpr{Span: p.span(start), Op: op, LHS: lhs, RHS: rhs})
	}
	return lhs
}

func (p *Parser) parseTernary() Expr {
	start := p.cur().Pos
	cond := p.parseBinary(1)
	if cond == nil {
		return nil
	}
	if p.accept(QUESTION) {
		then := p.parseExpr()
		p.expect(COLON)
		els := p.parseExpr()
		return p.a.conds.Put(ConditionalExpr{Span: p.span(start), Cond: cond, Then: then, Else: els})
	}
	return cond
}

func (p *Parser) parseBinary(minPrec int) Expr {
	start := p.cur().Pos
	lhs := p.parseUnary()
	if lhs == nil {
		return nil
	}
	for {
		prec := binaryPrec(p.kind())
		if prec < minPrec {
			return lhs
		}
		op := p.next().Kind
		var rhs Expr
		if op == POW { // right-associative
			rhs = p.parseBinary(prec)
		} else {
			rhs = p.parseBinary(prec + 1)
		}
		if rhs == nil {
			return lhs
		}
		lhs = p.a.binaries.Put(BinaryExpr{Span: p.span(start), Op: op, LHS: lhs, RHS: rhs})
	}
}

func (p *Parser) parseUnary() Expr {
	start := p.cur().Pos
	switch p.kind() {
	case NOT, BITNOT, SUB, ADD, INC, DEC:
		op := p.next().Kind
		x := p.parseUnary()
		return p.a.unaries.Put(UnaryExpr{Span: p.span(start), Op: op, Prefix: true, X: x})
	case KwDelete:
		p.next()
		x := p.parseUnary()
		return p.a.unaries.Put(UnaryExpr{Span: p.span(start), Op: KwDelete, Prefix: true, X: x})
	case KwNew:
		p.next()
		t := p.parseType()
		ne := p.a.news.Put(NewExpr{Span: p.span(start), Type: t})
		return p.parsePostfix(ne, start)
	}
	return p.parsePostfixExpr()
}

func (p *Parser) parsePostfixExpr() Expr {
	start := p.cur().Pos
	x := p.parsePrimary()
	if x == nil {
		return nil
	}
	return p.parsePostfix(x, start)
}

// parsePostfix applies call/member/index/inc/dec suffixes to x.
func (p *Parser) parsePostfix(x Expr, start Position) Expr {
	for {
		switch p.kind() {
		case DOT:
			p.next()
			member := ""
			switch {
			case p.at(IDENT):
				member = p.next().Literal
			case p.kind().IsKeyword():
				// e.g. `.delete`, `.address` appear as members.
				member = p.next().Literal
			default:
				return x
			}
			x = p.a.members.Put(MemberAccess{Span: p.span(start), X: x, Member: member})
		case LBRACKET:
			p.next()
			var idx Expr
			if !p.at(RBRACKET) {
				idx = p.parseExpr()
			}
			p.expect(RBRACKET)
			x = p.a.indexes.Put(IndexAccess{Span: p.span(start), X: x, Index: idx})
		case LBRACE:
			// Call options `{value: x, gas: y}` — only valid directly before
			// a call; otherwise the brace belongs to a block, so require a
			// following "(" pattern: we look ahead for `ident :`.
			if !(p.peekKind(1) == IDENT && p.peekKind(2) == COLON) {
				return x
			}
			opts := p.parseCallOptions()
			if p.at(LPAREN) {
				args, names := p.parseCallArgsNamed()
				x = p.a.calls.Put(CallExpr{Span: p.span(start), Callee: x, Args: args, ArgNames: names, Options: opts})
			} else {
				x = p.a.calls.Put(CallExpr{Span: p.span(start), Callee: x, Options: opts})
			}
		case LPAREN:
			args, names := p.parseCallArgsNamed()
			// Legacy `.value(x)` / `.gas(y)` chains are plain calls on member
			// accesses; the CPG frontend interprets them.
			x = p.a.calls.Put(CallExpr{Span: p.span(start), Callee: x, Args: args, ArgNames: names})
		case INC, DEC:
			op := p.next().Kind
			x = p.a.unaries.Put(UnaryExpr{Span: p.span(start), Op: op, Prefix: false, X: x})
		default:
			return x
		}
	}
}

func (p *Parser) parseCallOptions() []*CallOption {
	var opts []*CallOption
	p.expect(LBRACE)
	for !p.at(RBRACE) && !p.at(EOF) {
		start := p.cur().Pos
		key := ""
		if p.at(IDENT) || p.kind().IsKeyword() {
			key = p.next().Literal
		}
		p.expect(COLON)
		val := p.parseExpr()
		opts = p.a.callOptsList.Append(opts, p.a.callOpts.Put(CallOption{Span: p.span(start), Key: key, Value: val}))
		if !p.accept(COMMA) {
			break
		}
	}
	p.expect(RBRACE)
	return opts
}

// parseCallArgs parses `( expr, ... )` discarding argument names.
func (p *Parser) parseCallArgs() []Expr {
	args, _ := p.parseCallArgsNamed()
	return args
}

// parseCallArgsNamed parses `( expr, ... )` or `({name: expr, ...})`.
func (p *Parser) parseCallArgsNamed() (args []Expr, names []string) {
	p.expect(LPAREN)
	// Named arguments: f({a: 1, b: 2})
	if p.at(LBRACE) {
		p.next()
		for !p.at(RBRACE) && !p.at(EOF) {
			name := ""
			if p.at(IDENT) {
				name = p.next().Literal
			}
			p.expect(COLON)
			args = p.a.exprList.Append(args, p.parseExpr())
			names = p.a.stringList.Append(names, name)
			if !p.accept(COMMA) {
				break
			}
		}
		p.expect(RBRACE)
		p.expect(RPAREN)
		return args, names
	}
	for !p.at(RPAREN) && !p.at(EOF) {
		a := p.parseExpr()
		if a == nil {
			break
		}
		args = p.a.exprList.Append(args, a)
		if !p.accept(COMMA) {
			break
		}
	}
	p.expect(RPAREN)
	return args, nil
}

var denominations = map[Kind]bool{
	KwWei: true, KwGwei: true, KwSzabo: true, KwFinney: true, KwEther: true,
	KwSeconds: true, KwMinutes: true, KwHours: true, KwDays: true,
	KwWeeks: true, KwYears: true,
}

func (p *Parser) parsePrimary() Expr {
	start := p.cur().Pos
	switch p.kind() {
	case IDENT:
		t := p.next()
		return p.a.idents.Put(Ident{Span: p.span(start), Name: t.Literal})
	case NUMBER:
		t := p.next()
		unit := ""
		if denominations[p.kind()] {
			unit = p.next().Literal
		}
		return p.a.numbers.Put(NumberLit{Span: p.span(start), Value: t.Literal, Unit: unit})
	case STRING:
		t := p.next()
		return p.a.stringLits.Put(StringLit{Span: p.span(start), Value: t.Literal})
	case HEXSTRING:
		t := p.next()
		return p.a.stringLits.Put(StringLit{Span: p.span(start), Value: t.Literal, Hex: true})
	case KwTrue:
		p.next()
		return p.a.bools.Put(BoolLit{Span: p.span(start), Value: true})
	case KwFalse:
		p.next()
		return p.a.bools.Put(BoolLit{Span: p.span(start), Value: false})
	case KwPayable:
		// payable(addr) cast.
		p.next()
		te := p.a.typeExprs.Put(TypeExpr{Span: p.span(start), Type: p.a.elementary.Put(ElementaryType{Name: "address", Payable: true})})
		return te
	case KwAddress, KwUint, KwInt, KwBool, KwStringT, KwBytesT, KwByte:
		// Elementary type in expression position (casts, abi.decode args).
		name := p.next().Literal
		payable := false
		if name == "address" && p.at(KwPayable) {
			p.next()
			payable = true
		}
		var tn TypeName = p.a.elementary.Put(ElementaryType{Span: p.span(start), Name: name, Payable: payable})
		for p.at(LBRACKET) && p.peekKind(1) == RBRACKET {
			p.next()
			p.next()
			tn = p.a.arrays.Put(ArrayType{Span: p.span(start), Elem: tn})
		}
		return p.a.typeExprs.Put(TypeExpr{Span: p.span(start), Type: tn})
	case KwMapping:
		t := p.parseType()
		return p.a.typeExprs.Put(TypeExpr{Span: p.span(start), Type: t})
	case KwFunction:
		t := p.parseType()
		return p.a.typeExprs.Put(TypeExpr{Span: p.span(start), Type: t})
	case LPAREN:
		p.next()
		tup := p.a.tuples.Put(TupleExpr{})
		for !p.at(RPAREN) && !p.at(EOF) {
			if p.at(COMMA) {
				tup.Elems = p.a.exprList.Append(tup.Elems, nil)
				p.next()
				if p.at(RPAREN) {
					// `(a,)` has a trailing empty slot: record it so slot
					// count equals comma count + 1 and printing round-trips.
					tup.Elems = p.a.exprList.Append(tup.Elems, nil)
				}
				continue
			}
			e := p.parseExpr()
			if e == nil {
				break
			}
			tup.Elems = p.a.exprList.Append(tup.Elems, e)
			if !p.accept(COMMA) {
				break
			}
			if p.at(RPAREN) {
				tup.Elems = p.a.exprList.Append(tup.Elems, nil)
			}
		}
		p.expect(RPAREN)
		tup.Span = p.span(start)
		if len(tup.Elems) == 1 && tup.Elems[0] != nil {
			return tup.Elems[0]
		}
		return tup
	case LBRACKET:
		// Inline array literal [1, 2, 3] — model as a tuple.
		p.next()
		tup := p.a.tuples.Put(TupleExpr{})
		for !p.at(RBRACKET) && !p.at(EOF) {
			e := p.parseExpr()
			if e == nil {
				break
			}
			tup.Elems = p.a.exprList.Append(tup.Elems, e)
			if !p.accept(COMMA) {
				break
			}
		}
		p.expect(RBRACKET)
		tup.Span = p.span(start)
		// Single-element literals collapse like parenthesized exprs do: the
		// tuple modeling is already lossy, and keeping the wrapper would
		// print as `(x)` only to be unwrapped on the next parse.
		if len(tup.Elems) == 1 && tup.Elems[0] != nil {
			return tup.Elems[0]
		}
		return tup
	}
	if p.kind().IsKeyword() {
		// `this` and `now` lex as IDENT already; any remaining keyword in
		// expression position is a syntax error (typically pseudo-code).
		// Record it but make progress by yielding an identifier.
		p.errorf("unexpected keyword %q in expression", p.cur().Literal)
		t := p.next()
		return p.a.idents.Put(Ident{Span: p.span(start), Name: t.Literal})
	}
	p.errorf("unexpected token %s in expression", p.cur())
	return nil
}
