package solidity

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Lexer turns Solidity source text into a token stream. It is tolerant of
// snippet artifacts: unterminated strings and block comments are closed at
// end of input, and unknown runes become ILLEGAL tokens rather than errors.
type Lexer struct {
	src    string
	off    int // current byte offset
	line   int
	col    int
	nlSeen bool // newline seen since the last emitted token

	// KeepComments causes COMMENT tokens to be emitted; by default comments
	// only contribute to NewlineBefore tracking.
	KeepComments bool
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Tokenize scans all of src and returns the token stream terminated by EOF.
func Tokenize(src string) []Token { return tokenize(src, nil) }

// tokenize appends the token stream of src to buf[:0], growing it only when
// it is too small for src.
func tokenize(src string, buf []Token) []Token {
	lx := NewLexer(src)
	// Sources run about one token per four to five bytes (0.23 on the
	// generated Q&A pool, 0.33 at its 99th percentile), so a third of the
	// length fits nearly every source in one allocation.
	toks := buf[:0]
	if want := len(src)/3 + 2; cap(toks) < want {
		toks = make([]Token, 0, want)
	}
	for {
		t := lx.Next()
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks
		}
	}
}

func (l *Lexer) pos() Position { return Position{Offset: l.off, Line: l.line, Column: l.col} }

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peekAt(n int) byte {
	if l.off+n >= len(l.src) {
		return 0
	}
	return l.src[l.off+n]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
		l.nlSeen = true
	} else {
		l.col++
	}
	return c
}

// skipInLine advances over n bytes that hold no newline.
func (l *Lexer) skipInLine(n int) {
	l.off += n
	l.col += n
}

func (l *Lexer) skipSpace() {
	for l.off < len(l.src) {
		c := l.peek()
		if c == ' ' || c == '\t' || c == '\r' || c == '\n' {
			l.advance()
			continue
		}
		return
	}
}

// Next returns the next token.
func (l *Lexer) Next() Token {
	for {
		l.skipSpace()
		if l.off >= len(l.src) {
			return l.emit(Token{Kind: EOF, Pos: l.pos()})
		}
		start := l.pos()
		c := l.peek()

		// Comments.
		if c == '/' && l.peekAt(1) == '/' {
			begin := l.off
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
			if l.KeepComments {
				return l.emit(Token{Kind: COMMENT, Literal: l.src[begin:l.off], Pos: start})
			}
			continue
		}
		if c == '/' && l.peekAt(1) == '*' {
			begin := l.off
			l.advance()
			l.advance()
			for l.off < len(l.src) && !(l.peek() == '*' && l.peekAt(1) == '/') {
				l.advance()
			}
			if l.off < len(l.src) {
				l.advance()
				l.advance()
			}
			if l.KeepComments {
				return l.emit(Token{Kind: COMMENT, Literal: l.src[begin:l.off], Pos: start})
			}
			continue
		}

		switch {
		case isIdentStart(c):
			return l.emit(l.scanIdent(start))
		case c >= '0' && c <= '9':
			return l.emit(l.scanNumber(start))
		case c == '"' || c == '\'':
			return l.emit(l.scanString(start))
		case c == '.' && l.peekAt(1) >= '0' && l.peekAt(1) <= '9':
			return l.emit(l.scanNumber(start))
		default:
			return l.emit(l.scanOperator(start))
		}
	}
}

func (l *Lexer) emit(t Token) Token {
	t.NewlineBefore = l.nlSeen
	l.nlSeen = false
	return t
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func (l *Lexer) scanIdent(start Position) Token {
	begin := l.off
	for l.off < len(l.src) && isIdentPart(l.peek()) {
		l.advance()
	}
	lit := l.src[begin:l.off]
	// hex string literal: hex"..."
	if lit == "hex" && (l.peek() == '"' || l.peek() == '\'') {
		s := l.scanString(start)
		return Token{Kind: HEXSTRING, Literal: s.Literal, Pos: start}
	}
	return Token{Kind: Lookup(lit), Literal: lit, Pos: start}
}

func (l *Lexer) scanNumber(start Position) Token {
	begin := l.off
	if l.peek() == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') {
		l.advance()
		l.advance()
		for l.off < len(l.src) && (isHexDigit(l.peek()) || l.peek() == '_') {
			l.advance()
		}
		return Token{Kind: NUMBER, Literal: l.src[begin:l.off], Pos: start}
	}
	seenDot, seenExp := false, false
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c >= '0' && c <= '9' || c == '_':
			l.advance()
		case c == '.' && !seenDot && !seenExp && l.peekAt(1) >= '0' && l.peekAt(1) <= '9':
			seenDot = true
			l.advance()
		case (c == 'e' || c == 'E') && !seenExp &&
			(l.peekAt(1) >= '0' && l.peekAt(1) <= '9' ||
				(l.peekAt(1) == '-' || l.peekAt(1) == '+') && l.peekAt(2) >= '0' && l.peekAt(2) <= '9'):
			seenExp = true
			l.advance()
			if l.peek() == '-' || l.peek() == '+' {
				l.advance()
			}
		default:
			return Token{Kind: NUMBER, Literal: l.src[begin:l.off], Pos: start}
		}
	}
	return Token{Kind: NUMBER, Literal: l.src[begin:l.off], Pos: start}
}

func isHexDigit(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func (l *Lexer) scanString(start Position) Token {
	quote := l.advance()
	var sb strings.Builder
	for l.off < len(l.src) {
		c := l.peek()
		if c == quote {
			l.advance()
			return Token{Kind: STRING, Literal: sb.String(), Pos: start}
		}
		if c == '\n' {
			// Unterminated string in a snippet: close it at the newline.
			return Token{Kind: STRING, Literal: sb.String(), Pos: start}
		}
		if c == '\\' && l.off+1 < len(l.src) {
			l.advance()
			esc := l.advance()
			switch esc {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			case '0':
				sb.WriteByte(0)
			default:
				sb.WriteByte(esc)
			}
			continue
		}
		sb.WriteByte(l.advance())
	}
	return Token{Kind: STRING, Literal: sb.String(), Pos: start}
}

type operator struct {
	text string
	kind Kind
}

// operator table, longest match first per leading byte.
var operators = []operator{
	{"...", PLACEHOLDER},
	{"<<=", SHLASSIGN}, {">>=", SHRASSIGN}, {"**", POW},
	{"=>", ARROW}, {"==", EQ}, {"!=", NEQ}, {"<=", LEQ}, {">=", GEQ},
	{"&&", AND}, {"||", OR}, {"<<", SHL}, {">>", SHR},
	{"++", INC}, {"--", DEC},
	{"+=", ADDASSIGN}, {"-=", SUBASSIGN}, {"*=", MULASSIGN}, {"/=", DIVASSIGN},
	{"%=", MODASSIGN}, {"&=", ANDASSIGN}, {"|=", ORASSIGN}, {"^=", XORASSIGN},
	{"(", LPAREN}, {")", RPAREN}, {"{", LBRACE}, {"}", RBRACE},
	{"[", LBRACKET}, {"]", RBRACKET}, {";", SEMICOLON}, {",", COMMA},
	{".", DOT}, {"?", QUESTION}, {":", COLON},
	{"=", ASSIGN}, {"+", ADD}, {"-", SUB}, {"*", MUL}, {"/", DIV}, {"%", MOD},
	{"!", NOT}, {"~", BITNOT}, {"&", BITAND}, {"|", BITOR}, {"^", BITXOR},
	{"<", LT}, {">", GT},
}

// operatorsByByte lists the operators by leading byte, each list in table
// order, so the first match in a list is the first match in the table.
var operatorsByByte = func() (idx [256][]operator) {
	for _, op := range operators {
		idx[op.text[0]] = append(idx[op.text[0]], op)
	}
	return idx
}()

const ellipsis = "…"

func (l *Lexer) scanOperator(start Position) Token {
	rest := l.src[l.off:]
	// Unicode ellipsis used as a placeholder in snippets.
	if rest[0] == ellipsis[0] && strings.HasPrefix(rest, ellipsis) {
		l.skipInLine(len(ellipsis))
		return Token{Kind: PLACEHOLDER, Literal: ellipsis, Pos: start}
	}
	for _, op := range operatorsByByte[rest[0]] {
		if strings.HasPrefix(rest, op.text) {
			l.skipInLine(len(op.text))
			return Token{Kind: op.kind, Literal: op.text, Pos: start}
		}
	}
	// Unknown rune: consume it whole so we make progress on UTF-8 input.
	r, size := utf8.DecodeRuneInString(rest)
	for range size {
		l.advance()
	}
	if unicode.IsLetter(r) {
		// Non-ASCII letters occasionally appear in snippet identifiers;
		// treat a run of them as an identifier.
		begin := l.off - size
		for l.off < len(l.src) {
			r2, sz := utf8.DecodeRuneInString(l.src[l.off:])
			if !unicode.IsLetter(r2) && !unicode.IsDigit(r2) && r2 != '_' {
				break
			}
			for range sz {
				l.advance()
			}
		}
		return Token{Kind: IDENT, Literal: l.src[begin:l.off], Pos: start}
	}
	return Token{Kind: ILLEGAL, Literal: string(r), Pos: start}
}

// StripComments removes line and block comments from src, preserving
// newlines inside block comments so that line numbers are unaffected. It is
// used by the clone-detection normalizer (Type-I clone handling).
func StripComments(src string) string {
	var sb strings.Builder
	sb.Grow(len(src))
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < len(src) && src[i+1] == '*':
			i += 2
			for i < len(src) && !(src[i] == '*' && i+1 < len(src) && src[i+1] == '/') {
				if src[i] == '\n' {
					sb.WriteByte('\n')
				}
				i++
			}
			if i < len(src) {
				i += 2
			}
		case c == '"' || c == '\'':
			quote := c
			sb.WriteByte(c)
			i++
			for i < len(src) && src[i] != quote && src[i] != '\n' {
				if src[i] == '\\' && i+1 < len(src) {
					sb.WriteByte(src[i])
					i++
				}
				sb.WriteByte(src[i])
				i++
			}
			if i < len(src) {
				sb.WriteByte(src[i])
				i++
			}
		default:
			sb.WriteByte(c)
			i++
		}
	}
	return sb.String()
}
