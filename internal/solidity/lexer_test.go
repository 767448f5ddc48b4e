package solidity

import (
	"strings"
	"testing"
	"testing/quick"
)

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestTokenizeBasics(t *testing.T) {
	toks := Tokenize(`contract C { uint x = 42; }`)
	want := []Kind{KwContract, IDENT, LBRACE, KwUint, IDENT, ASSIGN, NUMBER, SEMICOLON, RBRACE, EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tok %d: got %s want %s", i, got[i], want[i])
		}
	}
}

func TestTokenizeOperators(t *testing.T) {
	cases := map[string]Kind{
		"=>": ARROW, "==": EQ, "!=": NEQ, "<=": LEQ, ">=": GEQ,
		"&&": AND, "||": OR, "<<": SHL, ">>": SHR, "**": POW,
		"++": INC, "--": DEC, "+=": ADDASSIGN, "-=": SUBASSIGN,
		"<<=": SHLASSIGN, ">>=": SHRASSIGN, "...": PLACEHOLDER,
	}
	for src, want := range cases {
		toks := Tokenize(src)
		if toks[0].Kind != want {
			t.Errorf("%q: got %s want %s", src, toks[0].Kind, want)
		}
		if len(toks) != 2 {
			t.Errorf("%q: got %d tokens, want operator+EOF", src, len(toks))
		}
	}
}

func TestTokenizeComments(t *testing.T) {
	toks := Tokenize("a // line comment\nb /* block */ c")
	got := kinds(toks)
	want := []Kind{IDENT, IDENT, IDENT, EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	if !toks[1].NewlineBefore {
		t.Error("token after line comment should have NewlineBefore")
	}
	if toks[2].NewlineBefore {
		t.Error("token after inline block comment should not have NewlineBefore")
	}
}

func TestTokenizeKeepComments(t *testing.T) {
	lx := NewLexer("// hi\nx")
	lx.KeepComments = true
	t1 := lx.Next()
	if t1.Kind != COMMENT || !strings.Contains(t1.Literal, "hi") {
		t.Fatalf("got %v", t1)
	}
}

func TestTokenizeStrings(t *testing.T) {
	toks := Tokenize(`"hello" 'world' "esc\"d"`)
	if toks[0].Literal != "hello" || toks[1].Literal != "world" || toks[2].Literal != `esc"d` {
		t.Fatalf("got %q %q %q", toks[0].Literal, toks[1].Literal, toks[2].Literal)
	}
}

func TestTokenizeUnterminatedString(t *testing.T) {
	toks := Tokenize("\"unterminated\nnext")
	if toks[0].Kind != STRING || toks[0].Literal != "unterminated" {
		t.Fatalf("got %v", toks[0])
	}
	if toks[1].Kind != IDENT || toks[1].Literal != "next" {
		t.Fatalf("got %v", toks[1])
	}
}

func TestTokenizeHexString(t *testing.T) {
	toks := Tokenize(`hex"deadbeef"`)
	if toks[0].Kind != HEXSTRING || toks[0].Literal != "deadbeef" {
		t.Fatalf("got %v", toks[0])
	}
}

func TestTokenizeNumbers(t *testing.T) {
	cases := []string{"0", "42", "0x2A", "1e18", "1_000_000", "2.5", "1e-3"}
	for _, src := range cases {
		toks := Tokenize(src)
		if toks[0].Kind != NUMBER || toks[0].Literal != src {
			t.Errorf("%q: got %v", src, toks[0])
		}
	}
}

func TestTokenizeNumberDotMember(t *testing.T) {
	// `1.send` must not swallow the dot into the number.
	toks := Tokenize("x[1].send")
	got := kinds(toks)
	want := []Kind{IDENT, LBRACKET, NUMBER, RBRACKET, DOT, IDENT, EOF}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tok %d: got %v want %v (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestTokenizeUnicodeEllipsis(t *testing.T) {
	toks := Tokenize("a … b")
	if toks[1].Kind != PLACEHOLDER {
		t.Fatalf("got %v", toks[1])
	}
}

func TestTokenizePositions(t *testing.T) {
	toks := Tokenize("a\n  b")
	if toks[0].Pos.Line != 1 || toks[0].Pos.Column != 1 {
		t.Errorf("a at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Column != 3 {
		t.Errorf("b at %v", toks[1].Pos)
	}
	if !toks[1].NewlineBefore {
		t.Error("b should have NewlineBefore")
	}
}

func TestLookupKeywords(t *testing.T) {
	for _, kw := range []string{"contract", "function", "mapping", "payable", "returns", "ether"} {
		if Lookup(kw) == IDENT {
			t.Errorf("%q should be a keyword", kw)
		}
	}
	for _, id := range []string{"foo", "this", "now", "msg", "Contract"} {
		if Lookup(id) != IDENT {
			t.Errorf("%q should be an identifier", id)
		}
	}
}

func TestIsElementaryType(t *testing.T) {
	yes := []string{"uint", "uint256", "uint8", "int128", "bytes32", "bytes1", "address", "bool", "string", "bytes"}
	no := []string{"uint257x", "bytesXY", "Contract", "uintx", "u", ""}
	for _, s := range yes {
		if !IsElementaryType(s) {
			t.Errorf("%q should be elementary", s)
		}
	}
	for _, s := range no {
		if IsElementaryType(s) {
			t.Errorf("%q should not be elementary", s)
		}
	}
}

func TestStripComments(t *testing.T) {
	src := "a // c1\nb /* c2\nc2b */ c \"s//not\" d"
	got := StripComments(src)
	if strings.Contains(got, "c1") || strings.Contains(got, "c2") {
		t.Fatalf("comments remain: %q", got)
	}
	if !strings.Contains(got, "s//not") {
		t.Fatalf("string content mangled: %q", got)
	}
	// Newlines inside block comments preserved.
	if strings.Count(got, "\n") != strings.Count(src, "\n") {
		t.Fatalf("newline count changed: %q", got)
	}
}

func TestTokenizeNeverPanicsAndTerminates(t *testing.T) {
	f := func(s string) bool {
		toks := Tokenize(s)
		return len(toks) >= 1 && toks[len(toks)-1].Kind == EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// referenceOperator is the linear scan over the operator table that
// scanOperator's per-byte index replaced: the ellipsis, then the first table
// entry rest starts with. ok is false where neither matches.
func referenceOperator(rest string) (op operator, ok bool) {
	if strings.HasPrefix(rest, "…") {
		return operator{"…", PLACEHOLDER}, true
	}
	for _, op := range operators {
		if strings.HasPrefix(rest, op.text) {
			return op, true
		}
	}
	return operator{}, false
}

// TestOperatorDispatchMatchesLinearScan lexes every operator text, and every
// suffix of random byte strings, with scanOperator and compares the token
// and the bytes consumed against referenceOperator.
func TestOperatorDispatchMatchesLinearScan(t *testing.T) {
	check := func(s string) bool {
		for off := range len(s) {
			want, ok := referenceOperator(s[off:])
			if !ok {
				continue
			}
			l := NewLexer(s)
			l.off = off
			got := l.scanOperator(l.pos())
			if got.Kind != want.kind || got.Literal != want.text || l.off != off+len(want.text) {
				t.Errorf("%q at %d: got %v ending at %d, want %s(%q) ending at %d",
					s, off, got, l.off, want.kind, want.text, off+len(want.text))
				return false
			}
		}
		return true
	}
	for _, op := range operators {
		check(op.text)
		if toks := Tokenize(op.text); len(toks) != 2 || toks[0].Kind != op.kind || toks[0].Literal != op.text {
			t.Errorf("Tokenize(%q) = %v, want one %s token", op.text, toks, op.kind)
		}
	}
	check("…")
	// Strings dense in operator bytes, with the ellipsis whole and cut short.
	pieces := strings.Split("! % & ( ) * + , - . / : ; < = > ? [ ] ^ { | } ~ … \xe2\x80 a 1", " ")
	if err := quick.Check(func(idx []uint8) bool {
		var sb strings.Builder
		for _, k := range idx {
			sb.WriteString(pieces[int(k)%len(pieces)])
		}
		return check(sb.String())
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(b []byte) bool { return check(string(b)) }, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTokenizeOffsetsMonotonic(t *testing.T) {
	f := func(s string) bool {
		toks := Tokenize(s)
		last := -1
		for _, tok := range toks[:len(toks)-1] {
			if tok.Pos.Offset < last {
				return false
			}
			last = tok.Pos.Offset
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
