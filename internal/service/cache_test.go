package service

import (
	"strings"
	"testing"

	"repro/internal/ccd"
)

// errText is err's message, or "" for no error.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkUncached fails t unless e's answer for src, fingerprint and error
// text, equals ccd.FingerprintSource's.
func checkUncached(t *testing.T, e *Engine, src string) {
	t.Helper()
	want, wantErr := ccd.FingerprintSource(src)
	got, err := e.Fingerprint(src)
	if got != want || errText(err) != errText(wantErr) {
		t.Errorf("cached answer for %q: %q, error %q\nuncached: %q, error %q", src, got, errText(err), want, errText(wantErr))
	}
}

// TestFingerprintCacheAnswersAsUncached: an engine whose cache holds a
// variant of a source answers for the source exactly as an uncached
// fingerprint does, where the variant differs in what the lexer sees.
func TestFingerprintCacheAnswersAsUncached(t *testing.T) {
	const statements = "function f() public {\n uint x = 1\n x = x + 1\n msg.sender.transfer(x)\n}"
	const broken = "function f( public { x = 1; }"
	for _, tc := range []struct {
		name       string
		warm, test string
	}{
		// The snippet grammar ends statements at newlines, so the one-line
		// form is a different parse with an error.
		{"newlines end statements", statements, strings.ReplaceAll(statements, "\n", " ")},
		{"one line before newlines", strings.ReplaceAll(statements, "\n", " "), statements},
		// A no-break space is whitespace to strings.Fields but ILLEGAL to
		// the lexer.
		{"no-break space", benignSrc, strings.Replace(benignSrc, "total = total", "total = total", 1)},
		// A parse error carries its position, which a header shifts.
		{"error position", broken, "// header\n\n" + broken},
		// "_" followed by a newline is a modifier placeholder; at the very
		// end without one it is an expression naming the variable "_".
		{"trailing newline", "uint _ = 1\n_\n", "uint _ = 1\n_"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(Options{Workers: 1})
			checkUncached(t, e, tc.warm)
			checkUncached(t, e, tc.test)
		})
	}
}

// TestFingerprintCacheSharesLayoutVariants: sources that differ only in
// comments, in whitespace within a line or in CRLF line ends share one
// fingerprint entry, and each is answered as uncached.
func TestFingerprintCacheSharesLayoutVariants(t *testing.T) {
	variants := []string{
		reentrantSrc,
		"/* Victim, copied from a forum */\n" + strings.ReplaceAll(reentrantSrc, "\t", "    "),
		strings.ReplaceAll(reentrantSrc, "public {", "public /* no checks */ {  // TODO"),
		strings.ReplaceAll(reentrantSrc, "\n", "\r\n"),
	}
	e := New(Options{Workers: 1})
	for _, src := range variants {
		checkUncached(t, e, src)
	}
	if st := e.Metrics().FingerprintCache; st.Len != 1 || st.Hits != int64(len(variants)-1) {
		t.Errorf("fingerprint cache: %d entries, %d hits; want 1 entry, %d hits", st.Len, st.Hits, len(variants)-1)
	}
}

// mutateLayout applies one layout mutation, chosen by op, near the byte
// offset at*(len(src)+1)/256: a block or line comment, a longer whitespace run,
// a space turned newline or a newline turned space, CRLF line ends, a
// no-break space for a space, or a stray quote.
func mutateLayout(src string, op, at byte) string {
	p := int(at) * (len(src) + 1) / 256
	next := func(set string) int {
		if i := strings.IndexAny(src[p:], set); i >= 0 {
			return p + i
		}
		return -1
	}
	switch op % 7 {
	case 0:
		return src[:p] + "/* c */" + src[p:]
	case 1:
		return src[:p] + " // c\n" + src[p:]
	case 2:
		if i := next(" \t\n"); i >= 0 {
			return src[:i] + " \t " + src[i:]
		}
	case 3:
		if i := next(" \n"); i >= 0 {
			swap := "\n"
			if src[i] == '\n' {
				swap = " "
			}
			return src[:i] + swap + src[i+1:]
		}
	case 4:
		return strings.ReplaceAll(src, "\n", "\r\n")
	case 5:
		if i := next(" "); i >= 0 {
			return src[:i] + " " + src[i+1:]
		}
	case 6:
		return src[:p] + string(`"'`[at%2]) + src[p:]
	}
	return src
}

// FuzzFingerprintCache: with the cache warmed by other layout variants of
// a source, every variant's cached answer, fingerprint and error text,
// equals its uncached one. Each pair of bytes of ops mutates the variant
// before it (mutateLayout).
func FuzzFingerprintCache(f *testing.F) {
	f.Add(benignSrc, []byte{0, 10, 2, 100, 1, 200})
	f.Add(reentrantSrc, []byte{3, 40, 3, 90, 4, 0, 5, 128})
	f.Add("function f() public {\n uint x = 1\n x = x + 1\n msg.sender.transfer(x)\n}", []byte{3, 60, 3, 130, 3, 200})
	f.Add("function f( public { x = 1; }", []byte{1, 0, 0, 0})
	f.Add("x = \"a // b\"\ny = 'c /* d'", []byte{6, 50, 6, 51, 2, 180})
	f.Add("_\nuint _ = 1\n_", []byte{2, 255, 3, 255, 4, 0})
	f.Add("uint _ = 1\n_", []byte{1, 255})

	f.Fuzz(func(t *testing.T, src string, ops []byte) {
		if len(src) > 1<<12 || len(ops) > 16 {
			t.Skip("oversized input")
		}
		variants := []string{src}
		for i := 0; i+1 < len(ops); i += 2 {
			variants = append(variants, mutateLayout(variants[len(variants)-1], ops[i], ops[i+1]))
		}
		e := New(Options{Workers: 1})
		for range 2 {
			for _, v := range variants {
				checkUncached(t, e, v)
			}
		}
	})
}
