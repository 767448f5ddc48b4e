package ccd

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// referenceMatchSubs splits f the plain way: every non-empty chunk between
// separators, kept when at least MinSubLen long, or all of them when none is.
func referenceMatchSubs(f Fingerprint) []string {
	chunks := strings.FieldsFunc(string(f), func(r rune) bool { return r == FuncSep || r == ContractSep })
	var long []string
	for _, c := range chunks {
		if len(c) >= MinSubLen {
			long = append(long, c)
		}
	}
	if len(long) == 0 {
		return chunks
	}
	return long
}

// checkSpans holds every entry's stored spans to the split they stand for:
// the subs they slice out are exactly appendMatchSubs(entry.FP), which is
// exactly the plain reference split.
func checkSpans(t *testing.T, what string, c *Corpus) {
	t.Helper()
	if len(c.spans.end) != len(c.entries) {
		t.Fatalf("%s: spans for %d entries, corpus has %d", what, len(c.spans.end), len(c.entries))
	}
	for i, e := range c.entries {
		got := c.entrySubs(nil, i)
		if want := appendMatchSubs(nil, e.FP); !slices.Equal(got, want) {
			t.Fatalf("%s: entry %d (%q): spans give %q, appendMatchSubs %q", what, i, e.FP, got, want)
		}
		if ref := referenceMatchSubs(e.FP); !slices.Equal(got, ref) {
			t.Fatalf("%s: entry %d (%q): spans give %q, the reference split %q", what, i, e.FP, got, ref)
		}
	}
}

// FuzzSubSpans: the sub spans a corpus keeps per entry stand for the split
// scoring would otherwise redo per candidate. The input splits at newlines
// into fingerprints of any other bytes — separators in runs, at either end,
// empty fingerprints and all-short subs (the fallback split) included — and
// every way a corpus comes to exist must keep them exact: Add, Merge,
// WithoutIDs, Load and OpenSegmentBytes.
func FuzzSubSpans(f *testing.F) {
	f.Add([]byte("QxRtYuIoPAbCdEfGh.ZxCvBnMQwErTy\nMmMmMmMmMm.NnNnNnNnNn:PpPpPpPp"), uint8(3))
	f.Add([]byte("ab.cd:ef\n\n.:.\nabcdef\n..abcdefg..\nabc.abcdef:abcde"), uint8(2))
	f.Add([]byte(":abcdefgh\nabcdefgh:\nab:cd\na\n\n"), uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, every uint8) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		fps := bytes.Split(data, []byte{'\n'})
		half := len(fps) / 2
		build := func(fps [][]byte, base int) *Corpus {
			c := NewCorpus(DefaultConfig)
			for i, fp := range fps {
				c.Add(fmt.Sprintf("d%d", base+i), Fingerprint(fp))
			}
			return c
		}
		whole := build(fps, 0)
		checkSpans(t, "Add", whole)
		merged := Merge(build(fps[:half], 0), build(fps[half:], half))
		checkSpans(t, "Merge", merged)

		dead := map[string]struct{}{}
		step := int(every%4) + 1
		for i := 0; i < len(fps); i += step {
			dead[fmt.Sprintf("d%d", i)] = struct{}{}
		}
		kept, _ := merged.WithoutIDs(dead)
		checkSpans(t, "WithoutIDs", kept)

		var snap bytes.Buffer
		if err := kept.Save(&snap); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(snap.Bytes())
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		checkSpans(t, "Load", loaded)
		seg, err := OpenSegmentBytes(snap.Bytes(), nil)
		if err != nil {
			t.Fatalf("open segment: %v", err)
		}
		checkSpans(t, "OpenSegmentBytes", seg)
	})
}

// TestSubSpanBytesBound pins the memory rule on a generated corpus: the spans
// take 4 bytes of index per entry plus 8 per sub (two 32-bit offsets), on a
// built corpus and on a merge of its halves.
func TestSubSpanBytesBound(t *testing.T) {
	fps := syntheticFPs(2000, 91)
	c := NewCorpus(DefaultConfig)
	for i, fp := range fps {
		c.Add(idFor(i), fp)
	}
	half := NewCorpus(DefaultConfig)
	rest := NewCorpus(DefaultConfig)
	for i, fp := range fps {
		if i < len(fps)/2 {
			half.Add(idFor(i), fp)
		} else {
			rest.Add(idFor(i), fp)
		}
	}
	for _, form := range []*Corpus{c, Merge(half, rest)} {
		subs := 0
		for _, e := range form.entries {
			subs += len(appendMatchSubs(nil, e.FP))
		}
		got := 4 * (len(form.spans.at) + len(form.spans.end))
		if bound := 4*len(form.entries) + 8*subs; subs == 0 || got > bound {
			t.Fatalf("%d span bytes for %d entries of %d subs, bound %d", got, len(form.entries), subs, bound)
		}
	}
}
