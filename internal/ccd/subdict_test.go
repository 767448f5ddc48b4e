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

// checkDict holds the corpus's sub dictionary to the split it stands for:
// every entry's ids resolve, in order, to exactly appendMatchSubs(entry.FP)
// and to the plain reference split; every id is in range; and no sub is
// stored twice.
func checkDict(t *testing.T, what string, c *Corpus) {
	t.Helper()
	if len(c.dict.end) != len(c.entries) {
		t.Fatalf("%s: ids for %d entries, corpus has %d", what, len(c.dict.end), len(c.entries))
	}
	seen := make(map[string]bool, len(c.dict.subs))
	for _, s := range c.dict.subs {
		if seen[s] {
			t.Fatalf("%s: sub %q stored twice", what, s)
		}
		seen[s] = true
	}
	for i, e := range c.entries {
		ids := c.dict.of(i)
		for _, id := range ids {
			if int(id) >= len(c.dict.subs) {
				t.Fatalf("%s: entry %d: id %d out of range (%d subs)", what, i, id, len(c.dict.subs))
			}
		}
		got := c.dict.appendSubs(nil, ids)
		if want := appendMatchSubs(nil, e.FP); !slices.Equal(got, want) {
			t.Fatalf("%s: entry %d (%q): ids give %q, appendMatchSubs %q", what, i, e.FP, got, want)
		}
		if ref := referenceMatchSubs(e.FP); !slices.Equal(got, ref) {
			t.Fatalf("%s: entry %d (%q): ids give %q, the reference split %q", what, i, e.FP, got, ref)
		}
	}
}

// FuzzSubDict: the sub dictionary a corpus keeps stands for the split
// scoring would otherwise redo per candidate. The input splits at newlines
// into fingerprints of any other bytes — separators in runs, at either end,
// empty fingerprints, all-short subs (the fallback split) and repeated subs
// included — and every way a corpus comes to exist must keep it exact: Add,
// Merge, WithoutIDs, Load and OpenSegmentBytes, and Adds to a corpus that
// one of those completed.
func FuzzSubDict(f *testing.F) {
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
		checkDict(t, "Add", whole)
		merged := Merge(build(fps[:half], 0), build(fps[half:], half))
		checkDict(t, "Merge", merged)

		dead := map[string]struct{}{}
		step := int(every%4) + 1
		for i := 0; i < len(fps); i += step {
			dead[fmt.Sprintf("d%d", i)] = struct{}{}
		}
		kept, _ := merged.WithoutIDs(dead)
		checkDict(t, "WithoutIDs", kept)

		var snap bytes.Buffer
		if err := kept.Save(&snap); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(snap.Bytes())
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		checkDict(t, "Load", loaded)
		seg, err := OpenSegmentBytes(snap.Bytes(), nil)
		if err != nil {
			t.Fatalf("open segment: %v", err)
		}
		checkDict(t, "OpenSegmentBytes", seg)

		// An Add after a corpus is complete interns through a map rebuilt
		// from its dictionary; kept shares merged's subs, so Adds to it
		// must leave merged's dictionary as it was.
		for i, fp := range fps[:half] {
			kept.Add(fmt.Sprintf("a%d", i), Fingerprint(fp))
			loaded.Add(fmt.Sprintf("a%d", i), Fingerprint(fp))
		}
		checkDict(t, "WithoutIDs then Add", kept)
		checkDict(t, "Merge after Adds to its WithoutIDs", merged)
		checkDict(t, "Load then Add", loaded)
	})
}

// TestSubDictBytesBound pins the memory rule on a generated corpus of clone
// families: the dictionary takes 4 bytes per entry and 4 per sub (one id
// each), plus one string header per distinct sub, and holds exactly the
// distinct subs — on a built corpus and on a merge of its halves.
func TestSubDictBytesBound(t *testing.T) {
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
	const header = 16 // a string header on 64-bit
	for _, form := range []*Corpus{c, Merge(half, rest)} {
		subs := 0
		distinct := map[string]bool{}
		for _, e := range form.entries {
			for _, s := range appendMatchSubs(nil, e.FP) {
				subs++
				distinct[s] = true
			}
		}
		if len(form.dict.subs) != len(distinct) {
			t.Fatalf("dictionary holds %d subs, the corpus has %d distinct", len(form.dict.subs), len(distinct))
		}
		got := 4*(len(form.dict.ids)+len(form.dict.end)) + header*len(form.dict.subs)
		if bound := 4*len(form.entries) + 4*subs + header*len(distinct); subs == 0 || got > bound {
			t.Fatalf("%d dictionary bytes for %d entries of %d subs (%d distinct), bound %d", got, len(form.entries), subs, len(distinct), bound)
		}
	}
}
