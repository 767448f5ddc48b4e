package ccd

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzSnapshotLoad: Load on arbitrary bytes must return an error or a valid
// corpus — never panic, never allocate absurdly, never hand back a corpus
// that cannot round-trip. The zero-copy OpenSegmentBytes must accept and
// refuse exactly the same inputs and, when it accepts, open the same config
// and entries: the mapped and heap boots read one format. Seeded with valid
// snapshots plus truncations and header mutations (a version-1 header among
// them: refused by version, kept as a must-error input); the committed
// corpus lives in testdata/fuzz/FuzzSnapshotLoad (seed-trailing-bytes: a
// valid segment followed by two bytes, which both opens must refuse).
func FuzzSnapshotLoad(f *testing.F) {
	seed := func(build func(c *Corpus)) []byte {
		c := NewCorpus(DefaultConfig)
		build(c)
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	empty := seed(func(c *Corpus) {})
	small := seed(func(c *Corpus) {
		c.Add("a", "QxRtYuIoPAbCdEfGh.ZxCvBnMQwErTy")
		c.Add("b", "MmMmMmMmMm.NnNnNnNnNn:PpPpPpPp")
	})
	// Long repetitive fingerprints: an index section smaller than the
	// fingerprint payload.
	embedded := seed(func(c *Corpus) {
		for i := 0; i < 4; i++ {
			fp := bytes.Repeat([]byte("abcabcabcabc"), 200)
			c.Add(string(rune('a'+i)), Fingerprint(fp))
		}
	})
	f.Add(empty)
	f.Add(small)
	f.Add(embedded)
	f.Add(small[:len(small)/2])
	f.Add([]byte("CCDSNAP\x00"))
	f.Add([]byte("CCDSNAP\x00\x01\x03garbage"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		c, err := Load(data)
		seg, segErr := OpenSegmentBytes(bytes.Clone(data), nil)
		if (err == nil) != (segErr == nil) {
			t.Fatalf("heap and zero-copy opens disagree: Load: %v, OpenSegmentBytes: %v", err, segErr)
		}
		if err != nil {
			return
		}
		if c.Config() != seg.Config() || !slices.Equal(c.Entries(), seg.Entries()) {
			t.Fatalf("heap and zero-copy opens differ: %v/%d entries vs %v/%d entries",
				c.Config(), c.Len(), seg.Config(), seg.Len())
		}
		checkAcceptedCorpus(t, c)
	})
}

// FuzzSegmentOpen: the zero-copy segment open must behave exactly like Load
// under hostile input — decode or error, never panic, never read past the
// given bytes (take() hands out 3-index subslices, so an over-read would
// panic here and fail the fuzz run). Accepted segments must be sealed,
// internally consistent, and answer queries. Committed regression seeds live
// in testdata/fuzz/FuzzSegmentOpen.
func FuzzSegmentOpen(f *testing.F) {
	seed := func(build func(c *Corpus)) []byte {
		c := NewCorpus(DefaultConfig)
		build(c)
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	empty := seed(func(c *Corpus) {})
	small := seed(func(c *Corpus) {
		c.Add("a", "QxRtYuIoPAbCdEfGh.ZxCvBnMQwErTy")
		c.Add("b", "MmMmMmMmMm.NnNnNnNnNn:PpPpPpPp")
	})
	big := seed(func(c *Corpus) {
		for i := 0; i < 4; i++ {
			fp := bytes.Repeat([]byte("abcabcabcabc"), 200)
			c.Add(string(rune('a'+i)), Fingerprint(fp))
		}
	})
	f.Add(empty)
	f.Add(small)
	f.Add(big)
	f.Add(small[:len(small)/2])
	f.Add(small[:len(small)-2])
	f.Add([]byte("CCDSNAP\x00"))
	f.Add([]byte("CCDSNAP\x00\x02garbagegarbagegarbage"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		c, err := OpenSegmentBytes(bytes.Clone(data), nil)
		if err != nil {
			return
		}
		checkAcceptedCorpus(t, c)
	})
}

// checkAcceptedCorpus asserts the invariants any corpus accepted from
// untrusted bytes must satisfy: it round-trips through Save/Load unchanged
// and serves queries without panicking.
func checkAcceptedCorpus(t *testing.T, c *Corpus) {
	t.Helper()
	if got := c.Len(); got != len(c.Entries()) {
		t.Fatalf("inconsistent length: Len=%d entries=%d", got, len(c.Entries()))
	}
	for i, e := range c.Entries() {
		if i >= 3 {
			break
		}
		for _, m := range c.MatchTopK(e.FP, 3) {
			if m.Score < 0 || m.Score > 100 {
				t.Fatalf("score %v out of range", m.Score)
			}
		}
	}
	c.MatchTopK(Fingerprint("QxRtYuIoP.AbCdEfGh"), 2)
	// Whatever was accepted must survive a save/load round trip intact.
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatalf("accepted corpus fails to save: %v", err)
	}
	got, err := Load(buf.Bytes())
	if err != nil {
		t.Fatalf("round trip fails to load: %v", err)
	}
	if got.Len() != c.Len() || got.Config() != c.Config() {
		t.Fatalf("round trip drifted: %d/%v vs %d/%v", got.Len(), got.Config(), c.Len(), c.Config())
	}
	a, b := c.Entries(), got.Entries()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d drifted: %+v vs %+v", i, a[i], b[i])
		}
	}
}
