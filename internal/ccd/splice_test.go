package ccd

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ngram"
)

// rebuilt is the reference Merge and WithoutIDs must equal: a fresh corpus
// with every entry Added one by one, at the current default block size.
func rebuilt(cfg Config, entries []Entry) *Corpus {
	c := NewCorpus(cfg)
	for _, e := range entries {
		c.Add(e.ID, e.FP)
	}
	return c
}

// spliceBytes is what two corpora must share to count as equal: the corpus
// snapshot, and the index saved with its doc-id table (ids and per-doc gram
// counts, which the docless snapshot leaves out).
func spliceBytes(t testing.TB, c *Corpus) (snap, index []byte) {
	t.Helper()
	var s, ix bytes.Buffer
	if err := c.Save(&s); err != nil {
		t.Fatal(err)
	}
	if err := c.index.Save(&ix); err != nil {
		t.Fatal(err)
	}
	return s.Bytes(), ix.Bytes()
}

func assertSameCorpus(t testing.TB, what string, got, want *Corpus) {
	t.Helper()
	if got.Mapped() {
		t.Fatalf("%s: spliced corpus is sealed", what)
	}
	gs, gi := spliceBytes(t, got)
	ws, wi := spliceBytes(t, want)
	if !bytes.Equal(gs, ws) {
		t.Fatalf("%s: snapshot differs from a rebuild (%d vs %d bytes)", what, len(gs), len(ws))
	}
	if !bytes.Equal(gi, wi) {
		t.Fatalf("%s: index with doc table differs from a rebuild (%d vs %d bytes)", what, len(gi), len(wi))
	}
}

// spliceCase is one trial: parts built at buildBlock (reopened zero-copy
// when mapped), merged and filtered at mergeBlock, each dead set applied to
// the merge and to every part.
type spliceCase struct {
	cfg        Config
	parts      [][]Entry
	buildBlock int
	mergeBlock int
	mapped     bool
	dead       []map[string]struct{}
}

func checkSpliceEqualsRebuild(t testing.TB, tc spliceCase) {
	t.Helper()
	defer ngram.SetDefaultBlockSize(ngram.DefaultBlockSize())

	ngram.SetDefaultBlockSize(tc.buildBlock)
	parts := make([]*Corpus, len(tc.parts))
	var all []Entry
	for i, entries := range tc.parts {
		parts[i] = rebuilt(tc.cfg, entries)
		all = append(all, entries...)
		if tc.mapped {
			snap, _ := spliceBytes(t, parts[i])
			seg, err := OpenSegmentBytes(snap, nil)
			if err != nil {
				t.Fatalf("part %d: open segment: %v", i, err)
			}
			parts[i] = seg
		}
	}

	ngram.SetDefaultBlockSize(tc.mergeBlock)
	merged := Merge(parts...)
	assertSameCorpus(t, "Merge", merged, rebuilt(tc.cfg, all))

	for _, dead := range tc.dead {
		inputs := append([]*Corpus{merged}, parts...)
		for i, in := range inputs {
			var survivors []Entry
			for _, e := range in.entries {
				if _, ok := dead[e.ID]; !ok {
					survivors = append(survivors, e)
				}
			}
			got, n := in.WithoutIDs(dead)
			if n != in.Len()-len(survivors) {
				t.Fatalf("WithoutIDs on input %d reports %d dropped, want %d", i, n, in.Len()-len(survivors))
			}
			if n == 0 {
				if got != in {
					t.Fatalf("WithoutIDs on input %d dropped nothing but built a new corpus", i)
				}
				continue
			}
			assertSameCorpus(t, fmt.Sprintf("WithoutIDs on input %d (%d dropped)", i, n), got, rebuilt(tc.cfg, survivors))
		}
	}
}

// deadSets returns the none / some / all drop sets over entries.
func deadSets(rng *rand.Rand, entries []Entry) []map[string]struct{} {
	none, some, all := map[string]struct{}{}, map[string]struct{}{}, map[string]struct{}{}
	for _, e := range entries {
		all[e.ID] = struct{}{}
		if rng.Intn(3) == 0 {
			some[e.ID] = struct{}{}
		}
	}
	return []map[string]struct{}{none, some, all}
}

// TestSpliceEqualsRebuild: compaction (Merge) and supersede (WithoutIDs)
// splice posting lists instead of re-indexing, and must land on exactly the
// bytes a one-by-one rebuild of the same entries saves — over empty and
// single-document parts, fingerprints shorter than N and of arbitrary bytes,
// lists ending on, one below and one above a block boundary, zero-copy
// (docless, sealed) parts, and parts built under another block size.
func TestSpliceEqualsRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	blocks := []int{1, 2, 128}
	id := 0
	entry := func(fp string) Entry {
		id++
		return Entry{ID: fmt.Sprintf("e%d", id), FP: Fingerprint(fp)}
	}

	// Block boundaries: one gram ("Qz;") held by b-1, b and b+1 documents,
	// split at every cut into two parts, for each block size b.
	for _, b := range blocks {
		for _, total := range []int{b - 1, b, b + 1} {
			var docs []Entry
			for d := 0; d < total; d++ {
				docs = append(docs, entry(fmt.Sprintf("Qz;%c%c", 'a'+d%26, 'A'+d/26%26)))
			}
			for _, cut := range []int{0, total / 2, max(total-1, 0), total} {
				for _, mapped := range []bool{false, true} {
					checkSpliceEqualsRebuild(t, spliceCase{
						cfg:        DefaultConfig,
						parts:      [][]Entry{docs[:cut], docs[cut:]},
						buildBlock: b,
						mergeBlock: b,
						mapped:     mapped,
						dead:       deadSets(rng, docs),
					})
				}
			}
		}
	}

	// Random trials: 0–4 parts of 0–3 documents (1 in 3 a single document),
	// short, empty, binary and repetitive fingerprints, build and merge block
	// sizes drawn independently.
	fingerprint := func() string {
		switch rng.Intn(5) {
		case 0:
			return strings.Repeat("ab", rng.Intn(3)) // "" and shorter than N
		case 1:
			b := make([]byte, rng.Intn(40))
			rng.Read(b)
			return string(b)
		case 2:
			return strings.Repeat("xyz.", 1+rng.Intn(70)) // long lists of one doc
		default:
			b := make([]byte, rng.Intn(30))
			for i := range b {
				b[i] = "abcdQ;:."[rng.Intn(8)]
			}
			return string(b)
		}
	}
	for trial := 0; trial < 200; trial++ {
		tc := spliceCase{
			cfg:        Config{N: 1 + rng.Intn(4), Eta: 0.5, Epsilon: 70},
			buildBlock: blocks[rng.Intn(len(blocks))],
			mergeBlock: blocks[rng.Intn(len(blocks))],
			mapped:     rng.Intn(2) == 0,
		}
		var all []Entry
		for p, np := 0, 1+rng.Intn(4); p < np; p++ {
			size := rng.Intn(4)
			if rng.Intn(3) == 0 {
				size = 1
			}
			var part []Entry
			for d := 0; d < size; d++ {
				part = append(part, entry(fingerprint()))
			}
			tc.parts = append(tc.parts, part)
			all = append(all, part...)
		}
		tc.dead = deadSets(rng, all)
		checkSpliceEqualsRebuild(t, tc)
	}
	if got := ngram.DefaultBlockSize(); got != 128 {
		t.Fatalf("default block size left at %d", got)
	}
}

// FuzzSpliceEqualsRebuild: any byte string, cut into fingerprints and parts,
// merged and filtered by splicing, must never panic and must equal the
// one-by-one rebuild. The first byte picks N, the block sizes and whether
// parts are reopened zero-copy; the second marks which ids die; the rest is
// parts split on 0x01, fingerprints split on 0x00. Committed seeds live in
// testdata/fuzz/FuzzSpliceEqualsRebuild.
func FuzzSpliceEqualsRebuild(f *testing.F) {
	f.Add([]byte{0x00, 0x00})
	f.Add([]byte("\x15\x0aabcabc\x00ab\x00\x01xyzxyzxyz\x00\x00Q"))
	f.Add([]byte("\x3f\xffaaaa\x00aaaa\x00aaa\x01aaaa\x01\x01aa"))
	f.Add([]byte("\x2a\x55\xff\xfe\xfd\x00\x80\x81\x01\x00\x01abcdefgh.abcdefgh"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 4096 {
			t.Skip("want a 2-byte header and a small body")
		}
		sizes := []int{1, 2, 3, 128}
		mask := data[1]
		tc := spliceCase{
			cfg:        Config{N: 1 + int(data[0]>>5&3), Eta: 0.5, Epsilon: 70},
			buildBlock: sizes[data[0]&3],
			mergeBlock: sizes[data[0]>>2&3],
			mapped:     data[0]&0x10 != 0,
		}
		dead := map[string]struct{}{}
		d := 0
		for _, part := range bytes.Split(data[2:], []byte{1}) {
			var entries []Entry
			for _, fp := range bytes.Split(part, []byte{0}) {
				id := fmt.Sprint(d)
				if mask>>(d%8)&1 != 0 {
					dead[id] = struct{}{}
				}
				entries = append(entries, Entry{ID: id, FP: Fingerprint(fp)})
				d++
			}
			tc.parts = append(tc.parts, entries)
		}
		tc.dead = []map[string]struct{}{dead}
		checkSpliceEqualsRebuild(t, tc)
	})
}
