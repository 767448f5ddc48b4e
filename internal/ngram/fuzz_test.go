package ngram

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// FuzzPostingBlockCodec throws arbitrary bytes at the posting-block parser:
// parsePostings must either return a clean error or a list that (a) decodes
// to exactly count strictly increasing in-range ids, (b) has a skip table
// consistent with the decoded ids, and (c) is a canonical-encoding fixpoint —
// rebuilding the list from its decoded ids re-encodes to byte-identical
// skips and data. It must never panic or read outside the input slices
// (parsePostings hands the hot path 3-index subslices, so an over-read here
// would be an out-of-bounds crash on a memory-mapped segment in production).
func FuzzPostingBlockCodec(f *testing.F) {
	const docCount = 1 << 20

	// Seed with valid encodings across block-size/length shapes, including
	// partial final blocks, so mutation starts from structurally sound input.
	rng := rand.New(rand.NewSource(3))
	for _, seed := range []struct{ n, bs int }{
		{0, 1}, {1, 1}, {2, 1}, {3, 2}, {7, 4}, {128, 128}, {129, 128}, {300, 16},
	} {
		p := buildPostings(randIDs(rng, seed.n), seed.bs)
		skips, data := encodedPostings(p)
		f.Add(uint16(seed.n), uint8(seed.bs), append(append([]byte(nil), skips...), data...))
	}
	f.Add(uint16(5), uint8(0), []byte{1, 2, 3})
	f.Add(uint16(65535), uint8(255), bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, count uint16, blockSize uint8, blob []byte) {
		bs := int(blockSize)
		if bs == 0 {
			bs = 1
		}
		// Split the blob the way the index codec frames it: the skip table is
		// sized from the declared count, the rest is the delta stream.
		blocks := (int(count) + bs - 1) / bs
		skipsLen := min(blocks*skipEntryBytes, len(blob))
		skips, data := blob[:skipsLen:skipsLen], blob[skipsLen:]

		p, err := parsePostings(uint64(count), bs, skips, data, docCount, nil, 0)
		if err != nil {
			return
		}
		ids := p.appendAll(nil, bs)
		if len(ids) != int(count) {
			t.Fatalf("decoded %d ids, declared %d", len(ids), count)
		}
		for i, id := range ids {
			if id >= docCount {
				t.Fatalf("id %d out of range", id)
			}
			if i > 0 && id <= ids[i-1] {
				t.Fatalf("ids not strictly increasing at %d: %d after %d", i, id, ids[i-1])
			}
			if i%bs == 0 && p.skipFirst(i/bs) != id {
				t.Fatalf("skip entry %d says first=%d, decoded %d", i/bs, p.skipFirst(i/bs), id)
			}
		}
		reSkips, reData := encodedPostings(buildPostings(ids, bs))
		if !bytes.Equal(reSkips, skips) || !bytes.Equal(reData, data) {
			t.Fatalf("accepted encoding is not canonical: re-encode differs")
		}
	})
}

// FuzzIndexFromBytes drives the whole-index zero-copy opener: arbitrary
// bytes must decode-or-error without panicking, and anything accepted must
// survive queries and re-encode losslessly.
func FuzzIndexFromBytes(f *testing.F) {
	seed := func(build func(ix *Index)) []byte {
		ix := NewWithBlock(3, 4)
		build(ix)
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed(func(ix *Index) {}))
	f.Add(seed(func(ix *Index) {
		ix.Add("a", "abcdefgh")
		ix.Add("b", "abcdxxxx")
		ix.Add("c", "zzzzzzzz")
	}))
	full := seed(func(ix *Index) { ix.Add("a", "abcabcabc") })
	f.Add(full[:len(full)-3])
	f.Add([]byte("NGIX"))

	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := FromBytes(data)
		if err != nil {
			return
		}
		got, _ := queryString(ix, "abcdefgh", 0.3)
		for _, c := range got {
			if c.Doc < 0 || c.Doc >= ix.Len() {
				t.Fatalf("candidate doc %d out of range (%d docs)", c.Doc, ix.Len())
			}
		}
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatalf("re-save accepted index: %v", err)
		}
		if _, err := FromBytes(buf.Bytes()); err != nil {
			t.Fatalf("re-saved index does not re-open: %v", err)
		}
	})
}

// denseFuzzCorpus is FuzzQueryGrams's dense seed (block size 7): many
// documents sharing the query's common grams and few sharing its rare ones.
// Its common lists are long against the live set, so phase 2 seeks them on a
// heap-built index, and they pass the dense rule, so a sealed or spliced copy
// counts them from its signature instead (TestSignaturesWhereBuilt holds it
// to that, and to the committed seed-wide-signature giving rows wider than a
// word).
func denseFuzzCorpus() []byte {
	var dense []byte
	for i := 0; i < 400; i++ {
		dense = append(dense, "abcabcabc"...)
		if i%50 == 0 {
			dense = append(dense, "xyzw"...)
		}
		dense = append(dense, '\n')
	}
	return dense
}

// FuzzQueryGrams holds the counting filter to the reference scan on arbitrary
// input: the corpus bytes split into documents at newlines (a fingerprint may
// hold any other byte), a query, a threshold and a block size. One Scratch
// serves the whole corpus, then its first document alone, then the whole
// corpus again, each heap-built, sealed and spliced (the last two with the
// signature of their dense lists), so counters or mask words left behind by
// one index would surface in the next; checkQuery also demands the reference
// Stats and an all-zero Scratch after every query.
func FuzzQueryGrams(f *testing.F) {
	f.Add([]byte("abcdefgh\nabcdxxxx\nzzzzzzzz\nabcdefgh"), []byte("abcdefgh"), uint8(5), uint8(2))
	f.Add([]byte("aaaaaaaa\naaaa\naa\n\naaaaaaaaaaaaaaaa"), []byte("aaaaa"), uint8(10), uint8(1))
	f.Add([]byte("ab\nabc\nabcd"), []byte("ab"), uint8(0), uint8(128))
	f.Add(denseFuzzCorpus(), []byte("abcabcxyzw"), uint8(9), uint8(7))

	f.Fuzz(func(t *testing.T, corpus, query []byte, eta, blockSize uint8) {
		docs := bytes.Split(corpus, []byte{'\n'})
		if len(docs) > 512 || len(query) > 1024 {
			t.Skip("reference scan is quadratic in these")
		}
		whole := NewWithBlock(3, int(blockSize))
		for i, d := range docs {
			whole.Add(fmt.Sprintf("d%d", i), string(d))
		}
		first := NewWithBlock(3, int(blockSize))
		first.Add("d0", string(docs[0]))

		e := float64(eta%21) / 20
		var sc Scratch
		for _, ix := range []*Index{whole, first, whole} {
			checkQuery(t, ix, ix, string(query), e, &sc)
			checkQuery(t, sealedCopy(t, ix), ix, string(query), e, &sc)
			checkQuery(t, splicedCopy(ix), ix, string(query), e, &sc)
		}
	})
}
