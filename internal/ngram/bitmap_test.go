package ngram

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// bitmapLists counts the posting lists of ix that carry a bitmap, and fails
// the test on one that breaks the dense rule or the bitmap's size.
func bitmapLists(t *testing.T, ix *Index) int {
	t.Helper()
	n := 0
	for g, p := range ix.postings {
		if p.bits == nil {
			continue
		}
		n++
		if !denseList(p.count, ix.blockSize, ix.docCount) {
			t.Fatalf("gram %q: bitmap on a list of %d ids in %d docs (block %d)", g, p.count, ix.docCount, ix.blockSize)
		}
		if len(p.bits) != (ix.docCount+63)/64 {
			t.Fatalf("gram %q: bitmap of %d words for %d docs", g, len(p.bits), ix.docCount)
		}
	}
	if ix.dense != (n > 0) {
		t.Fatalf("dense flag %v with %d bitmaps", ix.dense, n)
	}
	return n
}

// TestBitmapsWhereBuilt pins which indexes carry bitmaps: every form a
// service queries — opened by FromBytes (mapped), Load (heap), Splice
// (compaction and supersede) and a batch build finished by BuildBitmaps —
// carries one on every list the dense rule admits, and each bit is the list's
// membership. Any Add drops them all, and the query after it still equals
// the reference scan. The dense fuzz seed must reach the rule in its sealed
// and spliced copies, so FuzzQueryGrams runs the bitmap path from its seeds.
func TestBitmapsWhereBuilt(t *testing.T) {
	docs := bytes.Split(denseFuzzCorpus(), []byte{'\n'})
	built := NewWithBlock(3, 7)
	for i, d := range docs {
		built.Add(fmt.Sprintf("d%d", i), string(d))
	}
	if n := bitmapLists(t, built); n != 0 {
		t.Fatalf("Add-built index carries %d bitmaps before BuildBitmaps", n)
	}
	var enc bytes.Buffer
	if err := built.Save(&enc); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(enc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	batch := NewWithBlock(3, 7)
	for i, d := range docs {
		batch.Add(fmt.Sprintf("d%d", i), string(d))
	}
	batch.BuildBitmaps()

	forms := []struct {
		name string
		ix   *Index
	}{{"FromBytes", sealedCopy(t, built)}, {"Load", loaded}, {"Splice", splicedCopy(built)}, {"BuildBitmaps", batch}}
	var sc Scratch
	for _, f := range forms {
		want := 0
		for _, p := range f.ix.postings {
			if denseList(p.count, f.ix.blockSize, f.ix.docCount) {
				want++
			}
		}
		if n := bitmapLists(t, f.ix); n == 0 || n != want {
			t.Fatalf("%s: %d bitmaps, the dense rule admits %d lists", f.name, n, want)
		}
		for g, p := range f.ix.postings {
			if p.bits == nil {
				continue
			}
			ids := p.appendAll(nil, f.ix.blockSize)
			var ones int
			for _, w := range p.bits {
				for ; w != 0; w &= w - 1 {
					ones++
				}
			}
			if ones != len(ids) {
				t.Fatalf("%s: gram %q: %d bits set for %d ids", f.name, g, ones, len(ids))
			}
			for _, d := range ids {
				if p.bits[d>>6]>>(d&63)&1 == 0 {
					t.Fatalf("%s: gram %q: doc %d missing from its bitmap", f.name, g, d)
				}
			}
		}
		checkQuery(t, f.ix, built, "abcabcxyzw", 0.45, &sc)
	}

	// Any Add drops every bitmap; the index then answers by scan and seek.
	for _, ix := range []*Index{loaded, batch} {
		ix.Add("late", "abcabcxyzw")
		if n := bitmapLists(t, ix); n != 0 {
			t.Fatalf("%d bitmaps survive an Add", n)
		}
		checkQuery(t, ix, ix, "abcabcxyzw", 0.45, &sc)
		ix.BuildBitmaps()
		if bitmapLists(t, ix) == 0 {
			t.Fatalf("BuildBitmaps after an Add attached nothing")
		}
		checkQuery(t, ix, ix, "abcabcxyzw", 0.45, &sc)
	}
}

// TestBitmapBytesWithinShadowedLists pins the memory rule on a generated
// corpus, sealed and spliced: the bitmaps of an index take no more bytes than
// the encoded posting lists they shadow, list by list and in total.
func TestBitmapBytesWithinShadowedLists(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	randStr := func(n int, alphabet string) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for _, bs := range []int{1, 16, 128} {
		ix := NewWithBlock(3, bs)
		for d := 0; d < 3000; d++ {
			// A few letters make dense lists, many make sparse ones.
			ix.Add(fmt.Sprint(d), randStr(5+rng.Intn(30), "abcde")+randStr(rng.Intn(30), "abcdefghijklmnopqrstuvwxyz"))
		}
		for _, form := range []*Index{sealedCopy(t, ix), splicedCopy(ix)} {
			var bitmapBytes, shadowed int
			for g, p := range form.postings {
				if p.bits == nil {
					continue
				}
				skips, data := encodedPostings(p)
				if 8*len(p.bits) > len(skips)+len(data) {
					t.Fatalf("block %d: gram %q: %d bitmap bytes shadow a list of %d", form.blockSize, g, 8*len(p.bits), len(skips)+len(data))
				}
				bitmapBytes += 8 * len(p.bits)
				shadowed += len(skips) + len(data)
			}
			if bitmapBytes == 0 || bitmapBytes > shadowed {
				t.Fatalf("block %d: %d bitmap bytes shadow %d list bytes", form.blockSize, bitmapBytes, shadowed)
			}
		}
	}
}
