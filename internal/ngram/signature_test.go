package ngram

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
)

// signatureCols checks ix's signature against its posting lists and returns
// its column count D. Every list the dense rule admits must own one column
// and no other list any; each column must be used once; the rows must be
// ⌈docCount·D/64⌉ words plus the pad word; and bit d·D+k must be set exactly
// when document d is in the list of column k, with nothing set past the last
// row. An index without dense lists has no rows at all.
func signatureCols(t *testing.T, name string, ix *Index) int {
	t.Helper()
	D := ix.sig.cols
	if D == 0 {
		if ix.sig.words != nil {
			t.Fatalf("%s: %d signature words without a column", name, len(ix.sig.words))
		}
		for g, p := range ix.postings {
			if p.col != 0 {
				t.Fatalf("%s: gram %q holds column %d of no signature", name, g, p.col-1)
			}
		}
		return 0
	}
	rowBits := uint64(ix.docCount) * uint64(D)
	if want := int((rowBits+63)/64) + 1; len(ix.sig.words) != want {
		t.Fatalf("%s: %d signature words for %d docs × %d columns, want %d", name, len(ix.sig.words), ix.docCount, D, want)
	}
	seen := make([]bool, D)
	ones := 0
	for g, p := range ix.postings {
		if dense := denseList(p.count, ix.blockSize, ix.docCount); dense != (p.col > 0) {
			t.Fatalf("%s: gram %q of %d ids in %d docs (block %d): column %d, dense rule %v", name, g, p.count, ix.docCount, ix.blockSize, p.col-1, dense)
		}
		if p.col == 0 {
			continue
		}
		k := int(p.col - 1)
		if k >= D || seen[k] {
			t.Fatalf("%s: gram %q holds column %d, out of range or taken (D = %d)", name, g, k, D)
		}
		seen[k] = true
		member := make([]bool, ix.docCount)
		for _, d := range p.appendAll(nil, ix.blockSize) {
			member[d] = true
		}
		for d, in := range member {
			b := uint64(d)*uint64(D) + uint64(k)
			if got := ix.sig.words[b>>6]>>(b&63)&1 == 1; got != in {
				t.Fatalf("%s: gram %q: doc %d bit %v, list membership %v", name, g, d, got, in)
			}
			if in {
				ones++
			}
		}
	}
	total := 0
	for _, w := range ix.sig.words {
		total += bits.OnesCount64(w)
	}
	if total != ones {
		t.Fatalf("%s: %d signature bits set for %d postings of dense lists", name, total, ones)
	}
	return D
}

// wideIndex builds, by Adds of 1-grams, an index with exactly D dense lists
// at block size 4 and at Splice's 128: 600 documents, each byte k < D held
// by a third or more of them, and one of 50 rare bytes in each, so no rare
// byte is in more than twelve. Eight empty documents follow, so a Splice
// that drops them keeps D. batch finishes the same Adds with BuildSignatures.
func wideIndex(t *testing.T, D int, batch bool) *Index {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(D)))
	ix := NewWithBlock(1, 4)
	for d := 0; d < 600; d++ {
		var doc []byte
		for k := 0; k < D; k++ {
			if (d+k)%3 == 0 || rng.Intn(4) == 0 {
				doc = append(doc, byte(k))
			}
		}
		ix.Add(fmt.Sprintf("d%d", d), string(append(doc, byte(200+d%50))))
	}
	for d := 0; d < 8; d++ {
		ix.Add(fmt.Sprintf("empty%d", d), "")
	}
	if batch {
		ix.BuildSignatures()
	}
	return ix
}

// TestSignatureWidths holds the signature path at every width where a row
// meets a word boundary (D = 63, 64, 65, 127, 128, 129) or the memory bound
// is tightest (D = 1, 2), and at D = 0, which has no signature. Each index is
// built in every form a service queries — opened by FromBytes (mapped), Load
// (heap), Splice with and without drops (compaction and supersede) and a
// batch of Adds finished by BuildSignatures — and each form's signature must
// have D columns whose bits are the lists' membership. Every query must
// equal the reference scan and leave the counters and the mask zero. An Add
// drops the signature, and building it again restores the queries.
func TestSignatureWidths(t *testing.T) {
	var sc Scratch
	for _, D := range []int{0, 1, 2, 63, 64, 65, 127, 128, 129} {
		built := wideIndex(t, D, false)
		if n := signatureCols(t, "Add-built", built); n != 0 {
			t.Fatalf("D=%d: Add-built index has %d columns before BuildSignatures", D, n)
		}
		var enc bytes.Buffer
		if err := built.Save(&enc); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(enc.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]string, 0, built.docCount)
		drop := make([]bool, built.docCount)
		for d := range built.docCount {
			if id := built.docID(uint32(d)); strings.HasPrefix(id, "empty") {
				drop[d] = true
			} else {
				ids = append(ids, id)
			}
		}
		batch := wideIndex(t, D, true)
		forms := []struct {
			name string
			ix   *Index
		}{
			{"FromBytes", sealedCopy(t, built)},
			{"Load", loaded},
			{"Splice", splicedCopy(built)},
			{"Splice-drop", Splice(ids, []*Index{built}, [][]bool{drop})},
			{"BuildSignatures", batch},
		}
		queries := []string{"", "\xc8", "\x00\x01\x02", "\x00\xc8", "\x05\x3f\x40\x41\x7f\x80"}
		for k := 0; k < D; k += 3 {
			queries[0] += string([]byte{byte(k)})
		}
		queries[0] += "\xc9\xca"
		for _, f := range forms {
			name := fmt.Sprintf("D=%d %s", D, f.name)
			if n := signatureCols(t, name, f.ix); n != D {
				t.Fatalf("%s: %d columns, want %d", name, n, D)
			}
			for _, q := range queries {
				for _, eta := range []float64{0, 0.3, 0.6, 1} {
					checkQuery(t, f.ix, f.ix, q, eta, &sc)
				}
			}
		}
		for _, ix := range []*Index{loaded, batch} {
			ix.Add("late", "\x00\x01\x02")
			if n := signatureCols(t, "after Add", ix); n != 0 {
				t.Fatalf("D=%d: %d columns survive an Add", D, n)
			}
			checkQuery(t, ix, ix, queries[0], 0.5, &sc)
			ix.BuildSignatures()
			if n := signatureCols(t, "rebuilt", ix); n != D {
				t.Fatalf("D=%d: BuildSignatures after an Add gave %d columns", D, n)
			}
			checkQuery(t, ix, ix, queries[0], 0.5, &sc)
		}
	}
}

// readQuerySeed reads a committed FuzzQueryGrams seed: its corpus, query, η
// byte and block size.
func readQuerySeed(t *testing.T, name string) (corpus, query []byte, eta, blockSize uint8) {
	t.Helper()
	raw, err := os.ReadFile("testdata/fuzz/FuzzQueryGrams/" + name)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 5 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a four-value fuzz seed", name)
	}
	unquote := func(line, prefix string) string {
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, prefix), ")"))
		if err != nil {
			t.Fatalf("%s: %q: %v", name, line, err)
		}
		return s
	}
	return []byte(unquote(lines[1], "[]byte(")), []byte(unquote(lines[2], "[]byte(")),
		unquote(lines[3], "byte(")[0], unquote(lines[4], "byte(")[0]
}

// TestSignaturesWhereBuilt pins which indexes carry a signature: every form
// a service queries — opened by FromBytes (mapped), Load (heap), Splice
// (compaction and supersede) and a batch build finished by BuildSignatures —
// has a column for every list the dense rule admits, and each bit is the
// list's membership. Any Add drops it, and the query after it still equals
// the reference scan. Both dense fuzz seeds must reach the rule in their
// sealed and spliced copies, so FuzzQueryGrams runs the signature path from
// its seeds, and the committed wide one must give rows of more than one
// word.
func TestSignaturesWhereBuilt(t *testing.T) {
	wide, wideQuery, wideEta, wideBlock := readQuerySeed(t, "seed-wide-signature")
	for _, seed := range []struct {
		corpus, query []byte
		eta, block    uint8
		minCols       int
	}{
		{denseFuzzCorpus(), []byte("abcabcxyzw"), 9, 7, 1},
		{wide, wideQuery, wideEta, wideBlock, 65},
	} {
		docs := bytes.Split(seed.corpus, []byte{'\n'})
		build := func() *Index {
			ix := NewWithBlock(3, int(seed.block))
			for i, d := range docs {
				ix.Add(fmt.Sprintf("d%d", i), string(d))
			}
			return ix
		}
		built := build()
		if n := signatureCols(t, "Add-built", built); n != 0 {
			t.Fatalf("Add-built index has %d columns before BuildSignatures", n)
		}
		var enc bytes.Buffer
		if err := built.Save(&enc); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(enc.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		batch := build()
		batch.BuildSignatures()

		forms := []struct {
			name string
			ix   *Index
		}{{"FromBytes", sealedCopy(t, built)}, {"Load", loaded}, {"Splice", splicedCopy(built)}, {"BuildSignatures", batch}}
		var sc Scratch
		eta := float64(seed.eta%21) / 20
		for _, f := range forms {
			want := 0
			for _, p := range f.ix.postings {
				if denseList(p.count, f.ix.blockSize, f.ix.docCount) {
					want++
				}
			}
			if n := signatureCols(t, f.name, f.ix); n < seed.minCols || n != want {
				t.Fatalf("%s: %d columns, the dense rule admits %d lists (want at least %d)", f.name, n, want, seed.minCols)
			}
			checkQuery(t, f.ix, built, string(seed.query), eta, &sc)
		}

		// Any Add drops the signature; the index then answers by scan and seek.
		for _, ix := range []*Index{loaded, batch} {
			ix.Add("late", string(seed.query))
			if n := signatureCols(t, "after Add", ix); n != 0 {
				t.Fatalf("%d columns survive an Add", n)
			}
			checkQuery(t, ix, ix, string(seed.query), eta, &sc)
			ix.BuildSignatures()
			if signatureCols(t, "rebuilt", ix) == 0 {
				t.Fatalf("BuildSignatures after an Add built nothing")
			}
			checkQuery(t, ix, ix, string(seed.query), eta, &sc)
		}
	}
}

// TestSignatureBytesWithinShadowedLists pins the memory rule on a generated
// corpus, sealed and spliced: an index's signature takes no more bytes than
// the encoded posting lists of its columns, plus its one pad word (the bound
// denseList proves). The signature is one block of rows, not one bitmap per
// list, so the bound is on the total.
func TestSignatureBytesWithinShadowedLists(t *testing.T) {
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
			shadowed := 0
			for _, p := range form.postings {
				if p.col > 0 {
					skips, data := encodedPostings(p)
					shadowed += len(skips) + len(data)
				}
			}
			sigBytes := 8 * len(form.sig.words)
			if form.sig.cols == 0 || sigBytes > shadowed+8 {
				t.Fatalf("block %d: %d signature bytes (%d columns) shadow %d list bytes", form.blockSize, sigBytes, form.sig.cols, shadowed)
			}
		}
	}
}
