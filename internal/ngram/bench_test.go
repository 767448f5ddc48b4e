package ngram

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// listShape is one posting list of a synthetic index: count distinct docs
// drawn from [0, pool).
type listShape struct{ count, pool int }

// postingsIndex builds a docless index straight from posting lists, one gram
// per list, so a benchmark can shape list lengths without indexing a million
// strings. Docs docs/2 … docs/2+4 hold every gram: a clone family that
// survives any η. Its dense lists get their signature, as every segment a
// service queries does.
func postingsIndex(rng *rand.Rand, docs int, lists []listShape) (*Index, []string) {
	ix := NewWithBlock(3, 128)
	ix.docCount = docs
	grams := make([]string, len(lists))
	for i, l := range lists {
		ids := make([]uint32, 0, l.count+5)
		for d := 0; d < 5; d++ {
			ids = append(ids, uint32(docs/2+d))
		}
		for len(ids) < l.count+5 {
			ids = append(ids, uint32(rng.Intn(l.pool)))
		}
		slices.Sort(ids)
		grams[i] = fmt.Sprintf("g%02d", i)
		ix.postings[grams[i]] = buildPostings(slices.Compact(ids), ix.blockSize)
	}
	ix.BuildSignatures()
	return ix, grams
}

// withoutSignature copies ix without its signature: the same lists as a
// mutable index holds them between Adds.
func withoutSignature(ix *Index) *Index {
	out := *ix
	out.postings = make(map[string]*postings, len(ix.postings))
	for g, p := range ix.postings {
		q := *p
		q.col = 0
		out.postings[g] = &q
	}
	out.sig = signature{}
	return &out
}

// BenchmarkQueryGrams keeps the three ways phase 2 counts a list — scan,
// seek (chosen between by seekFactor) and the signature's dense pass —
// measured beside the code that chooses them.
//
// dense is the shape one segment-query has on the bench's match-large world:
// 4 041 documents, 33 non-empty lists, the 16 of the pigeonhole prefix about
// 220 postings each inside a third of the segment, the other 17 about 1 800
// each (44 % of the segment). Without a signature every phase-2 list is
// scanned; seeking them instead costs a binary search per live candidate per
// list. dense-signature is the same index with its signature, as a sealed
// segment has it: all phase-2 lists are counted in one pass over the live
// candidates, a masked popcount of each one's row.
//
// sparse is a million documents, 22 prefix lists of a few hundred postings
// and 20 lists of 2 to 12 % of the index, all under the dense rule: after the
// first phase-2 list a handful of documents are live, and scanning the other
// lists would decode a million postings to bump their counters.
//
// crossing is 65 536 documents, 16 prefix lists of 200 to 600 postings and 17
// phase-2 lists of 1/16 to 1/4 of the index: the first five stay under the
// dense rule and are scanned or sought, the rest are signature columns.
func BenchmarkQueryGrams(b *testing.B) {
	rng := rand.New(rand.NewSource(24))

	const denseDocs = 4041
	var dense []listShape
	for i := 0; i < 16; i++ {
		dense = append(dense, listShape{180 + rng.Intn(80), denseDocs / 3})
	}
	for i := 0; i < 17; i++ {
		dense = append(dense, listShape{1600 + rng.Intn(400), denseDocs})
	}

	const sparseDocs = 1_000_000
	var sparse []listShape
	for i := 0; i < 22; i++ {
		sparse = append(sparse, listShape{60 + i*20, sparseDocs})
	}
	for i := 0; i < 20; i++ {
		sparse = append(sparse, listShape{20_000 + i*5_000, sparseDocs})
	}

	const crossingDocs = 1 << 16
	var crossing []listShape
	for i := 0; i < 16; i++ {
		crossing = append(crossing, listShape{200 + i*25, crossingDocs})
	}
	for i := 0; i < 17; i++ {
		crossing = append(crossing, listShape{crossingDocs/16 + i*crossingDocs/85, crossingDocs})
	}

	denseIx, denseGrams := postingsIndex(rng, denseDocs, dense)
	sparseIx, sparseGrams := postingsIndex(rng, sparseDocs, sparse)
	crossingIx, crossingGrams := postingsIndex(rng, crossingDocs, crossing)
	for _, c := range []struct {
		name  string
		ix    *Index
		grams []string
	}{
		{"dense", withoutSignature(denseIx), denseGrams},
		{"dense-signature", denseIx, denseGrams},
		{"sparse", sparseIx, sparseGrams},
		{"crossing", crossingIx, crossingGrams},
	} {
		ix, grams := c.ix, c.grams
		b.Run(c.name, func(b *testing.B) {
			var sc Scratch
			out, st := ix.QueryGramsScratch(grams, 0.5, &sc)
			if len(out) < 5 || st.Candidates <= len(out) {
				b.Fatalf("fixture keeps %d of %d candidates", len(out), st.Candidates)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, st = ix.QueryGramsScratch(grams, 0.5, &sc)
			}
			b.ReportMetric(float64(st.Candidates), "touched/op")
			b.ReportMetric(float64(len(out)), "kept/op")
		})
	}
}
