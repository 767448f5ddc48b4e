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
// survives any η.
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
	return ix, grams
}

// BenchmarkQueryGrams keeps both regimes of the per-list scan/seek choice
// (seekFactor) measured beside the code that makes it.
//
// dense is the shape one segment-query has on the bench's match-large world:
// 4 041 documents, 33 non-empty lists, the 16 of the pigeonhole prefix about
// 220 postings each inside a third of the segment, the other 17 about 1 800
// each (44 % of the segment). Every phase-2 list is scanned; seeking them
// instead costs a binary search per live candidate per list.
//
// sparse is a million documents, 22 prefix lists of a few hundred postings
// and 20 lists of 2 to 12 % of the index: after the first phase-2 list a
// handful of documents are live, and scanning the other lists would decode a
// million postings to bump their counters.
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

	for _, c := range []struct {
		name   string
		docs   int
		shapes []listShape
	}{{"dense", denseDocs, dense}, {"sparse", sparseDocs, sparse}} {
		ix, grams := postingsIndex(rng, c.docs, c.shapes)
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
