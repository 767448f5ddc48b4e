package ngram

import "fmt"

// Splice returns a new index over the documents of parts, in argument order,
// built from their posting lists instead of their text: every list of every
// part is decoded a block at a time, each doc number renumbered into the
// output, and appended to the output list of the same gram. The grams of a
// document are never derived again, so compaction and supersede cost one
// pass over the postings rather than a re-index of every document.
//
// drop is nil or holds one entry per part. A nil entry keeps every document
// of that part; otherwise drop[i][d] leaves document d of parts[i] out, and
// the survivors close up. ids names the surviving documents in output order.
//
// The result is the index that Adding the survivors one by one to New(n)
// would build: the same doc numbers, gram counts and posting bytes, blocked
// at 128 ids whatever block size the parts were built with, and with the
// bitmaps BuildBitmaps attaches. Parts may be docless or sealed (opened
// zero-copy); the result is neither and aliases none of their bytes. Every part must share one n-gram size; a mismatch, or
// an ids or drop length that disagrees with the parts, is a caller bug and
// panics.
func Splice(ids []string, parts []*Index, drop [][]bool) *Index {
	if len(parts) == 0 {
		panic("ngram: Splice of no parts")
	}
	if drop != nil && len(drop) != len(parts) {
		panic(fmt.Sprintf("ngram: Splice: %d drop tables for %d parts", len(drop), len(parts)))
	}
	out := New(parts[0].n)
	out.docCount = len(ids)
	if len(ids) > 0 {
		out.docs = make([]doc, len(ids))
		for i, id := range ids {
			out.docs[i].id = id
		}
	}
	widest := 0
	for i, part := range parts {
		if part.n != out.n {
			panic(fmt.Sprintf("ngram: Splice of %d-gram and %d-gram indexes", out.n, part.n))
		}
		if drop != nil && drop[i] != nil && len(drop[i]) != part.docCount {
			panic(fmt.Sprintf("ngram: Splice: drop table of %d for a part of %d docs", len(drop[i]), part.docCount))
		}
		widest = max(widest, len(part.postings))
	}
	out.postings = make(map[string]*postings, widest)

	var buf []uint32
	var renum []int32 // per-doc output number, -1 for dropped; empty: shift by base
	next := 0         // output doc number of the part's first survivor
	for i, part := range parts {
		base := uint32(next)
		renum = renum[:0]
		if drop != nil && drop[i] != nil {
			for _, dead := range drop[i] {
				if dead {
					renum = append(renum, -1)
				} else {
					renum = append(renum, int32(next))
					next++
				}
			}
		} else {
			next += part.docCount
		}
		if next > len(ids) {
			panic(fmt.Sprintf("ngram: Splice: %d ids for at least %d surviving docs", len(ids), next))
		}
		if cap(buf) < part.blockSize {
			buf = make([]uint32, part.blockSize)
		}
		buf = buf[:part.blockSize]
		for g, p := range part.postings {
			var op *postings // g's output list, found on the first survivor
			for b, nb := 0, p.totalBlocks(); b < nb; b++ {
				for _, d := range buf[:p.decodeBlock(b, part.blockSize, buf)] {
					nd := base + d
					if len(renum) > 0 {
						r := renum[d]
						if r < 0 {
							continue
						}
						nd = uint32(r)
					}
					if op == nil {
						if op = out.postings[g]; op == nil {
							op = &postings{}
							out.postings[g] = op
						}
					}
					op.add(nd, out.blockSize)
					out.docs[nd].ngrams++
				}
			}
		}
	}
	if next != len(ids) {
		panic(fmt.Sprintf("ngram: Splice: %d ids for %d surviving docs", len(ids), next))
	}
	out.BuildBitmaps()
	return out
}
