// Package ngram provides an inverted n-gram index with containment-threshold
// retrieval. It stands in for the Elasticsearch n-gram pre-filter of the
// paper's clone-detection pipeline: fingerprints are split into character
// n-grams, indexed, and a query retrieves only the fingerprints sharing at
// least a fraction η of the query's distinct n-grams — the cheap candidate
// filter in front of the expensive edit-distance similarity.
//
// Retrieval counts (ScanCount; Li, Lu & Lu, ICDE 2008) over sorted,
// block-compressed posting lists (see postings.go for the block/skip
// layout), in one dense counter per document of the index. A query needing
// t = ⌈η·|Q|⌉ shared grams orders its posting lists shortest-first and scans
// the |lists|−t+1 shortest a block at a time into the counters, noting each
// document the first time it is touched — by the pigeonhole principle every
// qualifying document appears in at least one of them. The remaining lists
// only raise counters that are already live, by one of three paths. A dense
// list (at least a block, and an eighth of the index or more; denseList)
// carries a membership bitmap in an immutable index, and adds its bit to
// every live counter. Any other list is either scanned, bumping non-zero
// counters without a branch, or, once it is more than seekFactor times
// longer than the live set, sought once per live document through the skip
// table; lists grow and the live set shrinks, so that choice flips at most
// once per query. After every list, a document whose count plus the lists
// still unread can no longer reach t is abandoned and its counter cleared.
// The pruning is exact: the surviving candidate set and its containment
// scores are identical to a full scan.
//
// The bitmaps are built once per index, never per query: FromBytes sets them
// in the validation pass that decodes every block at open, Splice and
// BuildBitmaps (called once a batch of Adds is done) in one pass over the
// dense lists. Add drops them, so a mutable index is never stale. By the
// dense rule a bitmap takes no more bytes than the encoded list it shadows.
//
// The counters live in the caller's Scratch: four bytes per document of the
// largest index that Scratch has served (32 KB for the 8 k-document corpora
// of bench/, 4 MB at a million documents), all zero between queries.
package ngram

import (
	"slices"
	"sort"
)

// Index is an inverted index from n-gram to a block-compressed posting list
// of document numbers.
type Index struct {
	n         int
	blockSize int
	postings  map[string]*postings
	docs      []doc // nil for docless indexes (FromBytes embeddings)
	docCount  int
	sealed    bool // opened zero-copy: postings alias caller bytes, Add panics
	dense     bool // some posting list carries a bitmap (BuildBitmaps, FromBytes)
}

type doc struct {
	id     string
	ngrams int // number of distinct n-grams
}

// New returns an index over n-grams of size n (n ≥ 1) with 128-id posting
// blocks.
func New(n int) *Index {
	return NewWithBlock(n, writeBlockSize)
}

// NewWithBlock returns an index over n-grams of size n with an explicit
// posting-block size (clamped to [1, 65536]). Tests use it to build indexes
// at the other sizes a codec header may carry.
func NewWithBlock(n, blockSize int) *Index {
	if n < 1 {
		n = 1
	}
	if blockSize < 1 {
		blockSize = 1
	}
	if blockSize > 1<<16 {
		blockSize = 1 << 16
	}
	return &Index{n: n, blockSize: blockSize, postings: make(map[string]*postings)}
}

// N returns the configured n-gram size.
func (ix *Index) N() int { return ix.n }

// BlockSize returns the posting-block size this index was built with.
func (ix *Index) BlockSize() int { return ix.blockSize }

// Len returns the number of indexed documents.
func (ix *Index) Len() int { return ix.docCount }

// Docless reports whether the index carries no document-id table (an
// embedded index whose owner resolves ids itself); QueryGramsScratch then
// leaves Candidate.ID empty.
func (ix *Index) Docless() bool { return ix.docs == nil && ix.docCount > 0 }

// docID resolves a doc number to its id ("" for docless indexes).
func (ix *Index) docID(d uint32) string {
	if int(d) < len(ix.docs) {
		return ix.docs[d].id
	}
	return ""
}

// Grams returns the distinct n-grams of s (strings shorter than n yield the
// whole string as a single gram).
func (ix *Index) Grams(s string) []string {
	return Grams(s, ix.n)
}

// Grams returns the distinct character n-grams of s, sorted.
func Grams(s string, n int) []string {
	return AppendGrams(nil, s, n)
}

// AppendGrams appends the distinct character n-grams of s to dst (sorted) —
// the scratch-friendly form of Grams: with a reused dst the only allocation
// is amortized slice growth. Deduplication is sort-and-compact, so no map is
// built; retrieval treats the grams as a set, so order carries no meaning.
func AppendGrams(dst []string, s string, n int) []string {
	if len(s) == 0 {
		return dst
	}
	if len(s) <= n {
		return append(dst, s)
	}
	base := len(dst)
	for i := 0; i+n <= len(s); i++ {
		dst = append(dst, s[i:i+n])
	}
	win := dst[base:]
	sort.Strings(win)
	w := 1
	for i := 1; i < len(win); i++ {
		if win[i] != win[i-1] {
			win[w] = win[i]
			w++
		}
	}
	return dst[:base+w]
}

// Add indexes the string under the given id and returns the internal doc
// number. Doc numbers increase monotonically, so every posting list stays
// sorted by construction. The grams are never collected or sorted: each
// window of s is looked up in place and skipped when its list already ends
// in this document, so the document's distinct-gram count is the number of
// lists it extended. Panics on an index opened zero-copy from snapshot bytes
// (those are immutable segments).
func (ix *Index) Add(id, s string) int {
	if ix.sealed {
		panic("ngram: Add on a sealed (zero-copy) index; segments are write-once")
	}
	if ix.dense {
		// A bitmap sized to the old doc count would go stale: drop them all.
		// A mutable index queries by scan and seek until the next build.
		for _, p := range ix.postings {
			p.bits = nil
		}
		ix.dense = false
	}
	num := uint32(ix.docCount)
	grams := 0
	if len(s) > 0 {
		n := min(ix.n, len(s))
		for i := 0; i+n <= len(s); i++ {
			g := s[i : i+n]
			p := ix.postings[g]
			if p == nil {
				p = &postings{}
				ix.postings[g] = p
			} else if p.count > 0 && p.last == num {
				// A repeat of a gram this document already holds. A list
				// loaded non-empty keeps last 0 while num ≥ 1, so it never
				// matches by accident.
				continue
			}
			p.add(num, ix.blockSize)
			grams++
		}
	}
	if ix.docs != nil || ix.docCount == 0 {
		// Docless indexes (loaded corpus embeddings) stay docless: their
		// owner resolves ids by doc number, which needs no table here.
		ix.docs = append(ix.docs, doc{id: id, ngrams: grams})
	}
	ix.docCount++
	return int(num)
}

// BuildBitmaps gives every posting list the dense rule admits (denseList)
// its membership bitmap, so queries test those lists bit by bit instead of
// scanning or seeking them. Call it on an index built by Add once its last
// document is in; FromBytes and Splice build the bitmaps themselves. The next
// Add drops them all again.
func (ix *Index) BuildBitmaps() {
	var buf []uint32
	for _, p := range ix.postings {
		if p.bits != nil || !denseList(p.count, ix.blockSize, ix.docCount) {
			continue
		}
		if buf == nil {
			buf = make([]uint32, ix.blockSize)
		}
		p.bits = newBitmap(ix.docCount)
		for b, nb := 0, p.totalBlocks(); b < nb; b++ {
			for _, d := range buf[:p.decodeBlock(b, ix.blockSize, buf)] {
				p.mark(int64(d), ix.docCount)
			}
		}
		ix.dense = true
	}
}

// Candidate is a retrieval result.
type Candidate struct {
	ID string
	// Doc is the internal doc number assigned by Add.
	Doc int
	// Containment is |shared grams| / |query grams| in [0,1].
	Containment float64
}

// Stats counts the work one query did; the service layer aggregates these
// into its pruning metrics.
type Stats struct {
	// Lists is the number of query grams with a non-empty posting list.
	Lists int
	// Candidates is how many distinct documents the pigeonhole-prefix lists
	// touched.
	Candidates int
	// Pruned is how many of those were abandoned by the η upper-bound
	// cutoff before their full gram count was known.
	Pruned int
	// Kept is how many candidates reached the containment threshold.
	Kept int
}

// Scratch holds the reusable buffers of one retrieval: the selected posting
// lists, one decoded block, the per-document counters with the list of
// documents holding a non-zero one, and the result slice. A zero Scratch is
// ready to use; reusing one across queries (and across indexes of any size)
// makes the steady-state retrieval allocation-free.
//
// counts is indexed by doc number, grows to the largest index the scratch has
// served and is all zero between queries: every counter a query raises is in
// live, and is cleared when its document is abandoned or emitted. A counter is
// 32 bits wide because a count can reach the number of distinct query grams,
// and a fingerprint posted to /v1/match may be 8 MiB of arbitrary bytes — far
// more grams than 8 or 16 bits hold, while 2³² of them would need a 4 GiB
// query. A narrower counter would want an overflow path; this one cannot
// overflow.
type Scratch struct {
	lists  []*postings
	block  []uint32
	counts []uint32
	live   []uint32
	rank   []uint64
	out    []Candidate
}

// seekFactor decides, per phase-2 list without a bitmap, between scanning the
// list and seeking it once per live candidate: a list more than seekFactor
// times longer than the live set is sought. A scanned posting costs a
// nanosecond or two (decode and a branch-free bump), a seek about 40
// (skip-table and in-block binary search). BenchmarkQueryGrams on a 2-vCPU
// Xeon, fastest of 7 runs of 300 queries, µs per query dense / dense-bitmap /
// sparse / crossing: factor 1 178 / 57 / 894 / 275, 2 128 / 56 / 880 / 250,
// 8 91 / 43 / 417 / 138, 64 71 / 67 / 400 / 175, never seeking
// 70 / 63 / 7 863 / 257. dense-bitmap never scans or seeks, so its spread is
// the box's noise; repeats of 8 against 64 read 83–93 against 69–87 on dense
// and 172–200 against 187–206 on crossing, inside it. Below 8 sparse runs
// twice as slow, and never seeking 19 times as slow.
const seekFactor = 8

// byCount orders posting lists shortest-first.
func byCount(a, b *postings) int { return a.count - b.count }

// QueryGramsScratch retrieves the indexed documents sharing at least eta
// (0..1) of the distinct query grams (Grams or AppendGrams of the query
// string), most-overlapping first (ties by doc number), plus the retrieval
// statistics. Callers querying several indexes with one query (the service's
// generation segments) derive the grams once and reuse them. The returned
// candidates alias sc and are valid until its next use.
func (ix *Index) QueryGramsScratch(grams []string, eta float64, sc *Scratch) ([]Candidate, Stats) {
	var st Stats
	if len(grams) == 0 {
		return nil, st
	}
	// A qualifying document shares at least t grams: the smallest integer
	// count c with c ≥ η·|Q| (matching the historical float comparison),
	// never below 1 so η ≤ 0 still demands one shared gram.
	need := eta * float64(len(grams))
	t := int(need)
	if float64(t) < need {
		t++
	}
	t = max(t, 1)

	sc.lists = sc.lists[:0]
	for _, g := range grams {
		if p := ix.postings[g]; p != nil && p.count > 0 {
			sc.lists = append(sc.lists, p)
		}
	}
	st.Lists = len(sc.lists)
	if len(sc.lists) < t {
		return nil, st // even full membership cannot reach the threshold
	}
	slices.SortFunc(sc.lists, byCount)

	nl := len(sc.lists)
	bs := ix.blockSize
	if cap(sc.block) < bs {
		sc.block = make([]uint32, bs)
	}
	block := sc.block[:bs]
	if len(sc.counts) < ix.docCount {
		sc.counts = make([]uint32, ix.docCount) // the old one is all zero: nothing to carry over
	}
	counts := sc.counts

	// Phase 1 — pigeonhole prefix: any document with ≥ t shared grams
	// appears in at least one of the |lists|−t+1 shortest lists. Scan them a
	// block at a time into the counters, recording a document the first time
	// it is touched.
	prefix := nl - t + 1
	live := sc.live[:0]
	for _, p := range sc.lists[:prefix] {
		for b, nb := 0, p.totalBlocks(); b < nb; b++ {
			for _, d := range block[:p.decodeBlock(b, bs, block)] {
				if counts[d] == 0 {
					live = append(live, d)
				}
				counts[d]++
			}
		}
	}
	st.Candidates = len(live)

	// Phase 2 — the remaining (longer) lists, shortest first. A list with a
	// bitmap adds its membership bit to every live counter, branch-free and
	// in O(|live|), without touching its postings. Of the others, a list
	// short against the live set is scanned, bumping only counters already
	// non-zero; a list long against it is sought once per live document, in
	// doc order so the cursor only moves forward and hops whole blocks via
	// the skip table. Lists grow and the live set shrinks along the way, so
	// once one list is sought all later ones are and the sort happens once.
	// After list j there are remaining = |lists|−j−1 unread lists; a document
	// counting c can reach at most c+remaining, so anything below t−remaining
	// is abandoned and its counter cleared.
	seeking := false
	for j := prefix; j < nl; j++ {
		p := sc.lists[j]
		if !seeking && p.bits == nil && p.count > seekFactor*len(live) {
			seeking = true
			slices.Sort(live)
		}
		if bits := p.bits; bits != nil {
			for _, d := range live {
				counts[d] += uint32(bits[d>>6] >> (d & 63) & 1)
			}
		} else if seeking {
			var cur cursor
			cur.init(p, block, bs)
			for _, d := range live {
				cur.seekGE(d)
				if cur.valid && cur.cur == d {
					counts[d]++
				}
			}
		} else {
			for b, nb := 0, p.totalBlocks(); b < nb; b++ {
				for _, d := range block[:p.decodeBlock(b, bs, block)] {
					x := counts[d]
					counts[d] = x + (x|-x)>>31 // +1 where x ≠ 0
				}
			}
		}
		floor := uint32(t - (nl - j - 1))
		kept := live[:0]
		for _, d := range live {
			if counts[d] < floor {
				counts[d] = 0
				continue
			}
			kept = append(kept, d)
		}
		st.Pruned += len(live) - len(kept)
		live = kept
	}
	sc.live = live[:0]
	st.Kept = len(live)
	if len(live) == 0 {
		return nil, st
	}

	// Rank: most shared grams first, ties by doc number. Distinct counts give
	// distinct containments, so sorting packed (inverted count, doc) words
	// orders by containment without comparing floats or moving Candidates.
	rank := sc.rank[:0]
	for _, d := range live {
		rank = append(rank, uint64(^counts[d])<<32|uint64(d))
		counts[d] = 0
	}
	slices.Sort(rank)
	sc.rank = rank
	sc.out = sc.out[:0]
	for _, r := range rank {
		d := uint32(r)
		sc.out = append(sc.out, Candidate{
			ID:          ix.docID(d),
			Doc:         int(d),
			Containment: float64(^uint32(r>>32)) / float64(len(grams)),
		})
	}
	return sc.out, st
}
