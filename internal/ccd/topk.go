package ccd

import (
	"math"
	"sort"
	"sync/atomic"
)

// AtomicBound is a lock-free, monotonically increasing score bound shared by
// TopK collectors running in parallel over partitions of one corpus (the
// service's generation-shards). When any collector fills to k matches, it
// raises the shared bound to its worst kept score; every other collector then
// prunes candidates that can no longer enter the global top K, so a strong
// match found in one partition cheapens the scan of all the others.
type AtomicBound struct {
	bits atomic.Uint64
}

// NewAtomicBound returns a bound starting at floor (typically ε).
func NewAtomicBound(floor float64) *AtomicBound {
	b := &AtomicBound{}
	b.bits.Store(math.Float64bits(floor))
	return b
}

// Load returns the current bound.
func (b *AtomicBound) Load() float64 {
	return math.Float64frombits(b.bits.Load())
}

// Raise lifts the bound to s if s is higher (CAS max; never lowers).
func (b *AtomicBound) Raise(s float64) {
	for {
		old := b.bits.Load()
		if s <= math.Float64frombits(old) {
			return
		}
		if b.bits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// TopK collects the k best matches seen so far: a bounded min-heap ordered
// worst-first, so the match that would be evicted next sits at the root.
// Bound exposes the score a new match must reach to enter, which MatchInto
// feeds into the bounded edit distance — the expensive exact similarity runs
// only on candidates that can still make the cut. k ≤ 0 disables the bound
// (collect everything at ε or better).
//
// The heap is hand-rolled over []Match rather than container/heap: the
// standard interface moves elements through `any`, which boxes every Match
// onto the heap — visible allocations on a path that must do none.
type TopK struct {
	k      int
	eps    float64
	h      []Match
	shared *AtomicBound // optional cross-partition bound (Share)
}

// NewTopK returns a collector for the k best matches scoring at least eps.
func NewTopK(k int, eps float64) *TopK {
	return &TopK{k: k, eps: eps}
}

// Reset re-arms the collector for a new query, dropping any held matches and
// detaching the shared bound while keeping the heap's backing array — pooled
// collectors match repeatedly without reallocating.
func (t *TopK) Reset(k int, eps float64) *TopK {
	t.k, t.eps = k, eps
	t.h = t.h[:0]
	t.shared = nil
	return t
}

// Share attaches a cross-partition admission bound: Bound() reads it, and
// whenever this collector's heap is full its worst kept score is published
// back, so sibling collectors over other partitions prune against the best
// global evidence seen so far. Returns t for chaining. Safe only before the
// first Offer.
func (t *TopK) Share(b *AtomicBound) *TopK {
	t.shared = b
	return t
}

// Bound returns the score a match must reach to enter the collection: ε
// until the heap fills, then the worst collected score (a match tying the
// bound still needs a smaller id than the current worst to displace it).
// With a shared bound attached, the highest of the local and shared bounds
// wins — a score tying the shared bound is still admissible, so k-th-place
// ties across partitions resolve by id at merge time.
func (t *TopK) Bound() float64 {
	b := t.eps
	if t.shared != nil {
		b = max(b, t.shared.Load())
	}
	if t.k > 0 && len(t.h) == t.k {
		b = max(b, t.h[0].Score)
	}
	return b
}

// Offer considers one match; it is kept when it beats the current bound (or
// ties it with a smaller id).
func (t *TopK) Offer(m Match) {
	if m.Score < t.eps {
		return
	}
	if t.shared != nil && m.Score < t.shared.Load() {
		// Some partition already holds k matches at or above the shared
		// bound, so m cannot enter the merged top K. Strictly-below only:
		// ties survive to the merge, where ids break them.
		return
	}
	if t.k <= 0 || len(t.h) < t.k {
		t.push(m)
		t.publishBound()
		return
	}
	if worseOrEqual(m, t.h[0]) {
		return
	}
	t.h[0] = m
	t.siftDown(0)
	t.publishBound()
}

// publishBound exports the local k-th-best score once the heap is full.
func (t *TopK) publishBound() {
	if t.shared != nil && t.k > 0 && len(t.h) == t.k {
		t.shared.Raise(t.h[0].Score)
	}
}

// Len returns how many matches are currently held.
func (t *TopK) Len() int { return len(t.h) }

// Results drains the collection, best first (score descending, ties by id
// ascending). The collector is empty afterwards.
func (t *TopK) Results() []Match {
	return t.AppendResults(nil)
}

// AppendResults drains the collection into dst, best first — the
// allocation-free form of Results for callers that reuse a result buffer.
// The collector is empty afterwards.
func (t *TopK) AppendResults(dst []Match) []Match {
	n := len(t.h)
	if n == 0 {
		return dst
	}
	base := len(dst)
	dst = append(dst, t.h...) // grow by n; every slot is overwritten below
	for i := n - 1; i >= 0; i-- {
		// Pop the worst remaining match and place it from the back.
		dst[base+i] = t.h[0]
		last := len(t.h) - 1
		t.h[0] = t.h[last]
		t.h = t.h[:last]
		if last > 0 {
			t.siftDown(0)
		}
	}
	return dst
}

// push appends m and sifts it up (worst-first ordering).
func (t *TopK) push(m Match) {
	t.h = append(t.h, m)
	i := len(t.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !matchWorse(t.h[i], t.h[parent]) {
			break
		}
		t.h[i], t.h[parent] = t.h[parent], t.h[i]
		i = parent
	}
}

// siftDown restores the heap property below node i.
func (t *TopK) siftDown(i int) {
	n := len(t.h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		worst := l
		if r := l + 1; r < n && matchWorse(t.h[r], t.h[l]) {
			worst = r
		}
		if !matchWorse(t.h[worst], t.h[i]) {
			return
		}
		t.h[i], t.h[worst] = t.h[worst], t.h[i]
		i = worst
	}
}

// matchWorse reports whether a ranks strictly worse than b (the heap's
// root-first ordering: score ascending, ties by id descending).
func matchWorse(a, b Match) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

// worseOrEqual reports whether a ranks no better than b (score descending,
// ties by id ascending).
func worseOrEqual(a, b Match) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID >= b.ID
}

// SortMatches orders matches best-first (score descending, ties by id
// ascending) in place — the canonical presentation order shared by Match
// (after sorting) and MatchTopK.
func SortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Score != ms[j].Score {
			return ms[i].Score > ms[j].Score
		}
		return ms[i].ID < ms[j].ID
	})
}
