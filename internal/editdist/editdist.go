// Package editdist provides Levenshtein edit distance and the normalized
// similarity score δ used by the paper's clone detector (Section 5.5):
//
//	δ(s1,s2) = (max(len(s1),len(s2)) − d(s1,s2)) / max(len(s1),len(s2)) · 100
//
// Every production score is δ over (*Scratch).DistanceBounded, which runs
// Myers' bit-vector algorithm whenever one of the two strings fits a 64-bit
// word: one word operation per character of the other string in place of
// one DP row. Algorithm 1 (package ccd) bounds with MaxDist and scores with
// Delta, so that it can test lengths and reuse a distance it already has.
// Distance is the plain two-row dynamic program, kept as the reference the
// tests hold DistanceBounded and Algorithm 1 to; no production path calls
// it.
package editdist

// wordBits is the longest pattern the bit-parallel kernel takes: one bit of
// a uint64 per pattern byte.
const wordBits = 64

// Scratch holds what repeated distance computations (one per candidate pair
// in a corpus match) reuse: the two rolling DP rows, and the match masks of
// the last pattern the bit-parallel kernel ran, so comparing one string
// against many builds them once. A zero Scratch is ready to use; methods
// grow the rows on demand. Not safe for concurrent use.
type Scratch struct {
	prev, cur []int

	// peq[c] has bit i set when pat[i] == c, for the pattern pat[:m]. It is
	// indexed by byte, so any input is in range. The pattern is kept as a
	// copy: a caller's string may point into a mapping that is gone by the
	// next call.
	peq [256]uint64
	pat [wordBits]byte
	m   int
}

// rows returns the two DP rows, each with at least n entries.
func (s *Scratch) rows(n int) ([]int, []int) {
	if cap(s.prev) < n {
		s.prev = make([]int, n)
		s.cur = make([]int, n)
	}
	return s.prev[:n], s.cur[:n]
}

// Distance returns the Levenshtein edit distance between a and b using two
// rolling rows (O(min(len)) space). It is the reference dynamic program the
// tests hold DistanceBounded and Algorithm 1 to; no production path calls
// it.
func Distance(a, b string) int {
	if a == b {
		return 0
	}
	if len(a) < len(b) {
		a, b = b, a
	}
	if len(b) == 0 {
		return len(a)
	}
	prev, cur := make([]int, len(b)+1), make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		ca := a[i-1]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if ca == b[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost        // substitute
			if d := prev[j] + 1; d < m { // delete
				m = d
			}
			if d := cur[j-1] + 1; d < m { // insert
				m = d
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// DistanceBounded returns the edit distance if it is at most maxDist, or
// maxDist+1 otherwise. Early exit keeps corpus matching fast when most
// candidate pairs are far apart. When either string is at most 64 bytes it
// is the pattern of the bit-parallel kernel, a first so that a caller
// holding a fixed and b varying keeps its masks; only a pair of two longer
// strings takes the row DP.
func (s *Scratch) DistanceBounded(a, b string, maxDist int) int {
	if maxDist < 0 {
		return 0
	}
	la, lb := len(a), len(b)
	// No distance exceeds the longer length, so a larger bound says nothing
	// more, and below it maxDist+1 and the kernel's limit cannot wrap.
	maxDist = min(maxDist, max(la, lb))
	if la-lb > maxDist || lb-la > maxDist {
		return maxDist + 1
	}
	if a == b {
		return 0
	}
	switch {
	case la == 0 || lb == 0:
		return la + lb // the length gap, already known to be within maxDist
	case la <= wordBits:
		return s.bitDistance(a, b, maxDist)
	case lb <= wordBits:
		return s.bitDistance(b, a, maxDist)
	}
	if la < lb {
		a, b = b, a
	}
	prev, cur := s.rows(len(b) + 1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		rowMin := cur[0]
		ca := a[i-1]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if ca == b[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost
			if d := prev[j] + 1; d < m {
				m = d
			}
			if d := cur[j-1] + 1; d < m {
				m = d
			}
			cur[j] = m
			if m < rowMin {
				rowMin = m
			}
		}
		if rowMin > maxDist {
			return maxDist + 1
		}
		prev, cur = cur, prev
	}
	if d := prev[len(b)]; d <= maxDist {
		return d
	}
	return maxDist + 1
}

// setPattern makes peq the match masks of p (1 to 64 bytes). The masks of
// the previous pattern are kept when p is that pattern again, and otherwise
// cleared byte by byte, never as a whole table.
func (s *Scratch) setPattern(p string) {
	if p == string(s.pat[:s.m]) {
		return
	}
	for _, c := range s.pat[:s.m] {
		s.peq[c] = 0
	}
	s.m = copy(s.pat[:], p)
	for i := 0; i < len(p); i++ {
		s.peq[p[i]] |= 1 << i
	}
}

// bitDistance is DistanceBounded for a pattern p of 1 to 64 bytes against a
// non-empty text t: Myers' bit-vector algorithm in Hyyrö's form for the
// global distance. Column j of the DP matrix lives in two words, vp and vn,
// whose bit i says whether D[i+1][j] is one more or one less than D[i][j];
// one step derives column j+1 from them and the match mask of t[j], and
// score follows the bottom cell D[m][j+1]. The bottom row moves by at most
// one per column, so once score exceeds maxDist by more than the columns
// left, the result is out of reach. Bits above m-1 carry garbage that never
// flows down.
func (s *Scratch) bitDistance(p, t string, maxDist int) int {
	s.setPattern(p)
	last := uint(len(p) - 1)
	vp, vn := ^uint64(0), uint64(0)
	score := len(p)
	// score − (len(t)−1−j) > maxDist, with the constants on one side.
	limit := maxDist + len(t) - 1
	for j := 0; j < len(t); j++ {
		x := s.peq[t[j]]
		d0 := (((x & vp) + vp) ^ vp) | x | vn
		hp := vn | ^(d0 | vp)
		hn := vp & d0
		score += int(hp>>last&1) - int(hn>>last&1)
		if score+j > limit {
			return maxDist + 1
		}
		// Shifting a one into hp is the top row D[0][j] = j; a zero there
		// would compute the substring distance.
		hp = hp<<1 | 1
		vp = hn<<1 | ^(d0 | hp)
		vn = hp & d0
	}
	return score
}

// MaxDist is the largest edit distance at which two strings, the longer of
// them ml bytes, are still threshold similar: δ ≥ t ⇔ d ≤ ml·(100−t)/100.
// It is negative when threshold exceeds 100, and no pair qualifies. A caller
// that tests lengths before DistanceBounded uses this same expression, so it
// rejects exactly the pairs DistanceBounded would put beyond the bound.
func MaxDist(ml int, threshold float64) int {
	return int(float64(ml) * (100 - threshold) / 100)
}

// Delta is δ for two strings at edit distance d, the longer of them ml > 0
// bytes: the one expression every score is computed by, so a distance
// remembered and a distance just computed give the same bits.
func Delta(ml, d int) float64 {
	return float64(ml-d) / float64(ml) * 100
}
