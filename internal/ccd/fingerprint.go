package ccd

import (
	"repro/internal/editdist"
	"repro/internal/solidity"
	"repro/internal/ssdeep"
)

// Fingerprint is the fuzzy-hash condensate of a normalized source unit
// (Section 5.4): one base64 character per token, with '.' separating
// function implementations and ':' separating contract definitions. Local
// token edits perturb only the corresponding characters, so edit distance on
// fingerprints approximates token-level edit distance on normalized code.
type Fingerprint string

// Sub-fingerprint separators.
const (
	FuncSep     = '.'
	ContractSep = ':'
)

// FingerprintSource parses, normalizes and fingerprints a Solidity source
// text (snippet or full contract). The returned error reflects parse
// problems; a fingerprint is still produced from whatever parsed. The
// syntax tree is released once fingerprinted, so its memory serves the next
// source.
func FingerprintSource(src string) (Fingerprint, error) {
	unit, err := solidity.Parse(src)
	fp := fingerprintTree(unit)
	unit.Release()
	return fp, err
}

// FingerprintUnit fingerprints normalized token streams. Contract header
// tokens are omitted: after normalization every header reads "contract c {"
// and a constant micro-chunk would only inflate the order-independent
// similarity score. Separators sit between function implementations ('.')
// and between contracts (':').
func FingerprintUnit(nu NormalizedUnit) Fingerprint {
	var s ssdeep.Stream
	for ci, c := range nu.Contracts {
		if ci > 0 {
			s.WriteSeparator(ContractSep)
		}
		for fi, fn := range c.Functions {
			if fi > 0 {
				s.WriteSeparator(FuncSep)
			}
			for _, tok := range fn {
				s.WriteToken(tok)
			}
		}
	}
	return Fingerprint(s.String())
}

// MinSubLen is the minimum sub-fingerprint length considered during
// matching when longer chunks exist: micro-chunks (empty constructors,
// one-line getters normalize to near-identical token runs) carry no clone
// evidence and would inflate the order-independent mean.
const MinSubLen = 6

// Subs splits the fingerprint into its sub-fingerprints (one per function
// implementation). Order-independent matching compares these individually
// (Section 5.5).
func (f Fingerprint) Subs() []string {
	return appendSpanSubs(nil, f, appendChunkSpans(nil, f, 1))
}

// matchSubs returns the sub-fingerprints used for similarity scoring:
// chunks of at least MinSubLen, or all chunks when none is long enough.
func (f Fingerprint) matchSubs() []string {
	return appendMatchSubs(nil, f)
}

// appendMatchSubs is the scratch-friendly matchSubs: the strings
// appendMatchSpans locates, aliasing f. Its spans live on the stack for up to
// 32 subs, so with a reused dst the split allocates nothing beyond that.
func appendMatchSubs(dst []string, f Fingerprint) []string {
	var buf [64]uint32
	return appendSpanSubs(dst, f, appendMatchSpans(buf[:0], f))
}

// appendMatchSpans appends the (start, end) byte offsets of f's match subs to
// dst: long chunks first, with a second scan picking up every non-empty chunk
// only when no chunk reaches MinSubLen. A corpus's sub dictionary interns
// the subs they locate (subDict.add), so scoring never splits a candidate.
func appendMatchSpans(dst []uint32, f Fingerprint) []uint32 {
	base := len(dst)
	if dst = appendChunkSpans(dst, f, MinSubLen); len(dst) == base {
		dst = appendChunkSpans(dst, f, 1)
	}
	return dst
}

// appendChunkSpans appends the (start, end) offsets of every chunk of f
// between separators that is at least minLen bytes long — a byte scan
// (separators are single ASCII bytes, so no rune decoding).
func appendChunkSpans(dst []uint32, f Fingerprint, minLen int) []uint32 {
	start := 0
	for i := 0; i <= len(f); i++ {
		if i == len(f) || f[i] == FuncSep || f[i] == ContractSep {
			if i-start >= minLen {
				dst = append(dst, uint32(start), uint32(i))
			}
			start = i + 1
		}
	}
	return dst
}

// appendSpanSubs appends the subs of f that spans locate, aliasing f.
func appendSpanSubs(dst []string, f Fingerprint, spans []uint32) []string {
	for i := 0; i+1 < len(spans); i += 2 {
		dst = append(dst, string(f[spans[i]:spans[i+1]]))
	}
	return dst
}

// --- similarity ---------------------------------------------------------------

// SimilarityAtLeast implements Algorithm 1 (order-independent similarity):
// every sub-fingerprint of the smaller unit is matched against all
// sub-fingerprints of the larger, and the mean of the best matches is the
// score (0..100), symmetric in its arguments; an empty fingerprint scores 0.
// Sub-fingerprint comparisons use bounded edit distance, and matching aborts
// once the remaining sub-fingerprints cannot lift the mean to threshold. The
// score is exact when ok; at threshold 0 nothing is cut short, so it is the
// exact score.
func SimilarityAtLeast(f1, f2 Fingerprint, threshold float64) (float64, bool) {
	var ed editdist.Scratch
	return similarityAtLeast(f1.matchSubs(), f1, f2.matchSubs(), nil, f2, threshold, &ed, nil)
}

// similarityAtLeast is SimilarityAtLeast over pre-split sub-fingerprints and
// caller-owned scratch: qsubs of the query fq, csubs of the candidate fc.
// With a memo, cids are csubs' ids in the memo's segment, and a sub pair
// whose distance the memo holds is not run again; SimilarityAtLeast passes
// neither. Within a candidate the edit-distance scratch keeps an outer sub's
// match masks for the whole run of the inner side.
func similarityAtLeast(qsubs []string, fq Fingerprint, csubs []string, cids []uint32, fc Fingerprint, threshold float64, ed *editdist.Scratch, memo *subMemo) (float64, bool) {
	// Algorithm 1 is directional: each sub of the first set seeks its best
	// match in the second. Scoring from the side with fewer subs (ties broken
	// by fingerprint byte order) makes the score symmetric while keeping the
	// containment the pipeline relies on: a snippet matched against a full
	// contract scores the snippet's containment, whichever argument order
	// the caller used.
	subs1, subs2 := qsubs, csubs
	swapped := len(qsubs) > len(csubs) || (len(qsubs) == len(csubs) && fq > fc)
	if swapped {
		subs1, subs2 = csubs, qsubs
	}
	if len(subs1) == 0 || len(subs2) == 0 {
		return 0, threshold <= 0
	}
	n := float64(len(subs1))
	total := 0.0
	for i, s1 := range subs1 {
		remaining := float64(len(subs1) - i - 1)
		// Lower bound on what this sub must contribute for the threshold to
		// stay reachable, assuming every remaining sub scores a perfect 100.
		// It feeds the bounded edit distance, so hopeless sub comparisons
		// stop early instead of running to the end. The
		// small slack keeps float rounding from ever rejecting a candidate
		// scoring exactly the threshold (thresholds are often prior means);
		// over-admitted borderline subs are settled exactly below.
		minNeeded := threshold*n - total - remaining*100 - 1e-9*n
		best := 0.0
		for j, s2 := range subs2 {
			// Subs are never empty, so ml > 0. A pair whose length gap
			// exceeds the bound is DistanceBounded's first rejection: it is
			// made here, before any call, with editdist.MaxDist's bound.
			ml := max(len(s1), len(s2))
			maxDist := editdist.MaxDist(ml, max(best, minNeeded))
			if gap := len(s1) - len(s2); gap > maxDist || -gap > maxDist {
				continue
			}
			var d int
			switch {
			case memo == nil:
				d = ed.DistanceBounded(s1, s2, maxDist)
			case swapped:
				d = memo.distance(ed, cids[i], j, s1, s2, maxDist)
			default:
				d = memo.distance(ed, cids[j], i, s1, s2, maxDist)
			}
			// A distance above maxDist is a capped search whose similarity
			// overestimates the truth — only exact scores may raise best.
			if d <= maxDist {
				if sim := editdist.Delta(ml, d); sim > best {
					best = sim
					if best == 100 {
						break
					}
				}
			}
		}
		total += best
		// Even perfect remaining matches cannot reach the threshold. This
		// optimistic total adds the remaining subs at once where the verdict
		// below adds them one at a time, and float addition is not
		// associative: the two can differ in the last bit. So the exit takes
		// minNeeded's slack and is only an optimisation; a candidate scoring
		// exactly the threshold stays in and the last line decides.
		if (total+remaining*100)/n < threshold-1e-9 {
			return total / n, false
		}
	}
	eps := total / n
	return eps, eps >= threshold
}
