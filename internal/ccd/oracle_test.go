package ccd

import "repro/internal/editdist"

// exactDelta is δ(s1,s2) in [0,100] over the reference edit distance.
func exactDelta(s1, s2 string) float64 {
	ml := max(len(s1), len(s2))
	if ml == 0 {
		return 100
	}
	return float64(ml-editdist.Distance(s1, s2)) / float64(ml) * 100
}

// orient returns the two sub-fingerprint sets in the order Algorithm 1
// scores them: the side with fewer subs first, ties broken by fingerprint
// byte order.
func orient(f1, f2 Fingerprint) (subs1, subs2 []string) {
	subs1, subs2 = f1.matchSubs(), f2.matchSubs()
	if len(subs1) > len(subs2) || (len(subs1) == len(subs2) && f1 > f2) {
		subs1, subs2 = subs2, subs1
	}
	return subs1, subs2
}

// exactSimilarity is Algorithm 1 with no bound and no early exit, every
// sub-fingerprint pair scored by the reference DP: the oracle the bounded
// scorer is held to. Its mean is summed a sub at a time, as
// similarityAtLeast sums it, so the two agree to the bit.
func exactSimilarity(f1, f2 Fingerprint) float64 {
	subs1, subs2 := orient(f1, f2)
	if len(subs1) == 0 || len(subs2) == 0 {
		return 0
	}
	total := 0.0
	for _, s1 := range subs1 {
		best := 0.0
		for _, s2 := range subs2 {
			if d := exactDelta(s1, s2); d > best {
				best = d
			}
		}
		total += best
	}
	return total / float64(len(subs1))
}

// similarity is the production Algorithm 1 score: SimilarityAtLeast at
// threshold 0, where nothing is cut short.
func similarity(f1, f2 Fingerprint) float64 {
	s, _ := SimilarityAtLeast(f1, f2, 0)
	return s
}
