package ccd

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// corpusSources returns a representative source set for property checks.
func corpusSources() []string {
	var out []string
	for _, t := range dataset.VulnTemplates() {
		out = append(out, t.Source)
	}
	hp := dataset.GenerateHoneypots(3)
	for i := 0; i < 20 && i < len(hp); i++ {
		out = append(out, hp[i].Source)
	}
	return out
}

// TestPropertySharedBoundPartitionEquivalence: collectors running over
// disjoint partitions of a corpus with one shared AtomicBound, merged
// through a final collector, must return exactly what a single collector
// over the whole corpus returns — for every k. This is the unit-level pin of
// the service's scatter-gather merge.
func TestPropertySharedBoundPartitionEquivalence(t *testing.T) {
	srcs := corpusSources()
	whole := NewCorpus(DefaultConfig)
	parts := []*Corpus{NewCorpus(DefaultConfig), NewCorpus(DefaultConfig), NewCorpus(DefaultConfig)}
	for i, src := range srcs {
		fp, _ := FingerprintSource(src)
		id := fmt.Sprintf("doc-%02d", i)
		whole.Add(id, fp)
		parts[i%len(parts)].Add(id, fp)
	}
	// Run the scatter-gather twice: over the freshly built partitions and
	// over the same partitions reopened as zero-copy segments — the sharded
	// merge must be exact over the mapped read path too.
	segParts := make([]*Corpus, len(parts))
	for i, p := range parts {
		var blob bytes.Buffer
		if err := p.Save(&blob); err != nil {
			t.Fatalf("part %d: save: %v", i, err)
		}
		seg, err := OpenSegmentBytes(blob.Bytes(), nil)
		if err != nil {
			t.Fatalf("part %d: open segment: %v", i, err)
		}
		segParts[i] = seg
	}
	var mb MatchBuffer
	for _, form := range []struct {
		name  string
		parts []*Corpus
	}{{"heap", parts}, {"segment", segParts}} {
		for _, src := range srcs[:6] {
			q, _ := FingerprintSource(src)
			for _, k := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 100} {
				want := whole.MatchTopK(q, k)

				shared := NewAtomicBound(0)
				final := NewTopK(k, 0)
				for _, p := range form.parts {
					col := NewTopK(k, DefaultConfig.Epsilon).Share(shared)
					p.MatchInto(PrepareQuery(DefaultConfig, q), col, &mb, MatchOpts{})
					for _, m := range col.Results() {
						final.Offer(m)
					}
				}
				got := final.Results()
				if len(got) != len(want) {
					t.Fatalf("%s k=%d: %d matches, want %d", form.name, k, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s k=%d match %d: %+v, want %+v", form.name, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestAtomicBoundMonotone: Raise never lowers the bound and is safe under
// concurrent raisers (run with -race).
func TestAtomicBoundMonotone(t *testing.T) {
	b := NewAtomicBound(10)
	b.Raise(5)
	if got := b.Load(); got != 10 {
		t.Fatalf("bound lowered to %v", got)
	}
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				b.Raise(float64(i % 97))
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if got := b.Load(); got != 96 {
		t.Fatalf("bound %v after concurrent raises, want 96", got)
	}
}

// TestPropertySelfSimilarityIs100 over the whole template corpus.
func TestPropertySelfSimilarityIs100(t *testing.T) {
	for _, src := range corpusSources() {
		fp, _ := FingerprintSource(src)
		if len(fp) == 0 {
			continue
		}
		if s := similarity(fp, fp); s != 100 {
			t.Errorf("self similarity %.2f for %.40q", s, src)
		}
	}
}

// TestPropertyTypeIIInvariance: whitespace, comments and pool renames never
// change the fingerprint.
func TestPropertyTypeIIInvariance(t *testing.T) {
	m := dataset.NewMutator(11)
	for _, src := range corpusSources() {
		base, _ := FingerprintSource(src)
		commented := "// header\n" + strings.ReplaceAll(src, "\t", "    ")
		fc, _ := FingerprintSource(commented)
		if base != fc {
			t.Errorf("comment/whitespace changed fingerprint for %.40q", src)
		}
		renamed := m.RenameType2(src)
		fr, _ := FingerprintSource(renamed)
		if base != fr {
			t.Errorf("Type II rename changed fingerprint for %.40q", src)
		}
	}
}

// TestPropertyContractFillerIsTypeIII: adding a member keeps similarity high
// but not perfect from the larger side, and 100 from the original side.
func TestPropertyContractFillerIsTypeIII(t *testing.T) {
	m := dataset.NewMutator(12)
	for _, src := range corpusSources()[:10] {
		fa, _ := FingerprintSource(src)
		fb, _ := FingerprintSource(m.AddFiller(src))
		if len(fa) == 0 {
			continue
		}
		if s := similarity(fa, fb); s < 95 {
			t.Errorf("original→extended similarity %.2f for %.40q", s, src)
		}
	}
}

// TestPropertySimilarityBounds over cross pairs.
func TestPropertySimilarityBounds(t *testing.T) {
	srcs := corpusSources()
	var fps []Fingerprint
	for _, s := range srcs {
		fp, _ := FingerprintSource(s)
		fps = append(fps, fp)
	}
	for i := range fps {
		for j := range fps {
			s := similarity(fps[i], fps[j])
			if s < 0 || s > 100 {
				t.Fatalf("similarity out of range: %.2f", s)
			}
			got, ok := SimilarityAtLeast(fps[i], fps[j], 70)
			if ok != (s >= 70) {
				t.Fatalf("SimilarityAtLeast disagrees: %.2f vs %.2f (ok=%v)", got, s, ok)
			}
		}
	}
}

// TestPropertyCorpusMatchSupersetOfHigherEpsilon: lowering ε never removes
// matches.
func TestPropertyCorpusMatchMonotoneInEpsilon(t *testing.T) {
	srcs := corpusSources()
	strict := NewCorpus(Config{N: 3, Eta: 0.5, Epsilon: 90})
	loose := NewCorpus(Config{N: 3, Eta: 0.5, Epsilon: 70})
	for i, s := range srcs {
		id := string(rune('a' + i%26))
		_ = strict.AddSource(id, s)
		_ = loose.AddSource(id, s)
	}
	for _, s := range srcs {
		fp, _ := FingerprintSource(s)
		ms := strict.MatchTopK(fp, 0)
		ml := loose.MatchTopK(fp, 0)
		if len(ml) < len(ms) {
			t.Fatalf("ε=70 returned fewer matches (%d) than ε=90 (%d)", len(ml), len(ms))
		}
	}
}

// TestPropertySimilaritySymmetric: Algorithm 1 evaluated from the canonical
// (smaller) side is symmetric in its arguments, including the early-exit
// variant's verdict.
func TestPropertySimilaritySymmetric(t *testing.T) {
	srcs := corpusSources()
	var fps []Fingerprint
	for _, s := range srcs {
		fp, _ := FingerprintSource(s)
		fps = append(fps, fp)
	}
	for i := range fps {
		for j := i + 1; j < len(fps); j++ {
			ab := similarity(fps[i], fps[j])
			ba := similarity(fps[j], fps[i])
			if ab != ba {
				t.Fatalf("similarity not symmetric: %.4f vs %.4f (%d,%d)", ab, ba, i, j)
			}
			_, okAB := SimilarityAtLeast(fps[i], fps[j], 70)
			_, okBA := SimilarityAtLeast(fps[j], fps[i], 70)
			if okAB != okBA {
				t.Fatalf("SimilarityAtLeast verdict not symmetric (%d,%d)", i, j)
			}
		}
	}
}

// referenceMatches is the brute-force clone query MatchTopK must equal: for
// every entry, the distinct n-grams it shares with the query by set
// intersection (c); an entry with c ≥ η·|Q| and c ≥ 1 is scored with
// exactSimilarity and kept at ε or better, ordered by SortMatches. It shares
// neither the posting-list filter nor the bounded scorer with the corpus.
func referenceMatches(c *Corpus, fp Fingerprint) []Match {
	cfg := c.Config()
	gramSet := func(s string) map[string]bool {
		set := map[string]bool{}
		if len(s) <= cfg.N {
			if s != "" {
				set[s] = true
			}
			return set
		}
		for i := 0; i+cfg.N <= len(s); i++ {
			set[s[i:i+cfg.N]] = true
		}
		return set
	}
	query := gramSet(string(fp))
	var out []Match
	for _, e := range c.Entries() {
		shared := 0
		for g := range gramSet(string(e.FP)) {
			if query[g] {
				shared++
			}
		}
		if shared == 0 || float64(shared) < cfg.Eta*float64(len(query)) {
			continue
		}
		if score := exactSimilarity(fp, e.FP); score >= cfg.Epsilon {
			out = append(out, Match{ID: e.ID, Score: score})
		}
	}
	SortMatches(out)
	return out
}

// TestPropertyMatchTopKAgreesWithReference: on random corpora over every N,
// η and ε combination below, MatchTopK with an unbounded k returns exactly
// the brute-force reference set, and every finite k returns its prefix — the
// n-gram filter, the heap bound and the edit-distance cutoff are exact
// optimizations, not approximations.
func TestPropertyMatchTopKAgreesWithReference(t *testing.T) {
	m := dataset.NewMutator(23)
	srcs := corpusSources()
	rng := rand.New(rand.NewSource(99))
	trial := 0
	for _, n := range []int{3, 5, 7} {
		for _, eta := range []float64{0.3, 0.5, 0.9} {
			for _, eps := range []float64{0, 50, 70, 90} {
				checkTopKAgreesWithReference(t, trial, Config{N: n, Eta: eta, Epsilon: eps}, srcs, m, rng)
				trial++
			}
		}
	}
}

func checkTopKAgreesWithReference(t *testing.T, trial int, cfg Config, srcs []string, m *dataset.Mutator, rng *rand.Rand) {
	t.Helper()
	corpus := NewCorpus(cfg)
	docs := 10 + rng.Intn(30)
	for d := 0; d < docs; d++ {
		src := srcs[rng.Intn(len(srcs))]
		if rng.Intn(2) == 0 {
			src = m.Mutate(src, 1+rng.Intn(3))
		}
		_ = corpus.AddSource(fmt.Sprintf("doc-%d-%d", trial, d), src)
	}
	// The same corpus reopened as a zero-copy segment must agree match
	// for match: the block-compressed mapped read path is equivalence-
	// pinned against the freshly built in-heap index.
	var blob bytes.Buffer
	if err := corpus.Save(&blob); err != nil {
		t.Fatalf("trial %d: save: %v", trial, err)
	}
	seg, err := OpenSegmentBytes(blob.Bytes(), nil)
	if err != nil {
		t.Fatalf("trial %d: open segment: %v", trial, err)
	}
	var mb MatchBuffer
	var col TopK
	for q := 0; q < 10; q++ {
		src := srcs[rng.Intn(len(srcs))]
		if rng.Intn(2) == 0 {
			src = m.Mutate(src, 1+rng.Intn(3))
		}
		fp, _ := FingerprintSource(src)
		want := referenceMatches(corpus, fp)
		all := corpus.MatchTopK(fp, 0)
		if !matchesEqual(all, want) {
			t.Fatalf("trial %d (%v): MatchTopK(0) != reference:\n got %v\nwant %v", trial, cfg, all, want)
		}
		// The k sweep covers the tentpole's pinned points — 1, 10, 100,
		// and unbounded (k=0 above; len(want)+5 exceeds every match set
		// here, exercising the ∞ case through a finite k too).
		for _, k := range []int{1, 3, 10, 100, len(want), len(want) + 5} {
			if k == 0 {
				continue
			}
			got := corpus.MatchTopK(fp, k)
			expect := want[:min(k, len(want))]
			if !matchesEqual(got, expect) {
				t.Fatalf("trial %d k=%d:\n got %v\nwant %v", trial, k, got, expect)
			}
			fromSeg := seg.MatchTopK(fp, k)
			if !matchesEqual(fromSeg, expect) {
				t.Fatalf("trial %d k=%d: segment diverged:\n got %v\nwant %v", trial, k, fromSeg, expect)
			}
			buffered, _ := matchBuf(corpus, PrepareQuery(corpus.Config(), fp), k, &col, &mb, nil)
			if !matchesEqual(buffered, expect) {
				t.Fatalf("trial %d k=%d: MatchInto diverged:\n got %v\nwant %v", trial, k, buffered, expect)
			}
		}
	}
}

func matchesEqual(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPropertyNormalizeDeterministic over the corpus.
func TestPropertyNormalizeDeterministic(t *testing.T) {
	for _, src := range corpusSources() {
		a, _ := Normalize(src)
		b, _ := Normalize(src)
		ta := strings.Join(a.Tokens(), "\x00")
		tb := strings.Join(b.Tokens(), "\x00")
		if ta != tb {
			t.Fatalf("normalization not deterministic for %.40q", src)
		}
	}
}
