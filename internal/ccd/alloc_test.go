package ccd

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// syntheticFPs builds n fingerprints with sub-fingerprint structure and
// planted near-duplicates (every clone group shares a base with one-character
// edits), so matches at ε=70 actually exist and the scoring loop runs.
func syntheticFPs(n int, seed int64) []Fingerprint {
	rng := rand.New(rand.NewSource(seed))
	const alphabet = "QxRtYuIoPAbCdEfGhZvNmWqSjKl"
	fps := make([]Fingerprint, 0, n)
	var sb strings.Builder
	for len(fps) < n {
		sb.Reset()
		subs := 1 + rng.Intn(4)
		for s := 0; s < subs; s++ {
			if s > 0 {
				sb.WriteByte(FuncSep)
			}
			l := 8 + rng.Intn(30)
			for j := 0; j < l; j++ {
				sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
			}
		}
		base := sb.String()
		group := 1 + rng.Intn(4)
		for v := 0; v < group && len(fps) < n; v++ {
			fp := base
			if v > 0 {
				b := []byte(base)
				b[rng.Intn(len(b))] = alphabet[rng.Intn(len(alphabet))]
				fp = string(b)
			}
			fps = append(fps, Fingerprint(fp))
		}
	}
	return fps
}

func allocCorpus(tb testing.TB, docs int) (*Corpus, []Fingerprint) {
	tb.Helper()
	fps := syntheticFPs(docs, 77)
	c := NewCorpus(DefaultConfig)
	for i, fp := range fps {
		c.Add(idFor(i), fp)
	}
	return c, fps
}

func idFor(i int) string {
	// Fixed-width ids so id allocation happens at build, not match, time.
	const digits = "0123456789"
	b := []byte("doc-00000")
	for p := len(b) - 1; i > 0; p-- {
		b[p] = digits[i%10]
		i /= 10
	}
	return string(b)
}

// matchBuf runs the streaming entry the way the service's shard scan does —
// a query prepared once, a collector re-armed in place, caller-owned scratch —
// and drains the collector into out.
func matchBuf(c *Corpus, q *PreparedQuery, k int, col *TopK, mb *MatchBuffer, out []Match) ([]Match, MatchStats) {
	stats := c.MatchInto(q, col.Reset(k, c.Config().Epsilon), mb, MatchOpts{})
	return col.AppendResults(out[:0]), stats
}

func prepareAll(c *Corpus, fps []Fingerprint) []*PreparedQuery {
	out := make([]*PreparedQuery, len(fps))
	for i, fp := range fps {
		out[i] = PrepareQuery(c.Config(), fp)
	}
	return out
}

// TestMatchTopKBufZeroAllocs pins the headline property of the buffered match
// path: a steady-state MatchInto at k=10 — prepared query, warm buffer,
// re-armed collector — performs zero heap allocations. The buffer is held
// explicitly rather than drawn from the pool inside the measured loop — a GC
// during AllocsPerRun may clear sync.Pool, and a cold buffer's scratch growth
// is setup cost, not steady-state cost. Warm-up runs every query in the
// rotation first so all scratch reaches its high-water mark before
// measurement.
func TestMatchTopKBufZeroAllocs(t *testing.T) {
	corpus, fps := allocCorpus(t, 2000)
	queries := prepareAll(corpus, fps[:16])
	var mb MatchBuffer
	var col TopK
	var out []Match
	for _, q := range queries {
		if out, _ = matchBuf(corpus, q, 10, &col, &mb, out); len(out) == 0 {
			t.Fatalf("query matched nothing; fixture is not exercising the scoring loop")
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		out, _ = matchBuf(corpus, queries[i%len(queries)], 10, &col, &mb, out)
		i++
	})
	if allocs != 0 {
		t.Fatalf("MatchInto k=10: %.1f allocs/op, want 0", allocs)
	}
}

// TestMatchTopKBufBoundedAllocsLargeK: at k=1000 the heap and result buffers
// are big but still reused — after warm-up the path stays allocation-free;
// the assertion leaves slack only for incidental runtime noise.
func TestMatchTopKBufBoundedAllocsLargeK(t *testing.T) {
	corpus, fps := allocCorpus(t, 2000)
	queries := prepareAll(corpus, fps[:8])
	var mb MatchBuffer
	var col TopK
	var out []Match
	for _, q := range queries {
		out, _ = matchBuf(corpus, q, 1000, &col, &mb, out)
	}
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		out, _ = matchBuf(corpus, queries[i%len(queries)], 1000, &col, &mb, out)
		i++
	})
	if allocs > 2 {
		t.Fatalf("MatchInto k=1000: %.1f allocs/op, want <= 2", allocs)
	}
}

// TestMatchBufferPoolConcurrent hammers the pooled path from many goroutines
// (the race job turns this into the pool-reuse soundness check): every
// goroutine must see exactly the results a cold path computes.
func TestMatchBufferPoolConcurrent(t *testing.T) {
	corpus, fps := allocCorpus(t, 500)
	queries := fps[:8]
	want := make([][]Match, len(queries))
	for i, q := range queries {
		want[i] = corpus.MatchTopK(q, 10)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 40; rep++ {
				qi := (g + rep) % len(queries)
				mb := GetMatchBuffer()
				var col TopK
				got, _ := matchBuf(corpus, PrepareQuery(corpus.Config(), queries[qi]), 10, &col, mb, nil)
				if !matchesEqual(got, want[qi]) {
					select {
					case errs <- "pooled result diverged from cold result":
					default:
					}
				}
				mb.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestMatchTopKBufMatchesStats: the buffered streaming path and the pooled
// convenience wrapper return identical matches, and the stats account for
// every candidate.
func TestMatchTopKBufMatchesStats(t *testing.T) {
	corpus, fps := allocCorpus(t, 800)
	var mb MatchBuffer
	var col TopK
	for _, q := range fps[:12] {
		for _, k := range []int{1, 10, 0} {
			gotB, st := matchBuf(corpus, PrepareQuery(corpus.Config(), q), k, &col, &mb, nil)
			gotS := corpus.MatchTopK(q, k)
			if !matchesEqual(gotB, gotS) {
				t.Fatalf("k=%d: buf %v != MatchTopK %v", k, gotB, gotS)
			}
			if st.Scored+st.CutoffSkipped != st.Candidates || st.Scored < len(gotB) {
				t.Fatalf("k=%d: stats do not add up for %d matches: %+v", k, len(gotB), st)
			}
		}
	}
}
