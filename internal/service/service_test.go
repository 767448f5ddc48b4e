package service

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ccc"
	"repro/internal/ccd"
)

// Vulnerable / benign snippet sources used across the tests. reentrantSrc
// triggers the reentrancy detector (state write after an external money
// call); benignSrc parses cleanly and triggers nothing.
const (
	reentrantSrc = `contract Victim {
	mapping(address => uint) balances;
	function withdraw() public {
		msg.sender.call{value: balances[msg.sender]}("");
		balances[msg.sender] = 0;
	}
}`
	benignSrc = `contract Safe {
	uint total;
	function deposit(uint amount) public {
		total = total + 1;
	}
}`
)

func TestContentKeyNormalizes(t *testing.T) {
	base := ContentKey(benignSrc)
	comments := ContentKey("// a comment\n" + benignSrc + "\n/* trailing */")
	spaced := ContentKey("  " + benignSrc + "\n\n")
	if base != comments || base != spaced {
		t.Errorf("normalized variants must share a key: %s %s %s", base, comments, spaced)
	}
	if base == ContentKey(reentrantSrc) {
		t.Error("distinct sources must not collide")
	}
}

func TestAnalyzeFindsVulnerabilityAndCaches(t *testing.T) {
	e := New(Options{Workers: 2})
	rep, err := e.Analyze(reentrantSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("no findings on reentrant source")
	}
	// Identical resubmission must hit the report cache.
	rep2, err := e.Analyze(reentrantSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Findings) != len(rep.Findings) {
		t.Errorf("cached report differs: %d vs %d findings", len(rep2.Findings), len(rep.Findings))
	}
	st := e.Metrics().ReportCache
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("report cache hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
	// A comment-only variant moves every finding down a line, so it is a
	// report of its own: a miss.
	if _, err := e.Analyze("// note\n" + reentrantSrc); err != nil {
		t.Fatal(err)
	}
	if st := e.Metrics().ReportCache; st.Hits != 1 || st.Misses != 2 {
		t.Errorf("comment variant: report cache hits=%d misses=%d, want 1/2", st.Hits, st.Misses)
	}
}

// TestCachedAnalysisReportsOwnLines: a source analyzed after a variant that
// differs only in comments and blank lines reports its own line and column
// numbers, through Analyze and AnalyzeBatch alike — the report cache never
// answers with the positions of another variant.
func TestCachedAnalysisReportsOwnLines(t *testing.T) {
	shifted := "// header\n\n\n" + reentrantSrc
	want, err := ccc.AnalyzeSource(shifted)
	if err != nil || len(want.Findings) == 0 {
		t.Fatalf("uncached analysis: %v, %d findings", err, len(want.Findings))
	}
	first, _ := ccc.AnalyzeSource(reentrantSrc)
	if first.Findings[0].Line == want.Findings[0].Line {
		t.Fatalf("fixture: both variants report line %d", first.Findings[0].Line)
	}
	e := New(Options{Workers: 2})
	if _, err := e.Analyze(reentrantSrc); err != nil {
		t.Fatal(err)
	}
	got, err := e.Analyze(shifted)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Findings, want.Findings) {
		t.Errorf("Analyze after a variant:\n got %+v\nwant %+v", got.Findings, want.Findings)
	}
	batch := e.AnalyzeBatch([]string{reentrantSrc, shifted})
	if batch[0].Key == batch[1].Key {
		t.Errorf("variants share report key %s", batch[0].Key)
	}
	if !reflect.DeepEqual(batch[1].Report.Findings, want.Findings) {
		t.Errorf("AnalyzeBatch after a variant:\n got %+v\nwant %+v", batch[1].Report.Findings, want.Findings)
	}
}

func TestAnalyzeErrorCached(t *testing.T) {
	e := New(Options{Workers: 1})
	const garbage = "pragma solidity ^0.4.0; contract {{{{"
	_, err1 := e.Analyze(garbage)
	_, err2 := e.Analyze(garbage)
	if (err1 == nil) != (err2 == nil) {
		t.Errorf("cache must replay errors: first=%v second=%v", err1, err2)
	}
}

func TestCacheEviction(t *testing.T) {
	c := newLRU[Key, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a", nil); !ok {
		t.Fatal("a evicted too early")
	}
	c.Put("c", 3) // evicts b (a was just used)
	if _, ok := c.Get("b", nil); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a", nil); !ok {
		t.Error("a should survive (recently used)")
	}
	if _, ok := c.Get("c", nil); !ok {
		t.Error("c should be present")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions=%d, want 1", st.Evictions)
	}
	if st.Len != 2 || st.Cap != 2 {
		t.Errorf("len=%d cap=%d, want 2/2", st.Len, st.Cap)
	}
}

func TestCacheDisabled(t *testing.T) {
	e := New(Options{Workers: 1, CacheEntries: -1})
	if _, err := e.Analyze(reentrantSrc); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Analyze(reentrantSrc); err != nil {
		t.Fatal(err)
	}
	st := e.Metrics().ReportCache
	if st.Hits != 0 || st.Len != 0 {
		t.Errorf("disabled cache recorded hits=%d len=%d", st.Hits, st.Len)
	}
}

func TestEngineBatchOrderPreserved(t *testing.T) {
	e := New(Options{Workers: 4})
	srcs := make([]string, 40)
	for i := range srcs {
		if i%2 == 0 {
			srcs[i] = fmt.Sprintf("contract C%d { uint x; function f() public { x = %d; } }", i, i)
		} else {
			srcs[i] = reentrantSrc
		}
	}
	out := e.AnalyzeBatch(srcs)
	if len(out) != len(srcs) {
		t.Fatalf("got %d results", len(out))
	}
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
		vulnerable := len(r.Report.Findings) > 0
		if vulnerable != (i%2 == 1) {
			t.Errorf("result %d: vulnerable=%v, want %v", i, vulnerable, i%2 == 1)
		}
	}
}

// TestConcurrentIngestAndMatch hammers the sharded corpus from many
// goroutines at once — half ingesting, half matching — and then verifies
// every ingested document is findable. Run under -race this is the
// concurrency safety net for the serving path.
func TestConcurrentIngestAndMatch(t *testing.T) {
	e := New(Options{Workers: 8})
	const writers, docsPerWriter, readers = 8, 25, 8

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for d := 0; d < docsPerWriter; d++ {
				id := fmt.Sprintf("c-%d-%d", w, d)
				if err := addSrc(e, id, reentrantSrc); err != nil {
					t.Errorf("add %s: %v", id, err)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, _, err := e.MatchSource(context.Background(), "", reentrantSrc, 0); err != nil {
					t.Errorf("match: %v", err)
				}
			}
		}()
	}
	wg.Wait()

	if n := e.Corpus().Len(); n != writers*docsPerWriter {
		t.Fatalf("corpus size %d, want %d", n, writers*docsPerWriter)
	}
	ms, _, err := e.MatchSource(context.Background(), "", reentrantSrc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != writers*docsPerWriter {
		t.Fatalf("identical source should match every entry: %d of %d", len(ms), writers*docsPerWriter)
	}
	for i := 1; i < len(ms); i++ {
		prev, cur := ms[i-1], ms[i]
		if prev.Score < cur.Score || (prev.Score == cur.Score && prev.ID >= cur.ID) {
			t.Fatalf("matches not in deterministic order at %d: %+v then %+v", i, prev, cur)
		}
	}
}

func TestCorpusGenerationsCompact(t *testing.T) {
	c := NewCorpus(ccd.DefaultConfig, 1) // one shard: inspect its chain directly
	const docs = 200
	for i := 0; i < docs; i++ {
		_ = c.Add(fmt.Sprintf("doc-%d", i), ccd.Fingerprint("abcdefgh"))
	}
	if c.Len() != docs {
		t.Fatalf("len %d", c.Len())
	}
	// Logarithmic compaction keeps the segment count O(log n): with 200
	// single adds there must be at most ⌈log₂ 200⌉ = 8 segments, each more
	// than twice its successor.
	g := c.shards[0].gen.Load()
	if len(g.segments) == 0 || len(g.segments) > 8 {
		t.Fatalf("segment count %d after %d adds", len(g.segments), docs)
	}
	total := 0
	for i, seg := range g.segments {
		total += seg.Len()
		if i > 0 && 2*seg.Len() >= g.segments[i-1].Len() {
			t.Errorf("segment %d (%d entries) not geometrically smaller than %d (%d)",
				i, seg.Len(), i-1, g.segments[i-1].Len())
		}
	}
	if total != docs {
		t.Fatalf("segments hold %d entries, want %d", total, docs)
	}
	if c.Publishes() == 0 || c.Compactions() == 0 {
		t.Errorf("publishes=%d compactions=%d, want both > 0", c.Publishes(), c.Compactions())
	}
}

// TestGenerationMovesOnEveryPublish: an add to any shard moves the corpus
// generation, the one on the fewest publishes included — /v1/clusters reads
// an unmoved generation as "the corpus is what the study saw".
func TestGenerationMovesOnEveryPublish(t *testing.T) {
	c := NewCorpus(ccd.DefaultConfig, 4)
	for i := 0; i < 40; i++ {
		before := c.Generation()
		if err := c.Add(fmt.Sprintf("doc-%d", i), testFP(i)); err != nil {
			t.Fatal(err)
		}
		if after := c.Generation(); after <= before {
			t.Fatalf("add %d: generation %d -> %d", i, before, after)
		}
	}
}

// TestCorpusShardPartitioning: documents spread across shards by id hash,
// every shard's entries stay findable, and Len/Segments aggregate cleanly.
func TestCorpusShardPartitioning(t *testing.T) {
	c := NewCorpus(ccd.DefaultConfig, 4)
	const docs = 120
	for i := 0; i < docs; i++ {
		if err := c.Add(fmt.Sprintf("doc-%d", i), testFP(i)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != docs {
		t.Fatalf("len %d, want %d", c.Len(), docs)
	}
	stats := c.ShardStats()
	if len(stats) != 4 {
		t.Fatalf("shard stats: %d", len(stats))
	}
	nonEmpty, total := 0, 0
	for _, st := range stats {
		total += st.Size
		if st.Size > 0 {
			nonEmpty++
		}
	}
	if total != docs {
		t.Fatalf("shard sizes sum to %d, want %d", total, docs)
	}
	if nonEmpty < 3 {
		t.Errorf("hash partitioning left %d of 4 shards populated", nonEmpty)
	}
	verifyEntries(t, c, docs)
}

// TestCorpusReadersNeverBlockOnWriters: a reader loaded generation stays
// fully usable while writers publish new ones, and reads observe
// monotonically growing corpora (no torn or shrinking states). The writer's
// work is fixed — every document here carries the same fingerprint, so each
// match scores the whole corpus, and a writer left unbounded makes every read
// slower the faster it publishes.
func TestCorpusReadersNeverBlockOnWriters(t *testing.T) {
	const writes = 400
	c := NewCorpus(ccd.DefaultConfig, 0)
	fp := ccd.Fingerprint("QxRtYuIoPAbCdEfGh.ZxCvBnMQwErTy")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: single adds (worst-case publish churn)
		defer wg.Done()
		for i := 0; i < writes; i++ {
			_ = c.Add(fmt.Sprintf("w-%d", i), fp)
		}
	}()
	read := func(prev int) int {
		n := c.Len()
		if n < prev {
			t.Fatalf("corpus shrank: %d after %d", n, prev)
		}
		ms, _ := c.MatchTopK(fp, 5)
		if len(ms) > 5 {
			t.Fatalf("top-5 returned %d matches", len(ms))
		}
		if len(ms) < min(n, 5) {
			t.Fatalf("top-5 returned %d matches over a corpus of at least %d clones", len(ms), n)
		}
		return n
	}
	prev := 0
	for prev < writes { // reads overlap the writer for as long as it runs
		prev = read(prev)
	}
	wg.Wait()

	// Readers hold no lock a writer needs, and the other way round: with
	// every shard's publish lock held, matching still answers.
	for _, sh := range c.shards {
		sh.pubMu.Lock()
	}
	read(prev)
	for _, sh := range c.shards {
		sh.pubMu.Unlock()
	}
}

func TestMapCoversAllIndicesOnce(t *testing.T) {
	e := New(Options{Workers: 3})
	const n = 500
	hits := make([]int32, n)
	var mu sync.Mutex
	e.Map(n, func(i int) {
		mu.Lock()
		hits[i]++
		mu.Unlock()
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d executed %d times", i, h)
		}
	}
	m := e.Metrics()
	if m.TasksExecuted != n {
		t.Errorf("tasks=%d, want %d", m.TasksExecuted, n)
	}
	if m.PeakBusyWorkers > int64(e.Workers()) {
		t.Errorf("peak busy %d exceeds pool %d", m.PeakBusyWorkers, e.Workers())
	}
	if m.BusyWorkers != 0 {
		t.Errorf("busy workers after quiescence: %d", m.BusyWorkers)
	}
}

// TestMapPropagatesPanic: a panic inside a pooled task must surface on the
// calling goroutine (so recover guards around batch work keep working), not
// crash the process from an internal worker goroutine.
func TestMapPropagatesPanic(t *testing.T) {
	e := New(Options{Workers: 4})
	defer func() {
		if p := recover(); p != "boom" {
			t.Fatalf("recovered %v, want boom", p)
		}
		// The pool must be fully released for subsequent work.
		e.Map(8, func(int) {})
		if busy := e.Metrics().BusyWorkers; busy != 0 {
			t.Fatalf("busy workers after panic drain: %d", busy)
		}
	}()
	e.Map(100, func(i int) {
		if i == 13 {
			panic("boom")
		}
	})
	t.Fatal("panic swallowed")
}

// TestEachHoldsNoSlot: Each dispatches without taking a worker slot, so its
// items may take one themselves — on a one-worker pool, where a slot held by
// Each would leave none for the items.
func TestEachHoldsNoSlot(t *testing.T) {
	e := New(Options{Workers: 1})
	var ran atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- e.Each(context.Background(), 4, func(int) {
			_ = e.DoCtx(context.Background(), func() { ran.Add(1) })
		})
	}()
	select {
	case err := <-done:
		if err != nil || ran.Load() != 4 {
			t.Fatalf("Each returned %v after %d of 4 items", err, ran.Load())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Each deadlocked: its items could not take a worker slot")
	}
}

// TestEachPropagatesPanic: a panic inside an Each item surfaces on the
// calling goroutine, as MapCtx's does.
func TestEachPropagatesPanic(t *testing.T) {
	e := New(Options{Workers: 4})
	defer func() {
		if p := recover(); p != "boom" {
			t.Fatalf("recovered %v, want boom", p)
		}
	}()
	_ = e.Each(context.Background(), 100, func(i int) {
		if i == 13 {
			panic("boom")
		}
	})
	t.Fatal("panic swallowed")
}

func TestMetricsSnapshot(t *testing.T) {
	e := New(Options{Workers: 2})
	if _, err := e.Analyze(benignSrc); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Analyze(benignSrc); err != nil {
		t.Fatal(err)
	}
	_ = addSrc(e, "a", benignSrc)
	if _, _, err := e.MatchSource(context.Background(), "", benignSrc, 0); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.Analyses != 2 || m.CorpusAdds != 1 || m.Matches != 1 {
		t.Errorf("op counts: %+v", m)
	}
	if m.Corpus.Size != 1 {
		t.Errorf("corpus size %d", m.Corpus.Size)
	}
	if got := m.ReportCache.HitRate(); got != 0.5 {
		t.Errorf("report hit rate %.2f, want 0.50", got)
	}
	// Fingerprint cache: miss on CorpusAdd, hit on Match of same source.
	if m.FingerprintCache.Hits == 0 {
		t.Error("fingerprint cache never hit")
	}
}
