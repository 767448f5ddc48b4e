package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ccd"
	"repro/internal/index"
	"repro/internal/trace"
)

// Corpus is a sharded, backend-pluggable similarity corpus with lock-free
// reads. Documents are hash-partitioned by id across N independent
// generation-shards; each shard is the generational structure this package
// has always used — readers load one atomic pointer to an immutable
// generation of segments, writers group-commit deltas and compact
// logarithmically — so ingest on one shard never contends with ingest on
// another, and matching never takes a lock at all.
//
// Matching is scatter-gather: MatchTopK fans the query out to every shard in
// parallel, the shards share one atomic admission bound (a strong match found
// in any shard immediately tightens the pruning cutoff of all the others),
// and the per-shard top-K lists merge through one bounded heap. The whole
// fan-out is context-cancellable: a disconnected client stops the scan at
// the next segment boundary.
//
// Segments are index.Backend instances, so the same sharding, snapshotting
// and scatter-gather machinery serves the paper's ccd matcher, the ssdeep
// CTPH comparator and the SmartEmbed structural embedder alike. Only a
// ccd-backed corpus can attach a Store (the WAL journals exactly what that
// backend indexes).
type Corpus struct {
	backend string
	cfg     index.Config
	shards  []*shard

	publishes   atomic.Int64
	compactions atomic.Int64
	remaps      atomic.Int64

	// Ingest accounting: adds that were indexed, skips the backend refused
	// (index.ErrDocUnsupported — e.g. fingerprint-only docs offered to
	// SmartEmbed), supersedes earlier copies replaced by a re-ingested id.
	adds       atomic.Int64
	skips      atomic.Int64
	supersedes atomic.Int64

	// Read-path funnel across all shards (per-backend metrics).
	matches        atomic.Int64
	candidates     atomic.Int64
	filterPruned   atomic.Int64
	scored         atomic.Int64
	cutoffSkipped  atomic.Int64
	cancelledReads atomic.Int64
	degradedReads  atomic.Int64

	// store, when non-nil, intercepts adds for write-ahead logging. Set once
	// during OpenStore, before the corpus serves traffic.
	store *Store
}

// shard is one independent generation chain plus its write delta.
type shard struct {
	// pendMu guards the write delta; held only to append one batch.
	pendMu   sync.Mutex
	pending  []index.Doc
	enqueued uint64 // docs ever enqueued

	// pubMu serializes publishing; held while a new generation is built.
	// The read path never touches it.
	pubMu     sync.Mutex
	published uint64 // docs ever published (≤ enqueued)

	// ids is the shard's live document-id set, maintained by publish and
	// snapshot restore under pubMu. A re-ingested id found here supersedes
	// its earlier copy: the stale segment is rebuilt without it, so
	// duplicate Adds replace instead of double-counting.
	ids map[string]struct{}

	gen atomic.Pointer[generation]

	// Per-shard read statistics. scanNs accumulates the wall time this
	// shard's scatter-gather leg spent scanning segments, so a hot or
	// oversized shard shows up as the fan-out's straggler in /metrics.
	matches    atomic.Int64
	candidates atomic.Int64
	scored     atomic.Int64
	scanNs     atomic.Int64
}

// generation is one immutable published state of a shard. Readers load it
// atomically and use it without synchronization; it is never mutated after
// the pointer swing.
type generation struct {
	segments []index.Backend // descending size, each immutable
	size     int             // total indexed docs across segments
	seq      uint64          // publish counter (diagnostics)
}

// NewCorpus returns an empty ccd-backed corpus with the given shard count
// (≤ 0 selects GOMAXPROCS). Zero-value cfg selects ccd.DefaultConfig.
func NewCorpus(cfg ccd.Config, shards int) *Corpus {
	c, err := NewBackendCorpus(index.BackendCCD, index.Config{CCD: cfg}, shards)
	if err != nil {
		panic(err) // the ccd backend is always registered
	}
	return c
}

// NewBackendCorpus returns an empty sharded corpus over the named similarity
// backend (see index.Names). shards ≤ 0 selects GOMAXPROCS.
func NewBackendCorpus(backend string, cfg index.Config, shards int) (*Corpus, error) {
	if !index.Known(backend) {
		return nil, fmt.Errorf("service: unknown backend %q (known: %v)", backend, index.Names())
	}
	if cfg.CCD.N == 0 {
		cfg.CCD = ccd.DefaultConfig
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	c := &Corpus{backend: backend, cfg: cfg, shards: make([]*shard, shards)}
	for i := range c.shards {
		c.shards[i] = &shard{}
		c.shards[i].gen.Store(&generation{})
	}
	return c, nil
}

// newSegment builds an empty backend segment under the corpus configuration.
func (c *Corpus) newSegment() index.Backend {
	b, err := index.New(c.backend, c.cfg)
	if err != nil {
		panic(err) // name validated at construction
	}
	return b
}

// Backend returns the similarity backend name this corpus runs on.
func (c *Corpus) Backend() string { return c.backend }

// Config returns the corpus's ccd matcher configuration.
func (c *Corpus) Config() ccd.Config { return c.cfg.CCD }

// BackendConfig returns the full backend configuration.
func (c *Corpus) BackendConfig() index.Config { return c.cfg }

// Shards returns the shard count.
func (c *Corpus) Shards() int { return len(c.shards) }

// shardFor routes a document id to its home shard.
func (c *Corpus) shardFor(id string) *shard {
	return c.shards[c.shardIndex(id)]
}

// Add indexes a fingerprint under an id. Safe for concurrent use. With a
// Store attached the entry is journaled first; a non-nil error means the
// entry was NOT acknowledged and is neither durable nor visible.
func (c *Corpus) Add(id string, fp ccd.Fingerprint) error {
	return c.AddDoc(index.Doc{ID: id, FP: fp})
}

// AddDoc indexes one document. With a Store attached the (id, fingerprint)
// pair is journaled before the document becomes visible; the raw source is
// not journaled (the ccd backend — the only one a store attaches to — does
// not index it).
func (c *Corpus) AddDoc(doc index.Doc) error {
	return c.AddDocsCtx(context.Background(), []index.Doc{doc})
}

// AddDocsCtx indexes docs, in order, as one batch: with a Store attached,
// one journal write and one group-commit fsync for all of them — a non-nil
// error means none was acknowledged, journaled or made visible — then one
// new segment and one publish per touched shard. Of several docs sharing an
// id the last one is live afterwards, as if they had been added one by one.
// The context carries the request's trace (WAL append and fsync wait land in
// its span tree); cancellation is not observed: a batch that reached the WAL
// is journaled and must publish.
func (c *Corpus) AddDocsCtx(ctx context.Context, docs []index.Doc) error {
	if c.store == nil {
		c.addDocsLocal(docs)
		return nil
	}
	// The store deals in what it journals: (id, fingerprint) pairs. Memory
	// indexes exactly those, so it always equals a replay of the log.
	entries := make([]ccd.Entry, len(docs))
	for i, d := range docs {
		entries[i] = ccd.Entry{ID: d.ID, FP: d.FP}
	}
	return c.store.addBatch(ctx, entries)
}

// addLocalBatch inserts fingerprint entries without journaling (a journaled
// batch, WAL boot replay). It returns once they are published.
func (c *Corpus) addLocalBatch(entries []ccd.Entry) {
	docs := make([]index.Doc, len(entries))
	for i, e := range entries {
		docs[i] = index.Doc{ID: e.ID, FP: e.FP}
	}
	c.addDocsLocal(docs)
}

// addDocsLocal partitions docs to their home shards, keeping their order,
// and publishes every touched shard, in parallel when the batch spans
// several. It returns once the docs are visible to readers. Empty batches
// are no-ops.
func (c *Corpus) addDocsLocal(docs []index.Doc) {
	if len(docs) == 0 {
		return
	}
	if len(docs) == 1 || len(c.shards) == 1 {
		sh := c.shardFor(docs[0].ID)
		c.publish(sh, sh.enqueue(docs))
		return
	}
	parts := make([][]index.Doc, len(c.shards))
	for _, d := range docs {
		i := c.shardIndex(d.ID)
		parts[i] = append(parts[i], d)
	}
	var wg sync.WaitGroup
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh *shard, part []index.Doc) {
			defer wg.Done()
			c.publish(sh, sh.enqueue(part))
		}(c.shards[i], part)
	}
	wg.Wait()
}

// enqueue appends docs to the shard's write delta and returns the enqueue
// watermark the caller must see published.
func (sh *shard) enqueue(docs []index.Doc) uint64 {
	sh.pendMu.Lock()
	defer sh.pendMu.Unlock()
	sh.pending = append(sh.pending, docs...)
	sh.enqueued += uint64(len(docs))
	return sh.enqueued
}

// publish makes every doc enqueued on sh at or before upTo visible.
// Whichever writer wins the shard's publish lock drains the whole delta —
// writers arriving while a publish is in flight usually find their docs
// already covered (group commit). A batch doc whose id is already live in
// the shard supersedes the earlier copy: the stale segments are rebuilt
// without it, so Len, the ingest stats and match results never see the same
// id twice.
func (c *Corpus) publish(sh *shard, upTo uint64) {
	sh.pubMu.Lock()
	defer sh.pubMu.Unlock()
	if sh.published >= upTo {
		return // a concurrent writer's publish covered us
	}
	sh.pendMu.Lock()
	batch := sh.pending
	sh.pending = nil
	sh.pendMu.Unlock()
	drained := uint64(len(batch)) // the watermark advances by drained docs, deduped or not

	// For ids enqueued more than once in this batch, the LAST copy the
	// segment accepts wins — not blindly the last copy, which the backend
	// may refuse (e.g. an FP-only doc on smartembed) even when an earlier
	// copy was indexable. Sequential ingest of the same docs indexes the
	// earlier copy and skips the refused one; the batch path must agree, or
	// the id silently drops out of the corpus.
	var dupCopies map[string][]index.Doc
	if len(batch) > 1 {
		count := make(map[string]int, len(batch))
		for _, d := range batch {
			count[d.ID]++
		}
		if len(count) < len(batch) {
			dupCopies = make(map[string][]index.Doc)
			for _, d := range batch {
				if count[d.ID] > 1 {
					dupCopies[d.ID] = append(dupCopies[d.ID], d)
				}
			}
		}
	}

	seg := c.newSegment()
	indexed := 0
	stale := make(map[string]struct{})
	if sh.ids == nil {
		sh.ids = make(map[string]struct{})
	}
	addOne := func(d index.Doc) bool {
		if err := seg.Add(d); err != nil {
			c.skips.Add(1)
			return false
		}
		indexed++
		if _, dup := sh.ids[d.ID]; dup {
			stale[d.ID] = struct{}{}
		} else {
			sh.ids[d.ID] = struct{}{}
		}
		return true
	}
	for _, d := range batch {
		copies, dup := dupCopies[d.ID]
		if !dup {
			addOne(d)
			continue
		}
		if copies == nil {
			continue // already resolved at the id's first position
		}
		dupCopies[d.ID] = nil
		won := false
		for i := len(copies) - 1; i >= 0; i-- {
			if won {
				// Every copy before the winner collapses under it and counts
				// as a supersede — even one the backend would have refused,
				// since acceptability is only observable by indexing (which
				// is exactly what the collapse avoids). Content matches
				// sequential ingest; this counter corner intentionally
				// doesn't.
				c.supersedes.Add(1)
				continue
			}
			won = addOne(copies[i])
		}
	}
	c.adds.Add(int64(indexed))

	old := sh.gen.Load()
	live := old.segments
	removed := 0
	if len(stale) > 0 {
		// Rebuild every published segment holding a superseded copy. The
		// rebuilt segments are fresh values, so concurrent readers keep
		// scanning the old generation untouched.
		live = make([]index.Backend, 0, len(old.segments))
		for _, s := range old.segments {
			if rem, ok := s.(index.EntryRemover); ok {
				rebuilt, n := rem.WithoutIDs(stale)
				removed += n
				if rebuilt.Len() == 0 {
					continue
				}
				live = append(live, rebuilt)
				continue
			}
			live = append(live, s) // cannot rebuild: the old copy survives
		}
		c.supersedes.Add(int64(removed))
	}
	segs := slices.Clip(slices.Clone(live))
	if indexed > 0 {
		segs = append(segs, seg)
	}
	// Logarithmic compaction: the tail merges while the newest segment has
	// reached at least half its predecessor, keeping sizes strictly
	// geometric and the segment count O(log n). How far that cascade reaches
	// follows from the segment sizes alone, so it is worked out first and
	// the merged segment built once, instead of re-indexing the same docs
	// at every step. Mapped segments are a compaction floor: merging one
	// would rebuild it on the heap and drop the zero-copy mapping, so deltas
	// above a mapped segment only merge among themselves — the next snapshot
	// remap is what collapses the whole shard back onto a single mapping.
	if last := len(segs) - 1; last >= 1 {
		lo, tail := last, segs[last].Len()
		for lo >= 1 && 2*tail >= segs[lo-1].Len() {
			if mr, ok := segs[lo-1].(index.MappedReporter); ok && mr.MappedSegment() {
				break
			}
			lo--
			tail += segs[lo].Len()
		}
		if lo < last {
			// Same-kind merges cannot fail; on error keep segments unmerged.
			if merged, err := segs[lo].Merge(segs[lo+1:]...); err == nil {
				segs = append(segs[:lo], merged)
				c.compactions.Add(1)
			}
		}
	}
	sh.gen.Store(&generation{
		segments: segs,
		size:     old.size + indexed - removed,
		seq:      old.seq + 1,
	})
	sh.published += drained
	c.publishes.Add(1)
}

// Len returns the number of indexed documents across all shards.
func (c *Corpus) Len() int {
	n := 0
	for _, sh := range c.shards {
		n += sh.gen.Load().size
	}
	return n
}

// Segments returns the total segment count across shards (diagnostics).
func (c *Corpus) Segments() int {
	n := 0
	for _, sh := range c.shards {
		n += len(sh.gen.Load().segments)
	}
	return n
}

// Generation returns the highest publish sequence number across shards.
func (c *Corpus) Generation() uint64 {
	var g uint64
	for _, sh := range c.shards {
		g = max(g, sh.gen.Load().seq)
	}
	return g
}

// Publishes reports generation publishes since boot.
func (c *Corpus) Publishes() int64 { return c.publishes.Load() }

// Compactions reports segment compactions since boot.
func (c *Corpus) Compactions() int64 { return c.compactions.Load() }

// Adds reports documents indexed since boot (duplicate Adds never
// double-count; see Supersedes).
func (c *Corpus) Adds() int64 { return c.adds.Load() }

// Skips reports documents refused by the backend
// (index.ErrDocUnsupported).
func (c *Corpus) Skips() int64 { return c.skips.Load() }

// Supersedes counts earlier copies replaced by a re-ingested id.
func (c *Corpus) Supersedes() int64 { return c.supersedes.Load() }

// Match returns every clone of fp at the backend's admission threshold, best
// first (score descending, ties by id). Lock-free.
func (c *Corpus) Match(fp ccd.Fingerprint) []ccd.Match {
	ms, _ := c.MatchTopK(fp, 0)
	return ms
}

// MatchTopK returns the k best clones of fp (k ≤ 0: all of them), best
// first, plus the pruning statistics of this query.
func (c *Corpus) MatchTopK(fp ccd.Fingerprint, k int) ([]ccd.Match, ccd.MatchStats) {
	ms, stats, _ := c.MatchDocTopK(context.Background(), index.Doc{FP: fp}, k)
	return ms, stats
}

// MatchDocTopK scatter-gathers doc's k best matches (k ≤ 0: all) across the
// shards: each shard scans its immutable generation in parallel, all shards
// share one atomic admission bound, and the per-shard top-K lists merge
// through one bounded heap. A cancelled ctx stops the scan at the next
// segment boundary and returns ctx.Err() with no matches.
func (c *Corpus) MatchDocTopK(ctx context.Context, doc index.Doc, k int) ([]ccd.Match, ccd.MatchStats, error) {
	return c.MatchDocTopKBound(ctx, doc, k, ccd.NewAtomicBound(0))
}

// MatchDocTopKBound is MatchDocTopK with a caller-seeded admission bound. A
// shard node serving a routed query seeds it with the bound shipped by the
// router, so the local scan prunes against evidence other partitions have
// already produced — exactly as a local generation-shard prunes against its
// siblings. The bound only ever rises; seeding 0 recovers MatchDocTopK.
func (c *Corpus) MatchDocTopKBound(ctx context.Context, doc index.Doc, k int, bound *ccd.AtomicBound) ([]ccd.Match, ccd.MatchStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if bound == nil {
		bound = ccd.NewAtomicBound(0)
	}
	q := &index.Query{Doc: doc, K: k, Ctx: ctx, Bound: bound, Eta: EtaOverrideOf(ctx)}
	if b, ok := BudgetOf(ctx); ok && !b.Deadline.IsZero() {
		// Phase split: the scan must yield early enough that merge and
		// response encoding still fit inside the request budget.
		q.ScanDeadline = b.ScanDeadline()
	}

	type shardResult struct {
		ms        []ccd.Match
		stats     ccd.MatchStats
		truncated bool
	}
	results := make([]shardResult, len(c.shards))
	scan := func(i int) {
		_, sp := trace.Start(ctx, "shard.scan")
		sp.AnnotateInt("shard", int64(i))
		start := time.Now()
		sh := c.shards[i]
		g := sh.gen.Load()
		res := &results[i]
		defer func() {
			sh.scanNs.Add(time.Since(start).Nanoseconds())
			sp.AnnotateInt("segments", int64(len(g.segments)))
			sp.AnnotateInt("candidates", int64(res.stats.Candidates))
			sp.AnnotateInt("scored", int64(res.stats.Scored))
			sp.AnnotateInt("filter_ns", res.stats.FilterNs)
			sp.AnnotateInt("score_ns", res.stats.ScoreNs)
			sp.End()
		}()
		for _, seg := range g.segments {
			if ctx.Err() != nil || q.Expired() {
				res.truncated = true
				return
			}
			ms, st := seg.MatchTopK(q)
			res.ms = append(res.ms, ms...)
			res.stats.Add(st)
		}
		sh.matches.Add(1)
		sh.candidates.Add(int64(res.stats.Candidates))
		sh.scored.Add(int64(res.stats.Scored))
	}
	if len(c.shards) == 1 {
		scan(0)
	} else {
		var wg sync.WaitGroup
		for i := range c.shards {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				scan(i)
			}(i)
		}
		wg.Wait()
	}

	_, merge := trace.Start(ctx, "match.merge")
	var stats ccd.MatchStats
	offered := 0
	truncated := false
	col := ccd.NewTopK(k, 0) // per-segment collectors already applied ε
	for i := range results {
		stats.Add(results[i].stats)
		truncated = truncated || results[i].truncated
		for _, m := range results[i].ms {
			col.Offer(m)
			offered++
		}
	}
	truncated = truncated || stats.Abandoned > 0
	merge.AnnotateInt("offered", int64(offered))
	merge.End()
	// Partial work (candidates, pruning) is real even when the query is
	// cancelled; only completed queries count as matches, mirroring the
	// per-shard counters (which the cancellation early-return also skips).
	c.candidates.Add(int64(stats.Candidates))
	c.filterPruned.Add(int64(stats.FilterPruned))
	c.scored.Add(int64(stats.Scored))
	c.cutoffSkipped.Add(int64(stats.CutoffSkipped))
	if err := ctx.Err(); err != nil {
		if DeadlineExpired(ctx) {
			// Time ran out but the client is still listening: hand back the
			// best-effort partial top-K instead of an empty error.
			c.degradedReads.Add(1)
			return col.Results(), stats, ErrBudgetExhausted
		}
		c.cancelledReads.Add(1)
		return nil, stats, err
	}
	if truncated {
		c.degradedReads.Add(1)
		return col.Results(), stats, ErrBudgetExhausted
	}
	c.matches.Add(1)
	return col.Results(), stats, nil
}

// entryMultiset returns the multiset of indexed (id, fingerprint) pairs,
// keyed id + NUL + fingerprint. Boot-time helper for idempotent WAL replay;
// only meaningful for backends exposing their entries (ccd).
func (c *Corpus) entryMultiset() map[string]int {
	out := make(map[string]int, c.Len())
	for _, sh := range c.shards {
		for _, seg := range sh.gen.Load().segments {
			lister, ok := seg.(index.EntryLister)
			if !ok {
				continue
			}
			for _, e := range lister.Entries() {
				out[e.ID+"\x00"+string(e.FP)]++
			}
		}
	}
	return out
}

// CorpusFunnel aggregates the corpus's read-path pruning counters.
type CorpusFunnel struct {
	Matches        int64 `json:"matches"`
	Candidates     int64 `json:"candidates"`
	FilterPruned   int64 `json:"filter_pruned"`
	Scored         int64 `json:"scored"`
	CutoffSkipped  int64 `json:"cutoff_skipped"`
	CancelledReads int64 `json:"cancelled_reads"`
	// DegradedReads counts scans whose budget expired mid-flight and that
	// returned a best-effort partial top-K instead of an error.
	DegradedReads int64 `json:"degraded_reads"`
}

// Funnel reports the corpus's cumulative match funnel.
func (c *Corpus) Funnel() CorpusFunnel {
	return CorpusFunnel{
		Matches:        c.matches.Load(),
		Candidates:     c.candidates.Load(),
		FilterPruned:   c.filterPruned.Load(),
		Scored:         c.scored.Load(),
		CutoffSkipped:  c.cutoffSkipped.Load(),
		CancelledReads: c.cancelledReads.Load(),
		DegradedReads:  c.degradedReads.Load(),
	}
}

// ShardSnapshot is a point-in-time view of one shard for /metrics. ScanUs
// is the cumulative wall time this shard's scatter-gather legs spent
// scanning — divergence across shards marks the fan-out's straggler.
type ShardSnapshot struct {
	Size       int    `json:"size"`
	Segments   int    `json:"segments"`
	Generation uint64 `json:"generation"`
	Matches    int64  `json:"matches"`
	Candidates int64  `json:"candidates"`
	Scored     int64  `json:"scored"`
	ScanUs     int64  `json:"scan_us"`
}

// ShardStats reports per-shard sizes and read activity.
func (c *Corpus) ShardStats() []ShardSnapshot {
	out := make([]ShardSnapshot, len(c.shards))
	for i, sh := range c.shards {
		g := sh.gen.Load()
		out[i] = ShardSnapshot{
			Size:       g.size,
			Segments:   len(g.segments),
			Generation: g.seq,
			Matches:    sh.matches.Load(),
			Candidates: sh.candidates.Load(),
			Scored:     sh.scored.Load(),
			ScanUs:     sh.scanNs.Load() / 1e3,
		}
	}
	return out
}

// --- whole-corpus snapshots ----------------------------------------------------

// Corpus snapshot envelope.
//
// Version 2 (shard-aware, backend-tagged):
//
//	magic   "SVCSNAP\x00"
//	uvarint version (2)
//	string  backend name (uvarint-length-prefixed)
//	uvarint N, float64 Eta, float64 Epsilon, float64 backend-Epsilon (Config)
//	uvarint shard count
//	per shard: uvarint segment count
//	           per segment: uvarint byte length, backend snapshot bytes
//
// Version 1 (legacy, pre-shard): a flat framed sequence of ccd.Corpus
// snapshots. Still loads — segments restore into the current shard layout
// (directly when one shard, re-partitioned by id hash otherwise).
//
// Integrity lives in the per-segment backend snapshots (each carries its own
// CRC-32); the envelope adds only framing. Segments are encoded and decoded
// in parallel.
const (
	corpusSnapshotMagic = "SVCSNAP\x00"
	// CorpusSnapshotVersion is the current snapshot envelope version.
	CorpusSnapshotVersion = 2
	// corpusSnapshotLegacy is the pre-shard envelope still accepted on read.
	corpusSnapshotLegacy = 1
)

// maxSegmentBytes bounds one encoded segment (defense against corrupt
// envelopes).
const maxSegmentBytes = 1 << 32 // 4 GiB

// maxSnapshotShards bounds the declared shard count on read.
const maxSnapshotShards = 1 << 12

// WriteSnapshot encodes every shard's published segments (in parallel — they
// are immutable, so no locks are needed) and writes the snapshot envelope.
// Entries added concurrently may or may not be included; each shard
// contributes one consistent published generation. Store.Snapshot provides
// the ingest-quiescent (and WAL-truncating) variant.
func (c *Corpus) WriteSnapshot(w io.Writer) error {
	type encSeg struct {
		data []byte
		err  error
	}
	perShard := make([][]index.Backend, len(c.shards))
	encoded := make([][]encSeg, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		perShard[i] = sh.gen.Load().segments
		encoded[i] = make([]encSeg, len(perShard[i]))
		for j := range perShard[i] {
			wg.Add(1)
			go func(i, j int) {
				defer wg.Done()
				var buf bytes.Buffer
				encoded[i][j].err = perShard[i][j].Snapshot(&buf)
				encoded[i][j].data = buf.Bytes()
			}(i, j)
		}
	}
	wg.Wait()
	for i := range encoded {
		for j := range encoded[i] {
			if err := encoded[i][j].err; err != nil {
				return fmt.Errorf("service: snapshot shard %d segment %d: %w", i, j, err)
			}
		}
	}

	bw := bufio.NewWriter(w)
	var scratch [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	writeFloat := func(f float64) error {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		_, err := bw.Write(buf[:])
		return err
	}
	if _, err := bw.WriteString(corpusSnapshotMagic); err != nil {
		return err
	}
	if err := writeUvarint(CorpusSnapshotVersion); err != nil {
		return err
	}
	if err := writeUvarint(uint64(len(c.backend))); err != nil {
		return err
	}
	if _, err := bw.WriteString(c.backend); err != nil {
		return err
	}
	if err := writeUvarint(uint64(c.cfg.CCD.N)); err != nil {
		return err
	}
	for _, f := range []float64{c.cfg.CCD.Eta, c.cfg.CCD.Epsilon, c.cfg.Epsilon} {
		if err := writeFloat(f); err != nil {
			return err
		}
	}
	if err := writeUvarint(uint64(len(encoded))); err != nil {
		return err
	}
	for _, shardSegs := range encoded {
		if err := writeUvarint(uint64(len(shardSegs))); err != nil {
			return err
		}
		for _, seg := range shardSegs {
			if err := writeUvarint(uint64(len(seg.data))); err != nil {
				return err
			}
			if _, err := bw.Write(seg.data); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadSnapshot restores a snapshot written by WriteSnapshot into this
// corpus, which must be empty and run the snapshot's backend. The snapshot's
// configuration replaces the corpus's own. When the shard counts match, the
// decoded segments install directly (byte-identical restore); otherwise the
// documents re-partition by id hash (or, for backends that cannot enumerate
// entries, segments spread round-robin). Pre-shard (version 1) snapshots
// restore the same way, as a one-shard layout.
func (c *Corpus) ReadSnapshot(r io.Reader) error {
	if c.Len() != 0 {
		return fmt.Errorf("service: restore into non-empty corpus (%d entries)", c.Len())
	}
	br := bufio.NewReader(r)
	magic := make([]byte, len(corpusSnapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("service: snapshot: read magic: %w", err)
	}
	if string(magic) != corpusSnapshotMagic {
		return fmt.Errorf("service: snapshot: bad magic %q", magic)
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("service: snapshot: read version: %w", err)
	}
	switch version {
	case corpusSnapshotLegacy:
		return c.readLegacySnapshot(br)
	case CorpusSnapshotVersion:
		return c.readShardedSnapshot(br)
	}
	return fmt.Errorf("service: snapshot: unsupported version %d (want %d or %d)",
		version, corpusSnapshotLegacy, CorpusSnapshotVersion)
}

// readShardedSnapshot parses the version-2 body.
func (c *Corpus) readShardedSnapshot(br *bufio.Reader) error {
	readFloat := func() (float64, error) {
		var buf [8]byte
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return 0, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(buf[:])), nil
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil || nameLen > 256 {
		return fmt.Errorf("service: snapshot: read backend name length: %w", orErr(err, "implausible"))
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return fmt.Errorf("service: snapshot: read backend name: %w", err)
	}
	if string(name) != c.backend {
		return fmt.Errorf("service: snapshot holds backend %q, corpus runs %q", name, c.backend)
	}
	var cfg index.Config
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("service: snapshot: read config: %w", err)
	}
	cfg.CCD.N = int(n)
	for _, dst := range []*float64{&cfg.CCD.Eta, &cfg.CCD.Epsilon, &cfg.Epsilon} {
		if *dst, err = readFloat(); err != nil {
			return fmt.Errorf("service: snapshot: read config: %w", err)
		}
	}
	shardCount, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("service: snapshot: read shard count: %w", err)
	}
	if shardCount == 0 || shardCount > maxSnapshotShards {
		return fmt.Errorf("service: snapshot: implausible shard count %d", shardCount)
	}
	perShard := make([][][]byte, shardCount)
	for i := range perShard {
		segCount, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("service: snapshot: shard %d segment count: %w", i, err)
		}
		if segCount > 1<<16 {
			return fmt.Errorf("service: snapshot: shard %d implausible segment count %d", i, segCount)
		}
		perShard[i] = make([][]byte, segCount)
		for j := range perShard[i] {
			size, err := binary.ReadUvarint(br)
			if err != nil {
				return fmt.Errorf("service: snapshot: shard %d segment %d length: %w", i, j, err)
			}
			if size > maxSegmentBytes {
				return fmt.Errorf("service: snapshot: shard %d segment %d length %d exceeds limit", i, j, size)
			}
			perShard[i][j] = make([]byte, size)
			if _, err := io.ReadFull(br, perShard[i][j]); err != nil {
				return fmt.Errorf("service: snapshot: shard %d segment %d: %w", i, j, err)
			}
		}
	}
	return c.installSnapshot(cfg, perShard)
}

// readLegacySnapshot parses the pre-shard (version 1) body: a flat ccd
// segment list, restored as a one-shard layout.
func (c *Corpus) readLegacySnapshot(br *bufio.Reader) error {
	if c.backend != index.BackendCCD {
		return fmt.Errorf("service: pre-shard snapshot holds backend %q, corpus runs %q", index.BackendCCD, c.backend)
	}
	segCount, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("service: snapshot: read segment count: %w", err)
	}
	if segCount == 0 || segCount > 1<<16 {
		return fmt.Errorf("service: snapshot: implausible segment count %d", segCount)
	}
	encoded := make([][]byte, segCount)
	for i := range encoded {
		size, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("service: snapshot: read segment %d length: %w", i, err)
		}
		if size > maxSegmentBytes {
			return fmt.Errorf("service: snapshot: segment %d length %d exceeds limit", i, size)
		}
		encoded[i] = make([]byte, size)
		if _, err := io.ReadFull(br, encoded[i]); err != nil {
			return fmt.Errorf("service: snapshot: read segment %d: %w", i, err)
		}
	}
	// Decode the first segment eagerly to learn the snapshot's config (the
	// legacy envelope does not carry one; even an empty placeholder segment
	// does). installSnapshot re-decodes all segments in parallel.
	probe, err := ccd.Load(bytes.NewReader(encoded[0]))
	if err != nil {
		return fmt.Errorf("service: snapshot: decode segment 0: %w", err)
	}
	return c.installSnapshot(index.Config{CCD: probe.Config()}, [][][]byte{encoded})
}

// segmentOpener materializes one backend segment from its snapshot bytes.
// heapOpener decodes to the heap; mappedOpener (segment.go) opens zero-copy
// over a memory mapping when the backend supports it.
type segmentOpener func(seg index.Backend, data []byte) error

// heapOpener is the default segment opener: a full streaming decode.
func heapOpener(seg index.Backend, data []byte) error {
	return seg.Restore(bytes.NewReader(data))
}

// installSnapshot decodes the framed segments (in parallel) under cfg and
// installs them: directly when the on-disk and in-memory shard counts match,
// re-partitioned otherwise.
func (c *Corpus) installSnapshot(cfg index.Config, perShard [][][]byte) error {
	return c.installSnapshotWith(cfg, perShard, heapOpener)
}

// installSnapshotWith is installSnapshot with an explicit segment opener.
func (c *Corpus) installSnapshotWith(cfg index.Config, perShard [][][]byte, open segmentOpener) error {
	if cfg.CCD.N == 0 {
		cfg.CCD = ccd.DefaultConfig
	}
	if err := validateSnapshotConfig(cfg); err != nil {
		return fmt.Errorf("service: snapshot: %w", err)
	}
	// The factory must build segments under the snapshot's config from here
	// on (Restore below double-checks by overwriting from decoded state).
	c.cfg = cfg

	decoded := make([][]index.Backend, len(perShard))
	errs := make([][]error, len(perShard))
	var wg sync.WaitGroup
	for i := range perShard {
		decoded[i] = make([]index.Backend, len(perShard[i]))
		errs[i] = make([]error, len(perShard[i]))
		for j := range perShard[i] {
			wg.Add(1)
			go func(i, j int) {
				defer wg.Done()
				seg := c.newSegment()
				if err := open(seg, perShard[i][j]); err != nil {
					errs[i][j] = err
					return
				}
				decoded[i][j] = seg
			}(i, j)
		}
	}
	wg.Wait()
	for i := range errs {
		for j, err := range errs[i] {
			if err != nil {
				return fmt.Errorf("service: snapshot: decode shard %d segment %d: %w", i, j, err)
			}
		}
	}
	// Every segment must agree with the envelope's configuration (Restore
	// adopts the decoded state's config): a forged or mixed-config snapshot
	// would otherwise match with wrong parameters — the prepared query is
	// derived once per query under one config and reused for every segment.
	for i := range decoded {
		for j, seg := range decoded[i] {
			if got := seg.Config(); got != cfg {
				return fmt.Errorf("service: snapshot: shard %d segment %d config %+v differs from snapshot config %+v",
					i, j, got, cfg)
			}
		}
	}

	install := make([][]index.Backend, len(c.shards))
	switch {
	case len(perShard) == len(c.shards):
		// Fast path: the layout matches — segments install byte-identically.
		for i := range decoded {
			install[i] = dropEmpty(decoded[i])
		}
	default:
		flat := dropEmpty(slices.Concat(decoded...))
		if entries, ok := allEntries(flat); ok {
			// Re-partition documents by id hash, one rebuilt segment per
			// shard, restoring the write-balance invariant.
			parts := make([][]ccd.Entry, len(c.shards))
			for _, e := range entries {
				i := c.shardIndex(e.ID)
				parts[i] = append(parts[i], e)
			}
			var wg sync.WaitGroup
			rebuildErrs := make([]error, len(c.shards))
			for i := range c.shards {
				if len(parts[i]) == 0 {
					continue
				}
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					seg := c.newSegment()
					for _, e := range parts[i] {
						if err := seg.Add(index.Doc{ID: e.ID, FP: e.FP}); err != nil {
							rebuildErrs[i] = err
							return
						}
					}
					install[i] = []index.Backend{seg}
				}(i)
			}
			wg.Wait()
			for _, err := range rebuildErrs {
				if err != nil {
					return fmt.Errorf("service: snapshot: re-partition: %w", err)
				}
			}
		} else {
			// Backends that cannot enumerate entries: spread whole segments
			// round-robin (reads scan every shard, so placement is free).
			for i, seg := range flat {
				idx := i % len(c.shards)
				install[idx] = append(install[idx], seg)
			}
		}
	}

	for i, sh := range c.shards {
		segs := install[i]
		slices.SortStableFunc(segs, func(a, b index.Backend) int { return b.Len() - a.Len() })
		size := 0
		for _, s := range segs {
			size += s.Len()
		}
		ids := make(map[string]struct{}, size)
		for _, s := range segs {
			if lister, ok := s.(index.IDLister); ok {
				for _, id := range lister.IDs() {
					ids[id] = struct{}{}
				}
			}
		}
		sh.pubMu.Lock()
		sh.ids = ids
		sh.gen.Store(&generation{segments: segs, size: size, seq: 1})
		sh.pubMu.Unlock()
	}
	return nil
}

// shardIndex computes a document id's home shard (FNV-1a).
func (c *Corpus) shardIndex(id string) int {
	if len(c.shards) == 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(id))
	return int(h.Sum32() % uint32(len(c.shards)))
}

// validateSnapshotConfig bounds a snapshot's matcher configuration to the
// parameter domain before any segment is installed. The envelope carries the
// config as raw ints/floats with no CRC of its own, and an implausible value
// must fail the restore here — a negative N or NaN threshold would otherwise
// take down the process on the first Add or Match.
func validateSnapshotConfig(cfg index.Config) error {
	if cfg.CCD.N < 1 || cfg.CCD.N > 1<<10 {
		return fmt.Errorf("implausible n-gram size %d", cfg.CCD.N)
	}
	inRange := func(v, lo, hi float64) bool {
		return !math.IsNaN(v) && v >= lo && v <= hi
	}
	if !inRange(cfg.CCD.Eta, 0, 1) {
		return fmt.Errorf("containment threshold %v outside [0,1]", cfg.CCD.Eta)
	}
	if !inRange(cfg.CCD.Epsilon, 0, 100) {
		return fmt.Errorf("similarity threshold %v outside [0,100]", cfg.CCD.Epsilon)
	}
	if !inRange(cfg.Epsilon, 0, 100) {
		return fmt.Errorf("backend threshold %v outside [0,100]", cfg.Epsilon)
	}
	return nil
}

// dropEmpty removes zero-length segments (empty-corpus placeholders).
func dropEmpty(segs []index.Backend) []index.Backend {
	out := segs[:0:len(segs)]
	for _, s := range segs {
		if s != nil && s.Len() > 0 {
			out = append(out, s)
		}
	}
	return out
}

// ShardEntries returns shard i's indexed entries sorted by id, or false
// when the shard's backend cannot enumerate them. It reads the shard's
// current immutable generation, so it is safe under concurrent ingest; the
// sorted order is what gives the paginated NDJSON export a stable cursor.
func (c *Corpus) ShardEntries(i int) ([]ccd.Entry, bool) {
	if i < 0 || i >= len(c.shards) {
		return nil, false
	}
	entries, ok := allEntries(c.shards[i].gen.Load().segments)
	if !ok {
		return nil, false
	}
	slices.SortFunc(entries, func(a, b ccd.Entry) int {
		if a.ID < b.ID {
			return -1
		}
		if a.ID > b.ID {
			return 1
		}
		return 0
	})
	return entries, true
}

// allEntries flattens the (id, fingerprint) pairs of every segment, or
// reports false when a segment cannot enumerate them.
func allEntries(segs []index.Backend) ([]ccd.Entry, bool) {
	var out []ccd.Entry
	for _, s := range segs {
		lister, ok := s.(index.EntryLister)
		if !ok {
			return nil, false
		}
		out = append(out, lister.Entries()...)
	}
	return out, true
}

// orErr returns err when non-nil, else an error built from fallback.
func orErr(err error, fallback string) error {
	if err != nil {
		return err
	}
	return errors.New(fallback)
}
