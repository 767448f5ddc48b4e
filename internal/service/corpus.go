package service

import (
	"bytes"
	"context"
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

	"repro/internal/binfmt"
	"repro/internal/ccd"
	"repro/internal/trace"
)

// Corpus is a sharded ccd clone-detection corpus with lock-free reads.
// Documents are hash-partitioned by id across N independent
// generation-shards; each shard is the generational structure this package
// has always used — readers load one atomic pointer to an immutable
// generation of segments, writers group-commit deltas and compact
// logarithmically — so ingest on one shard never contends with ingest on
// another, and matching never takes a lock at all.
//
// Matching is scatter-gather through Gather, the loop a router shares over
// remote shard nodes: MatchTopK scans every shard in parallel, the shards
// share one atomic admission bound (a strong match found in any shard
// immediately tightens the pruning cutoff of all the others), and the
// per-shard top-K lists merge through one bounded heap. The whole
// fan-out is context-cancellable: a disconnected client stops the scan at
// the next segment boundary.
//
// A segment is an immutable *ccd.Corpus: built once from a batch (or merged,
// rebuilt or opened over snapshot bytes), then only read.
type Corpus struct {
	cfg    ccd.Config
	shards []*shard

	publishes   atomic.Int64
	compactions atomic.Int64
	remaps      atomic.Int64

	// Ingest accounting: adds that were indexed, supersedes earlier copies
	// replaced by a re-ingested id.
	adds       atomic.Int64
	supersedes atomic.Int64

	// Read-path funnel across all shards.
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
	pending  []ccd.Entry
	enqueued uint64 // entries ever enqueued

	// pubMu serializes publishing; held while a new generation is built.
	// The read path never touches it.
	pubMu     sync.Mutex
	published uint64 // entries ever published (≤ enqueued)

	// ids is the shard's live document-id set, maintained by publish and
	// snapshot restore under pubMu. A re-ingested id found here supersedes
	// its earlier copy: the stale segment is spliced without it, so
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
	segments []*ccd.Corpus // descending size, each immutable
	size     int           // total indexed docs across segments
	seq      uint64        // publish counter (diagnostics)
}

// NewCorpus returns an empty corpus with the given shard count (≤ 0 selects
// GOMAXPROCS). Zero-value cfg selects ccd.DefaultConfig.
func NewCorpus(cfg ccd.Config, shards int) *Corpus {
	if cfg.N == 0 {
		cfg = ccd.DefaultConfig
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	c := &Corpus{cfg: cfg, shards: make([]*shard, shards)}
	for i := range c.shards {
		c.shards[i] = &shard{}
		c.shards[i].gen.Store(&generation{})
	}
	return c
}

// Config returns the corpus's matcher configuration.
func (c *Corpus) Config() ccd.Config { return c.cfg }

// Epsilon returns the corpus's admission threshold on the 0-100 score scale.
func (c *Corpus) Epsilon() float64 { return c.cfg.Epsilon }

// Shards returns the shard count.
func (c *Corpus) Shards() int { return len(c.shards) }

// shardFor routes a document id to its home shard.
func (c *Corpus) shardFor(id string) *shard {
	return c.shards[c.shardIndex(id)]
}

// Add indexes a fingerprint under an id: a batch of one. Safe for concurrent
// use.
func (c *Corpus) Add(id string, fp ccd.Fingerprint) error {
	return c.AddBatch(context.Background(), []ccd.Entry{{ID: id, FP: fp}})
}

// AddBatch indexes entries, in order, as one batch: with a Store attached,
// one journal write and one group-commit fsync for all of them — a non-nil
// error means none was acknowledged, journaled or made visible — then one
// new segment and one publish per touched shard. Every acknowledged entry is
// indexed (an empty fingerprint has no n-grams and matches nothing). Of
// several entries sharing an id the last one is live afterwards, as if they
// had been added one by one. The context carries the request's trace (WAL
// append and fsync wait land in its span tree); cancellation is not
// observed: a batch that reached the WAL is journaled and must publish.
func (c *Corpus) AddBatch(ctx context.Context, entries []ccd.Entry) error {
	if c.store == nil {
		c.addLocalBatch(entries)
		return nil
	}
	return c.store.addBatch(ctx, entries)
}

// addLocalBatch partitions entries to their home shards without journaling
// (a journaled batch, WAL boot replay, a storeless corpus), keeping their
// order, and publishes every touched shard, in parallel when the batch spans
// several. It returns once the entries are visible to readers. Empty batches
// are no-ops.
func (c *Corpus) addLocalBatch(entries []ccd.Entry) {
	if len(entries) == 0 {
		return
	}
	if len(entries) == 1 || len(c.shards) == 1 {
		sh := c.shardFor(entries[0].ID)
		c.publish(sh, sh.enqueue(entries))
		return
	}
	parts := make([][]ccd.Entry, len(c.shards))
	for _, e := range entries {
		i := c.shardIndex(e.ID)
		parts[i] = append(parts[i], e)
	}
	var wg sync.WaitGroup
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh *shard, part []ccd.Entry) {
			defer wg.Done()
			c.publish(sh, sh.enqueue(part))
		}(c.shards[i], part)
	}
	wg.Wait()
}

// enqueue appends entries to the shard's write delta and returns the enqueue
// watermark the caller must see published.
func (sh *shard) enqueue(entries []ccd.Entry) uint64 {
	sh.pendMu.Lock()
	defer sh.pendMu.Unlock()
	sh.pending = append(sh.pending, entries...)
	sh.enqueued += uint64(len(entries))
	return sh.enqueued
}

// publish makes every entry enqueued on sh at or before upTo visible.
// Whichever writer wins the shard's publish lock drains the whole delta —
// writers arriving while a publish is in flight usually find their entries
// already covered (group commit). A batch entry whose id is already live in
// the shard supersedes the earlier copy: the stale segments are spliced
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

	// Of several batch entries sharing an id the last copy wins, placed at
	// the id's first position; the copies under it count as supersedes —
	// the outcome of adding them one by one.
	lastCopy := make(map[string]int, len(batch))
	for i, e := range batch {
		lastCopy[e.ID] = i
	}
	seg := ccd.NewCorpus(c.cfg)
	stale := make(map[string]struct{})
	if sh.ids == nil {
		sh.ids = make(map[string]struct{})
	}
	for _, e := range batch {
		winner := lastCopy[e.ID]
		if winner < 0 {
			continue // resolved at the id's first position
		}
		lastCopy[e.ID] = -1
		e = batch[winner]
		seg.Add(e.ID, e.FP)
		if _, dup := sh.ids[e.ID]; dup {
			stale[e.ID] = struct{}{}
		} else {
			sh.ids[e.ID] = struct{}{}
		}
	}
	seg.BuildBitmaps() // the segment is complete; readers only query it from here
	indexed := seg.Len()
	c.adds.Add(int64(indexed))
	c.supersedes.Add(int64(len(batch) - indexed))

	old := sh.gen.Load()
	live := old.segments
	removed := 0
	if len(stale) > 0 {
		// Splice every published segment holding a superseded copy. The
		// spliced segments are fresh values, so concurrent readers keep
		// scanning the old generation untouched.
		live = make([]*ccd.Corpus, 0, len(old.segments))
		for _, s := range old.segments {
			kept, n := s.WithoutIDs(stale)
			removed += n
			if kept.Len() > 0 {
				live = append(live, kept)
			}
		}
		c.supersedes.Add(int64(removed))
	}
	segs := append(slices.Clip(slices.Clone(live)), seg)
	// Logarithmic compaction: the tail merges while the newest segment has
	// reached at least half its predecessor, keeping sizes strictly
	// geometric and the segment count O(log n). How far that cascade reaches
	// follows from the segment sizes alone, so it is worked out first and
	// the merged segment spliced once, instead of splicing the same docs
	// at every step. Mapped segments are a compaction floor: merging one
	// would copy it onto the heap and drop the zero-copy mapping, so deltas
	// above a mapped segment only merge among themselves — the next snapshot
	// remap is what collapses the whole shard back onto a single mapping.
	if last := len(segs) - 1; last >= 1 {
		lo, tail := last, segs[last].Len()
		for lo >= 1 && 2*tail >= segs[lo-1].Len() && !segs[lo-1].Mapped() {
			lo--
			tail += segs[lo].Len()
		}
		if lo < last {
			segs = append(segs[:lo], ccd.Merge(segs[lo:]...))
			c.compactions.Add(1)
		}
	}
	sh.gen.Store(&generation{
		segments: segs,
		size:     old.size + indexed - removed,
		seq:      old.seq + 1,
	})
	sh.published += uint64(len(batch)) // the watermark advances by drained entries, deduped or not
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

// Supersedes counts earlier copies replaced by a re-ingested id.
func (c *Corpus) Supersedes() int64 { return c.supersedes.Load() }

// MatchTopK returns the k best clones of fp (k ≤ 0: every clone at the
// corpus's admission threshold), best first (score descending, ties by id),
// plus the pruning statistics of this query. Lock-free.
func (c *Corpus) MatchTopK(fp ccd.Fingerprint, k int) ([]ccd.Match, ccd.MatchStats) {
	ms, stats, _ := c.MatchTopKCtx(context.Background(), fp, k, nil)
	return ms, stats
}

// MatchTopKCtx finds fp's k best matches (k ≤ 0: all) across the shards: the
// query is prepared once and Gather scans every shard's immutable generation
// in one parallel wave. A cancelled ctx stops the scan at the next segment
// boundary and returns ctx.Err() with no matches; a request budget on ctx
// that expires mid-scan returns the best-effort partial top-K with
// ErrBudgetExhausted.
//
// bound, when non-nil, seeds the admission bound. A shard node serving a
// routed query passes the bound shipped by the router, so the local scan
// prunes against evidence other partitions have already produced — exactly
// as a local generation-shard prunes against its siblings.
func (c *Corpus) MatchTopKCtx(ctx context.Context, fp ccd.Fingerprint, k int, bound *ccd.AtomicBound) ([]ccd.Match, ccd.MatchStats, error) {
	if bound == nil {
		bound = ccd.NewAtomicBound(0)
	}
	q := ccd.PrepareQuery(c.cfg, fp)
	var opts ccd.MatchOpts
	if b, ok := BudgetOf(ctx); ok && !b.Deadline.IsZero() {
		// Phase split: the scan must yield early enough that merge and
		// response encoding still fit inside the request budget.
		scanDeadline := b.ScanDeadline()
		opts.Abandon = func() bool { return !time.Now().Before(scanDeadline) }
	}

	scan := func(i int, bound *ccd.AtomicBound) (ms []ccd.Match, stats ccd.MatchStats, err error) {
		_, sp := trace.Start(ctx, "shard.scan")
		sp.AnnotateInt("shard", int64(i))
		start := time.Now()
		sh := c.shards[i]
		g := sh.gen.Load()
		mb := ccd.GetMatchBuffer()
		defer func() {
			mb.Release()
			sh.scanNs.Add(time.Since(start).Nanoseconds())
			sp.AnnotateInt("segments", int64(len(g.segments)))
			sp.AnnotateInt("candidates", int64(stats.Candidates))
			sp.AnnotateInt("scored", int64(stats.Scored))
			sp.AnnotateInt("filter_ns", stats.FilterNs)
			sp.AnnotateInt("score_ns", stats.ScoreNs)
			sp.End()
		}()
		// One collector per segment, re-armed in place: each applies ε and
		// the shared bound on its own, and Gather's merge settles ties.
		var col ccd.TopK
		for _, seg := range g.segments {
			if ctx.Err() != nil || (opts.Abandon != nil && opts.Abandon()) {
				return ms, stats, ErrBudgetExhausted
			}
			st := seg.MatchInto(q, col.Reset(k, c.cfg.Epsilon).Share(bound), mb, opts)
			ms = col.AppendResults(ms)
			stats.Add(st)
		}
		sh.matches.Add(1)
		sh.candidates.Add(int64(stats.Candidates))
		sh.scored.Add(int64(stats.Scored))
		return ms, stats, nil
	}
	g, err := Gather(ctx, len(c.shards), 1, k, bound, scan)
	// Partial work (candidates, pruning) is real even when the query is
	// cancelled; only completed queries count as matches, mirroring the
	// per-shard counters (which a scan stopped early also skips).
	c.candidates.Add(int64(g.Stats.Candidates))
	c.filterPruned.Add(int64(g.Stats.FilterPruned))
	c.scored.Add(int64(g.Stats.Scored))
	c.cutoffSkipped.Add(int64(g.Stats.CutoffSkipped))
	switch {
	case err == nil:
		c.matches.Add(1)
	case errors.Is(err, ErrBudgetExhausted):
		c.degradedReads.Add(1)
	default:
		c.cancelledReads.Add(1)
	}
	return g.Matches, g.Stats, err
}

// entryMultiset returns the multiset of indexed (id, fingerprint) pairs,
// keyed id + NUL + fingerprint. Boot-time helper for idempotent WAL replay.
func (c *Corpus) entryMultiset() map[string]int {
	out := make(map[string]int, c.Len())
	for _, sh := range c.shards {
		for _, seg := range sh.gen.Load().segments {
			for _, e := range seg.Entries() {
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

// Corpus snapshot envelope (version 2, the only one read or written):
//
//	magic   "SVCSNAP\x00"
//	uvarint version (2)
//	string  backend name (uvarint-length-prefixed): the constant "ccd"
//	uvarint N, float64 Eta, float64 Epsilon, float64 0 (Config; the fourth
//	        float was a per-backend ε override that nothing ever set)
//	uvarint shard count
//	per shard: uvarint segment count
//	           per segment: uvarint byte length, ccd snapshot bytes
//
// A reader refuses any other version ("unsupported version"), any other
// backend name and a non-zero fourth float. Integrity lives in the
// per-segment ccd snapshots (each carries its own CRC-32); the envelope adds
// only framing. Segments are encoded and decoded in parallel.
const (
	corpusSnapshotMagic = "SVCSNAP\x00"
	// CorpusSnapshotVersion is the snapshot envelope version.
	CorpusSnapshotVersion = 2
	// BackendCCD is the one similarity backend: the name the snapshot
	// envelope carries and the only one a request may select.
	BackendCCD = "ccd"
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
	perShard := make([][]*ccd.Corpus, len(c.shards))
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
				encoded[i][j].err = perShard[i][j].Save(&buf)
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

	bw := binfmt.NewWriter(w)
	bw.RawString(corpusSnapshotMagic)
	bw.Uvarint(CorpusSnapshotVersion)
	bw.Str(BackendCCD)
	bw.Uvarint(uint64(c.cfg.N))
	for _, f := range []float64{c.cfg.Eta, c.cfg.Epsilon, 0} {
		bw.Float64(f)
	}
	bw.Uvarint(uint64(len(encoded)))
	for _, shardSegs := range encoded {
		bw.Uvarint(uint64(len(shardSegs)))
		for _, seg := range shardSegs {
			bw.Blob(seg.data)
		}
	}
	return bw.Flush()
}

// ReadSnapshot restores a snapshot written by WriteSnapshot into this
// corpus, which must be empty, decoding every segment to the heap. The
// snapshot's configuration replaces the corpus's own. When the shard counts
// match, the decoded segments install directly (byte-identical restore);
// otherwise the documents re-partition by id hash.
func (c *Corpus) ReadSnapshot(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("service: snapshot: read: %w", err)
	}
	cfg, perShard, err := parseSnapshotEnvelope(data)
	if err != nil {
		return err
	}
	return c.installSnapshotWith(cfg, perShard, ccd.Load)
}

// installSnapshotWith opens the framed segments (in parallel) under cfg and
// installs them into the corpus, which must be empty: directly when the
// on-disk and in-memory shard counts match, re-partitioned otherwise. open
// is ccd.Load (posting sections copied to the heap) or ccd.OpenSegmentBytes
// over a mapping; both run the one segment parser.
func (c *Corpus) installSnapshotWith(cfg ccd.Config, perShard [][][]byte, open func([]byte) (*ccd.Corpus, error)) error {
	if c.Len() != 0 {
		return fmt.Errorf("service: restore into non-empty corpus (%d entries)", c.Len())
	}
	if cfg.N == 0 {
		cfg = ccd.DefaultConfig
	}
	if err := validateSnapshotConfig(cfg); err != nil {
		return fmt.Errorf("service: snapshot: %w", err)
	}

	decoded := make([][]*ccd.Corpus, len(perShard))
	errs := make([][]error, len(perShard))
	var wg sync.WaitGroup
	for i := range perShard {
		decoded[i] = make([]*ccd.Corpus, len(perShard[i]))
		errs[i] = make([]error, len(perShard[i]))
		for j := range perShard[i] {
			wg.Add(1)
			go func(i, j int) {
				defer wg.Done()
				decoded[i][j], errs[i][j] = open(perShard[i][j])
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
	// Every segment must agree with the envelope's configuration: a forged
	// or mixed-config snapshot would otherwise match with wrong parameters —
	// the prepared query is derived once per query under one config and
	// reused for every segment.
	for i := range decoded {
		for j, seg := range decoded[i] {
			if got := seg.Config(); got != cfg {
				return fmt.Errorf("service: snapshot: shard %d segment %d config %+v differs from snapshot config %+v",
					i, j, got, cfg)
			}
		}
	}
	// New segments build under the snapshot's config from here on.
	c.cfg = cfg

	install := make([][]*ccd.Corpus, len(c.shards))
	if len(perShard) == len(c.shards) {
		// The layout matches — segments install byte-identically.
		for i := range decoded {
			install[i] = dropEmpty(decoded[i])
		}
	} else {
		// Re-partition documents by id hash, one rebuilt segment per shard,
		// restoring the write-balance invariant.
		parts := make([][]ccd.Entry, len(c.shards))
		for _, seg := range slices.Concat(decoded...) {
			for _, e := range seg.Entries() {
				i := c.shardIndex(e.ID)
				parts[i] = append(parts[i], e)
			}
		}
		var wg sync.WaitGroup
		for i := range c.shards {
			if len(parts[i]) == 0 {
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				seg := ccd.NewCorpus(cfg)
				for _, e := range parts[i] {
					seg.Add(e.ID, e.FP)
				}
				seg.BuildBitmaps()
				install[i] = []*ccd.Corpus{seg}
			}(i)
		}
		wg.Wait()
	}

	for i, sh := range c.shards {
		segs := install[i]
		slices.SortStableFunc(segs, func(a, b *ccd.Corpus) int { return b.Len() - a.Len() })
		size := 0
		for _, s := range segs {
			size += s.Len()
		}
		ids := make(map[string]struct{}, size)
		for _, s := range segs {
			for _, e := range s.Entries() {
				ids[e.ID] = struct{}{}
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
func validateSnapshotConfig(cfg ccd.Config) error {
	if cfg.N < 1 || cfg.N > 1<<10 {
		return fmt.Errorf("implausible n-gram size %d", cfg.N)
	}
	inRange := func(v, lo, hi float64) bool {
		return !math.IsNaN(v) && v >= lo && v <= hi
	}
	if !inRange(cfg.Eta, 0, 1) {
		return fmt.Errorf("containment threshold %v outside [0,1]", cfg.Eta)
	}
	if !inRange(cfg.Epsilon, 0, 100) {
		return fmt.Errorf("similarity threshold %v outside [0,100]", cfg.Epsilon)
	}
	return nil
}

// dropEmpty removes zero-length segments (empty-corpus placeholders).
func dropEmpty(segs []*ccd.Corpus) []*ccd.Corpus {
	out := segs[:0:len(segs)]
	for _, s := range segs {
		if s.Len() > 0 {
			out = append(out, s)
		}
	}
	return out
}

// cloneQuery is the corpus's CloneQuery: MatchTopKCtx on a fresh bound.
func (c *Corpus) cloneQuery(ctx context.Context, fp ccd.Fingerprint, k int) ([]ccd.Match, ccd.MatchStats, error) {
	return c.MatchTopKCtx(ctx, fp, k, nil)
}

// ShardEntries returns shard i's indexed entries sorted by id, or false when
// there is no shard i. It reads the shard's current immutable generation, so
// it is safe under concurrent ingest; the sorted order is what gives the
// paginated NDJSON export a stable cursor.
func (c *Corpus) ShardEntries(i int) ([]ccd.Entry, bool) {
	if i < 0 || i >= len(c.shards) {
		return nil, false
	}
	var entries []ccd.Entry
	for _, seg := range c.shards[i].gen.Load().segments {
		entries = append(entries, seg.Entries()...)
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
