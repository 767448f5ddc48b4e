package ccd

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/editdist"
	"repro/internal/ngram"
)

// Config are the matcher parameters swept in the paper's Table 9:
// n-gram size N, n-gram containment threshold η, similarity threshold ε.
type Config struct {
	N       int     // n-gram size (3, 5, 7)
	Eta     float64 // n-gram pre-filter threshold in [0,1]
	Epsilon float64 // Algorithm-1 similarity threshold in [0,100]
}

// DefaultConfig is the best precision/recall trade-off found in the paper
// (N=3, η=0.5, ε=0.7 — Appendix D).
var DefaultConfig = Config{N: 3, Eta: 0.5, Epsilon: 70}

// ConservativeConfig is the high-confidence configuration used for the
// large-scale study (Section 6.3: N=3, η=0.5, ε=0.9).
var ConservativeConfig = Config{N: 3, Eta: 0.5, Epsilon: 90}

// String renders the parameters in the order the paper's Table 9 sweeps
// them, for table headers and log lines.
func (c Config) String() string {
	return fmt.Sprintf("N=%d eta=%.1f eps=%.2f", c.N, c.Eta, c.Epsilon)
}

// Entry is one fingerprinted document in a corpus.
type Entry struct {
	ID string
	FP Fingerprint
}

// Match is a scored clone candidate.
type Match struct {
	ID    string
	Score float64 // Algorithm-1 similarity in [0,100]
}

// Corpus is a searchable collection of fingerprints with an n-gram
// pre-filter index (the Elasticsearch stand-in).
type Corpus struct {
	cfg     Config
	index   *ngram.Index
	entries []Entry
	dict    subDict // every entry's match subs, each distinct one stored once

	// mapRef pins the memory mapping (or other byte owner) a zero-copy
	// corpus reads its posting lists from; holding it here keeps the
	// mapping's finalizer from unmapping pages the index still references.
	mapRef any
	// sealed marks a corpus opened zero-copy from segment bytes: immutable,
	// Add panics (segments are write-once; compaction builds new corpora).
	sealed bool
}

// NewCorpus returns an empty corpus using cfg.
func NewCorpus(cfg Config) *Corpus {
	if cfg.N == 0 {
		cfg = DefaultConfig
	}
	return &Corpus{cfg: cfg, index: ngram.New(cfg.N)}
}

// Config returns the corpus configuration.
func (c *Corpus) Config() Config { return c.cfg }

// Len returns the number of indexed entries.
func (c *Corpus) Len() int { return len(c.entries) }

// Add indexes a fingerprint under an id. Panics on a corpus opened zero-copy
// from segment bytes — segments are write-once.
func (c *Corpus) Add(id string, fp Fingerprint) {
	if c.sealed {
		panic("ccd: Add on a sealed (zero-copy) corpus; segments are write-once")
	}
	c.index.Add(id, string(fp))
	c.entries = append(c.entries, Entry{ID: id, FP: fp})
	c.dict.add(fp)
}

// BuildSignatures gives the corpus's n-gram index the signature of its dense
// posting lists (ngram.Index.BuildSignatures): call it once a batch of Adds
// is done and the corpus is about to be queried. Merge, WithoutIDs, Load and
// OpenSegmentBytes build it themselves; the next Add drops it. The corpus is
// complete, so it also drops the map Add interns subs through.
func (c *Corpus) BuildSignatures() {
	c.index.BuildSignatures()
	c.dict.index = nil
}

// Merge returns a new heap corpus holding every entry of parts (at least
// one), in argument order, under the first part's configuration — compaction
// builds a whole merge cascade in one call. The parts' n-gram indexes are
// spliced (ngram.Splice), not re-indexed, into the index a one-by-one Add of
// the same entries would build. Every part must share the first part's N.
func Merge(parts ...*Corpus) *Corpus {
	n := 0
	for _, p := range parts {
		n += len(p.entries)
	}
	entries := make([]Entry, 0, n)
	indexes := make([]*ngram.Index, len(parts))
	for i, p := range parts {
		entries = append(entries, p.entries...)
		indexes[i] = p.index
	}
	return &Corpus{cfg: parts[0].cfg, index: ngram.Splice(entryIDs(entries), indexes, nil), entries: entries, dict: mergeDicts(parts)}
}

// WithoutIDs returns a new heap corpus without the entries whose id is in
// dead, and how many were dropped. This is how a re-ingested id supersedes
// its earlier copy in an older segment: the survivors' posting lists are
// spliced out of this corpus's index and renumbered, into the index a
// one-by-one Add of the survivors would build. A corpus holding none of the
// ids returns itself with 0.
func (c *Corpus) WithoutIDs(dead map[string]struct{}) (*Corpus, int) {
	drop := make([]bool, len(c.entries))
	var entries []Entry
	for i, e := range c.entries {
		if _, ok := dead[e.ID]; ok {
			drop[i] = true
		} else {
			entries = append(entries, e)
		}
	}
	removed := len(c.entries) - len(entries)
	if removed == 0 {
		return c, 0
	}
	index := ngram.Splice(entryIDs(entries), []*ngram.Index{c.index}, [][]bool{drop})
	return &Corpus{cfg: c.cfg, index: index, entries: entries, dict: c.dict.without(drop)}, removed
}

// entryIDs lists the ids of entries in order.
func entryIDs(entries []Entry) []string {
	ids := make([]string, len(entries))
	for i, e := range entries {
		ids[i] = e.ID
	}
	return ids
}

// Mapped reports whether this corpus reads its index zero-copy out of
// caller-owned bytes (typically a memory-mapped segment file).
func (c *Corpus) Mapped() bool { return c.sealed }

// AddSource fingerprints src and indexes it; parse errors are returned but
// the (partial) fingerprint is still indexed.
func (c *Corpus) AddSource(id, src string) error {
	fp, err := FingerprintSource(src)
	c.Add(id, fp)
	return err
}

// MatchStats counts the work one top-K match did across the filter stages.
type MatchStats struct {
	// Candidates survived the n-gram pre-filter and were considered.
	Candidates int
	// FilterPruned were abandoned inside the pre-filter by the η
	// upper-bound cutoff before their gram counts completed.
	FilterPruned int
	// Scored ran the full Algorithm-1 similarity to completion.
	Scored int
	// CutoffSkipped were cut short by the top-K lower bound: the bounded
	// edit distance proved they could not enter the current top K, so the
	// expensive exact score was never finished.
	CutoffSkipped int
	// Abandoned counts candidates never visited because the scan's budget
	// expired mid-loop (MatchOpts.Abandon fired) — the work a degraded
	// partial response left on the table.
	Abandoned int

	// FilterNs and ScoreNs split the wall time between the n-gram
	// pre-filter and the verification loop, so a slow query's trace shows
	// which stage ate the budget. Timing-only: they never enter response
	// payloads (explain output copies the count fields).
	FilterNs int64
	ScoreNs  int64
}

// Add accumulates other into s.
func (s *MatchStats) Add(other MatchStats) {
	s.Candidates += other.Candidates
	s.FilterPruned += other.FilterPruned
	s.Scored += other.Scored
	s.CutoffSkipped += other.CutoffSkipped
	s.Abandoned += other.Abandoned
	s.FilterNs += other.FilterNs
	s.ScoreNs += other.ScoreNs
}

// MatchTopK returns the k best matches (score descending, ties by id) whose
// score reaches ε; k ≤ 0 returns every entry the query fingerprint is a clone
// of: candidates sharing ≥ η of the query's n-grams, scored with Algorithm 1,
// kept when the score reaches ε. The candidate stream arrives
// containment-best-first from the pre-filter, so the top-K lower bound
// tightens quickly and most of the tail is rejected by bounded edit distance
// instead of being scored.
func (c *Corpus) MatchTopK(fp Fingerprint, k int) []Match {
	mb := GetMatchBuffer()
	defer mb.Release()
	col := NewTopK(k, c.cfg.Epsilon)
	c.MatchInto(PrepareQuery(c.cfg, fp), col, mb, MatchOpts{})
	return col.Results()
}

// MatchBuffer bundles the scratch one match pass needs — the n-gram
// retrieval buffers, the candidate sub-fingerprint slice, the edit-distance
// scratch and the memo of sub-pair distances. A zero MatchBuffer is ready to
// use; a warm one makes the steady-state MatchInto path allocation-free. Not
// safe for concurrent use — pool per goroutine via GetMatchBuffer/Release.
type MatchBuffer struct {
	ng    ngram.Scratch
	csubs []string
	ed    editdist.Scratch
	memo  subMemo
}

var matchBufPool = sync.Pool{New: func() any { return new(MatchBuffer) }}

// GetMatchBuffer hands out a pooled match buffer; pair with Release.
func GetMatchBuffer() *MatchBuffer { return matchBufPool.Get().(*MatchBuffer) }

// Release returns the buffer to the pool.
func (mb *MatchBuffer) Release() { matchBufPool.Put(mb) }

// PreparedQuery is one query fingerprint with its derived forms — distinct
// n-grams for the pre-filter, sub-fingerprints for Algorithm 1 — computed
// once and reused across every segment and candidate the query touches.
type PreparedQuery struct {
	FP    Fingerprint
	grams []string
	subs  []string
}

// PrepareQuery derives the reusable query forms under cfg.
func PrepareQuery(cfg Config, fp Fingerprint) *PreparedQuery {
	if cfg.N == 0 {
		cfg = DefaultConfig
	}
	return &PreparedQuery{
		FP:    fp,
		grams: ngram.Grams(string(fp), cfg.N),
		subs:  fp.matchSubs(),
	}
}

// MatchOpts tunes one match pass without changing corpus state — the
// request-budget knob the serving layer threads per query.
type MatchOpts struct {
	// Abandon, when non-nil, is sampled every abandonStride candidates; when
	// it returns true the verification loop stops and the stats gain the
	// unvisited candidates as Abandoned. The collector keeps whatever it
	// admitted so far — a best-effort partial top-K.
	Abandon func() bool
}

// abandonStride is how many candidates are verified between Abandon polls —
// frequent enough that one stride costs well under a millisecond, rare
// enough that the poll (a time read) never shows up in profiles.
const abandonStride = 64

// MatchInto is the streaming match entry: the n-gram pre-filter, then
// per-candidate Algorithm-1 verification against the collector's admission
// bound, with every buffer drawn from mb. Query, collector and scratch are
// all caller-owned, so a caller holding several corpora (the service's
// generation segments) prepares the query once, shares one top-K bound
// across all of them and streams any number of segments through one buffer.
// Sub ids are per corpus, so the buffer's memo starts afresh on each call:
// within it, each (query sub, distinct candidate sub) pair runs the
// edit-distance kernel at most once per bound. With a warm buffer the pass
// performs zero heap allocations. Returns this corpus's per-stage stats.
func (c *Corpus) MatchInto(q *PreparedQuery, col *TopK, mb *MatchBuffer, opts MatchOpts) MatchStats {
	var stats MatchStats
	start := time.Now()
	cands, qst := c.index.QueryGramsScratch(q.grams, c.cfg.Eta, &mb.ng)
	scoreStart := time.Now()
	stats.FilterNs = scoreStart.Sub(start).Nanoseconds()
	stats.Candidates = len(cands)
	stats.FilterPruned = qst.Pruned
	mb.memo.reset(len(c.dict.subs), len(q.subs))
	for i, cand := range cands {
		if opts.Abandon != nil && i%abandonStride == abandonStride-1 && opts.Abandon() {
			stats.Abandoned += len(cands) - i
			break
		}
		entry := c.entries[cand.Doc]
		ids := c.dict.of(cand.Doc)
		mb.csubs = c.dict.appendSubs(mb.csubs[:0], ids)
		score, ok := similarityAtLeast(q.subs, q.FP, mb.csubs, ids, entry.FP, col.Bound(), &mb.ed, &mb.memo)
		if !ok {
			stats.CutoffSkipped++
			continue
		}
		stats.Scored++
		col.Offer(Match{ID: entry.ID, Score: score})
	}
	stats.ScoreNs = time.Since(scoreStart).Nanoseconds()
	return stats
}

// Entries returns a copy of the indexed entries: mutating the result cannot
// corrupt corpus state (entries and index doc numbers move in lockstep).
func (c *Corpus) Entries() []Entry { return slices.Clone(c.entries) }
