// Package service is the concurrent analysis layer in front of the
// reproduction's primitives: a bounded worker pool, content-addressed LRU
// caches for CCC vulnerability reports and CCD fingerprints,
// and a generational corpus whose readers are lock-free (matching loads one
// immutable snapshot pointer; ingest publishes new generations off the read
// path). The study pipeline fans its hot steps out through the same Engine
// that cmd/serve exposes over HTTP, so batch reproduction and online serving
// share one scheduling and caching substrate.
package service

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ccc"
	"repro/internal/ccd"
	"repro/internal/trace"
)

// DefaultCacheEntries bounds each cache layer when Options does not override
// it.
const DefaultCacheEntries = 4096

// Options configures an Engine.
type Options struct {
	// Workers bounds concurrent work; ≤ 0 selects GOMAXPROCS.
	Workers int
	// CacheEntries caps each cache layer (report, fingerprint).
	// 0 selects DefaultCacheEntries; < 0 disables caching (benchmarks use
	// this to measure the uncached path).
	CacheEntries int
	// CCD configures the engine's serving corpus (zero value:
	// ccd.DefaultConfig).
	CCD ccd.Config
	// Shards is the generation-shard count of the serving corpus (the
	// scatter-gather fan-out width); ≤ 0 selects GOMAXPROCS.
	Shards int
	// Admission bounds the request queue in front of the worker pool; the
	// zero value disables load shedding (see AdmissionConfig).
	Admission AdmissionConfig
	// Degrade tunes the pressure-tiered quality ladder (see DegradeConfig);
	// the zero value enables it with defaults.
	Degrade DegradeConfig
}

// ErrUnknownBackend marks a request that names a similarity backend other
// than ccd; the API layer maps it to a 400.
var ErrUnknownBackend = errors.New("unknown backend")

// CheckBackend validates a request-supplied backend name: empty or "ccd"
// select the one matcher this service runs, anything else is
// ErrUnknownBackend naming the value — never a silent fallback to ccd.
func CheckBackend(name string) error {
	if name == "" || name == BackendCCD {
		return nil
	}
	return fmt.Errorf("%w: %q (this service matches with %q only)", ErrUnknownBackend, name, BackendCCD)
}

// Engine wraps CCC and CCD behind a worker pool and content-addressed
// caches. The cached primitives (Analyze, Fingerprint, Match, ...)
// are safe for concurrent use and do not themselves occupy worker slots;
// bounding happens at the task level through Do, Map and the *Batch
// helpers, so primitives may be freely composed inside pooled tasks without
// risking slot-starvation deadlocks.
type Engine struct {
	workers int
	sem     chan struct{}
	adm     admission
	ctr     counters
	deg     *degrade

	reports *lru[Key, reportEntry]
	prints  *lru[digest, fpEntry]

	// corpus is the serving corpus, fixed at construction.
	corpus *Corpus
}

// Cached values retain the original computation's error so a hit replays
// exactly what a miss produced (parse errors are deterministic per content).
type reportEntry struct {
	rep ccc.Report
	err error
}

// An fpEntry with an error answers only for its own source's exact bytes,
// since the error carries positions that fingerprintKey does not pin.
type fpEntry struct {
	fp  ccd.Fingerprint
	err error
	src string // with an error, the source it answers for
}

// New returns an Engine with the given options.
func New(opts Options) *Engine {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		workers: workers,
		sem:     make(chan struct{}, workers),
		reports: newLRU[Key, reportEntry](opts.CacheEntries),
		prints:  newLRU[digest, fpEntry](opts.CacheEntries),
		corpus:  NewCorpus(opts.CCD, opts.Shards),
	}
	if q := opts.Admission.MaxQueue; q > 0 {
		e.adm.capacity = workers + q
	}
	e.deg = &degrade{cfg: opts.Degrade}
	return e
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// --- worker pool --------------------------------------------------------------

// DoCtx runs fn on a worker slot. If ctx is cancelled before a slot frees,
// fn never runs and ctx.Err() is returned — a disconnected client stops
// occupying the queue. Once fn starts it runs to completion; cancellation
// mid-task is the task's own business (the match paths check ctx between
// segments).
//
// Scheduling honors the context's Class: a ClassBackground task (self-join
// segments, bulk ingest batches) first yields while any interactive task is
// waiting for a slot, so interactive latency under a running study stays
// close to the uncontended baseline.
func (e *Engine) DoCtx(ctx context.Context, fn func()) error {
	if err := ctx.Err(); err != nil {
		return err // already cancelled: never race the semaphore
	}
	_, wait := trace.Start(ctx, "queue.wait")
	if ClassOf(ctx) == ClassBackground {
		wait.Annotate("class", "background")
		if err := e.yieldToInteractive(ctx); err != nil {
			wait.End()
			return err
		}
		select {
		case e.sem <- struct{}{}:
			wait.End()
		case <-ctx.Done():
			wait.End()
			return ctx.Err()
		}
	} else {
		e.ctr.interactiveWaiting.Add(1)
		select {
		case e.sem <- struct{}{}:
			e.ctr.interactiveWaiting.Add(-1)
			wait.End()
		case <-ctx.Done():
			e.ctr.interactiveWaiting.Add(-1)
			wait.End()
			return ctx.Err()
		}
	}
	e.ctr.taskStart()
	defer func() {
		e.ctr.taskDone()
		<-e.sem
	}()
	fn()
	return nil
}

// Map runs fn(i) for every i in [0, n) across the worker pool and waits for
// all of them. Items are dispatched through the engine-wide semaphore, so
// concurrent Map calls (several batch requests, a study job) share the same
// global bound. fn must not call Do or Map itself.
//
// A panic in fn stops dispatch and is re-raised on the calling goroutine
// once in-flight items drain, so callers' recover guards (the study job
// handler, net/http's per-request recovery) see it exactly as if the work
// had run serially.
func (e *Engine) Map(n int, fn func(int)) {
	_ = e.MapCtx(context.Background(), n, fn)
}

// MapCtx is Map with cancellation: once ctx is cancelled no further items
// are dispatched (in-flight items finish) and ctx.Err() is returned. Items
// skipped by cancellation simply never ran — callers distinguish them by the
// returned error. It is Each with one DoCtx per item.
func (e *Engine) MapCtx(ctx context.Context, n int, fn func(int)) error {
	return e.Each(ctx, n, func(i int) {
		_ = e.DoCtx(ctx, func() { fn(i) })
	})
}

// Each runs fn(i) for every i in [0, n) on up to Workers goroutines (inline
// when that is one) and waits for all of them, under MapCtx's cancellation
// and panic rules. It holds no worker slot itself: fn takes one through
// DoCtx for the work that needs it, and may wait outside the pool for the
// rest (a router's fan-out to its shard nodes).
func (e *Engine) Each(ctx context.Context, n int, fn func(int)) error {
	spawn := min(e.workers, n)
	if spawn <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(i)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicked atomic.Bool
	var panicVal any // first panic; wg.Wait orders the read after the write
	wg.Add(spawn)
	for w := 0; w < spawn; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || panicked.Load() || ctx.Err() != nil {
					return
				}
				func() {
					defer func() {
						if p := recover(); p != nil && !panicked.Swap(true) {
							panicVal = p
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
	return ctx.Err()
}

// --- cached primitives --------------------------------------------------------

// Analyze runs the default CCC analyzer over src through the report cache.
// A miss parses, analyzes and releases the graph, so its memory serves the
// next one.
func (e *Engine) Analyze(src string) (ccc.Report, error) {
	return e.analyze(sourceKey(src), src)
}

func (e *Engine) analyze(key Key, src string) (ccc.Report, error) {
	e.ctr.analyses.Add(1)
	if ent, ok := e.reports.Get(key, nil); ok {
		return ent.rep, ent.err
	}
	rep, err := ccc.AnalyzeSource(src)
	e.reports.Put(key, reportEntry{rep: rep, err: err})
	return rep, err
}

// Fingerprint computes the CCD fuzzy-hash of src through the fingerprint
// cache. Matching ccd.FingerprintSource, a partial fingerprint is returned
// (and cached) even when parsing reported an error.
func (e *Engine) Fingerprint(src string) (ccd.Fingerprint, error) {
	_, fp, err := e.fingerprint(src)
	return fp, err
}

// FingerprintKeyed is Fingerprint that also returns the cache key src was
// looked up under.
func (e *Engine) FingerprintKeyed(src string) (Key, ccd.Fingerprint, error) {
	k, fp, err := e.fingerprint(src)
	return Key(hex.EncodeToString(k[:])), fp, err
}

func (e *Engine) fingerprint(src string) (digest, ccd.Fingerprint, error) {
	e.ctr.fingerprints.Add(1)
	key := fingerprintKey(src)
	if ent, ok := e.prints.Get(key, func(ent fpEntry) bool { return ent.err == nil || ent.src == src }); ok {
		return key, ent.fp, ent.err
	}
	fp, err := ccd.FingerprintSource(src)
	ent := fpEntry{fp: fp, err: err}
	if err != nil {
		ent.src = src
	}
	e.prints.Put(key, ent)
	return key, fp, err
}

// FingerprintCtx is Fingerprint under a match.fingerprint span on ctx's
// trace.
func (e *Engine) FingerprintCtx(ctx context.Context, src string) (ccd.Fingerprint, error) {
	_, sp := trace.Start(ctx, "match.fingerprint")
	defer sp.End()
	sp.AnnotateInt("source_bytes", int64(len(src)))
	return e.Fingerprint(src)
}

// --- serving corpus -----------------------------------------------------------

// Corpus exposes the engine's serving corpus.
func (e *Engine) Corpus() *Corpus { return e.corpus }

// corpusAddEntries ingests fingerprinted entries, in order, through one batch
// add. If the journaled add fails the entries are nowhere.
func (e *Engine) corpusAddEntries(ctx context.Context, entries []ccd.Entry) error {
	if len(entries) == 0 {
		return nil
	}
	ctx, sp := trace.Start(ctx, "corpus.add")
	defer sp.End()
	sp.AnnotateInt("docs", int64(len(entries)))
	if err := e.corpus.AddBatch(ctx, entries); err != nil {
		return err
	}
	e.ctr.corpusAdds.Add(int64(len(entries)))
	return nil
}

// --- corpus-wide clone study ----------------------------------------------------

// RunCloneStudy plans a clone self-join over the serving corpus and runs it
// through RunSelfJoin.
func (e *Engine) RunCloneStudy(ctx context.Context, limit, topN int) (*CloneReport, error) {
	return e.RunSelfJoin(ctx, NewSelfJoin(e.corpus, limit), topN)
}

// RunSelfJoin runs j once, folding its funnel into the engine's study
// metrics, and returns the report with the topN largest clusters attached.
// Every role runs its clone study here: a single node over its serving
// corpus (RunCloneStudy), a router over its partitions' exports
// (remote.Router.StudyPlan). The join fans out through the engine's worker
// pool at ClassBackground: DoCtx parks each per-document query while
// interactive traffic waits for a slot.
func (e *Engine) RunSelfJoin(ctx context.Context, j *SelfJoin, topN int) (*CloneReport, error) {
	j.par = func(ctx context.Context, n int, fn func(int)) error {
		return e.MapCtx(WithClass(ctx, ClassBackground), n, fn)
	}
	e.ctr.studiesStarted.Add(1)
	err := j.Run(ctx)
	e.ctr.observeStudy(j.Stats(), err)
	if err != nil {
		return nil, err
	}
	return j.Report(topN), nil
}

// MatchSource fingerprints src (through the cache) and scatter-gathers its k
// best candidates (k ≤ 0: all of them), best first. backend is the
// request-supplied backend name, checked here (see CheckBackend). The
// returned stats are the query's pruning funnel; the error reports parse
// problems (matches still returned when a partial fingerprint exists), an
// unknown backend, or ctx cancellation.
func (e *Engine) MatchSource(ctx context.Context, backend, src string, k int) ([]ccd.Match, ccd.MatchStats, error) {
	if err := CheckBackend(backend); err != nil {
		return nil, ccd.MatchStats{}, err
	}
	fp, ferr := e.FingerprintCtx(ctx, src)
	if ferr != nil && len(fp) == 0 {
		return nil, ccd.MatchStats{}, ferr
	}
	ms, stats, err := e.MatchFingerprint(ctx, fp, k, nil)
	if err != nil {
		// A budget-exhausted scan still carries its best-effort partial
		// matches; everything else fails empty.
		return ms, stats, err
	}
	return ms, stats, ferr
}

// MatchFingerprint scatter-gathers a precomputed fingerprint's k best
// candidates (k ≤ 0: all) on the serving corpus, lock-free against concurrent
// ingest. bound, when non-nil, seeds the admission bound: a shard node passes
// the bound its router shipped (see Corpus.MatchTopKCtx). Every answered
// query is counted through ObserveMatch; cancelled queries return ctx.Err()
// and are not. A query whose deadline budget expires mid-scan returns its
// best-effort partial top-K alongside ErrBudgetExhausted.
func (e *Engine) MatchFingerprint(ctx context.Context, fp ccd.Fingerprint, k int, bound *ccd.AtomicBound) ([]ccd.Match, ccd.MatchStats, error) {
	ctx, sp := trace.Start(ctx, "match")
	if tier := e.DegradeTier(); tier > 0 {
		sp.AnnotateInt("degrade.tier", int64(tier))
	}
	start := time.Now()
	ms, stats, err := e.corpus.MatchTopKCtx(ctx, fp, k, bound)
	sp.AnnotateInt("candidates", int64(stats.Candidates))
	sp.AnnotateInt("scored", int64(stats.Scored))
	sp.End()
	if err != nil && !errors.Is(err, ErrBudgetExhausted) {
		return nil, stats, err
	}
	e.ObserveMatch(time.Since(start), err)
	return ms, stats, err
}

// ObserveMatch counts one answered match request: the matches counter, the
// latency histogram (which also prices Retry-After) and, when err is
// ErrBudgetExhausted, a deadline expiry — the client waited that long either
// way. MatchFingerprint calls it for local and shard scans; a router calls it
// for each query it fans out.
func (e *Engine) ObserveMatch(elapsed time.Duration, err error) {
	e.ctr.matches.Add(1)
	e.ctr.matchLatency.ObserveDuration(elapsed)
	if errors.Is(err, ErrBudgetExhausted) {
		e.ctr.deadlineExpired.Add(1)
	}
}

// --- pooled batch helpers -----------------------------------------------------

// AnalyzeResult is one AnalyzeBatch element. Key is the report cache's key:
// the SHA-256 of the source's exact bytes.
type AnalyzeResult struct {
	Key    Key
	Report ccc.Report
	Err    error
}

// AnalyzeBatch analyzes every source across the worker pool, preserving
// input order.
func (e *Engine) AnalyzeBatch(srcs []string) []AnalyzeResult {
	out := make([]AnalyzeResult, len(srcs))
	e.Map(len(srcs), func(i int) {
		out[i].Key = sourceKey(srcs[i])
		out[i].Report, out[i].Err = e.analyze(out[i].Key, srcs[i])
	})
	return out
}

// CorpusEntry is one document for bulk ingest: a source to fingerprint, or
// a precomputed Fingerprint (which wins when both are set).
type CorpusEntry struct {
	ID          string
	Source      string
	Fingerprint ccd.Fingerprint
}

// CorpusAddBatch ingests entries into the serving corpus as one batch. The
// i-th error reports the i-th entry's parse status (persistence failures
// satisfy errors.Is ErrPersist and mean the entry was dropped).
func (e *Engine) CorpusAddBatch(entries []CorpusEntry) []error {
	return e.CorpusAddBatchCtx(context.Background(), entries)
}

// CorpusAddBatchCtx is CorpusAddBatch carrying a request context. The
// entries that need it are fingerprinted across the worker pool — the only
// part of an ingest that parallelises — and the documents then go, in input
// order, through one batch add: journaled whole or not at all (on a
// persistence failure every entry reports it), one publish per touched shard,
// and of several entries sharing an id the last one is live. The context
// carries the trace (corpus.add, wal.append and wal.fsync_wait appear once
// per batch); it does not cancel journaled work.
func (e *Engine) CorpusAddBatchCtx(ctx context.Context, entries []CorpusEntry) []error {
	errs := make([]error, len(entries))
	batch := make([]ccd.Entry, len(entries))
	var unprinted []int
	for i, en := range entries {
		batch[i] = ccd.Entry{ID: en.ID, FP: en.Fingerprint}
		if en.Fingerprint == "" {
			unprinted = append(unprinted, i)
		}
	}
	e.Map(len(unprinted), func(k int) {
		i := unprinted[k]
		_, fsp := trace.Start(ctx, "match.fingerprint")
		batch[i].FP, errs[i] = e.Fingerprint(entries[i].Source)
		fsp.End()
	})
	if err := e.corpusAddEntries(ctx, batch); err != nil {
		for i := range errs {
			errs[i] = err
		}
	}
	return errs
}
