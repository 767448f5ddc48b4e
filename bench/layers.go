package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/ccc"
	"repro/internal/ccd"
	"repro/internal/cpg"
	"repro/internal/service"
	"repro/internal/solidity"
)

// span is one timed call into a layer. Spans of one request share Op; Parent
// is the span that caused this one (0 for the request itself).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the pass ends. Shard nodes report from
// their own goroutines, hence the lock.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	busy  map[string]time.Duration
	calls map[string]int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), busy: make(map[string]time.Duration), calls: make(map[string]int)}
}

func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{name, id, parent, op, int64(start.Sub(t.t0)), int64(end.Sub(t.t0))})
	t.busy[name] += end.Sub(start)
	t.calls[name]++
	return id
}

// time runs fn as a span.
func (t *tracer) time(name string, op, parent int, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	end := time.Now()
	return t.add(name, op, parent, start, end), end.Sub(start)
}

// perCall is the mean duration of the named span in ms.
func (t *tracer) perCall(name string) float64 {
	if t.calls[name] == 0 {
		return 0
	}
	return ms(t.busy[name]) / float64(t.calls[name])
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerPass is the traced pass: one lap in which every request is served by
// the program as usual and then taken apart. The same work is handed to a
// twin engine that has seen the same requests in the same order, so its
// caches are in the same state, and then to each layer's own entry point.
// The program itself is not instrumented; every span is recorded here,
// around a call.
type layerPass struct {
	f, twin *fixture
	tr      *tracer
	handler [numKinds][]time.Duration // the program's latency per request type

	ops, sources, docs  int // requests, sources parsed directly, contracts ingested
	findings, matches   int
	stats               ccd.MatchStats // from direct Corpus.MatchTopK calls
	reqBytes, respBytes int
	partials            int
	shardCalls          int
	remoteScored        int
	ingest              time.Duration // twin engine time of bulk requests

	// Lap totals of: the twin engine's time, everything under the API layer
	// (the engine, and for a routed match the fan-out), the layers the
	// engine entered, each timed in a call of its own, the time during which
	// a shard node was serving a routed match, and the rest of the fan-out.
	engine, below, leaf, shardBusy, remoteSelf time.Duration

	hits int64 // the twin's cache hits so far

	// Counters read when the pass begins, to report the lap's share.
	hits0, lookups0        int64
	publishes, compactions int64
	fsyncs, savings        int64
	walBytes               int64 // WAL bytes written during the lap
	lastSnapshot           service.SnapshotInfo
	restore                time.Duration
}

func newLayerPass(f, twin *fixture) *layerPass {
	p := &layerPass{f: f, twin: twin, tr: newTracer()}
	p.hits0, p.lookups0 = p.lookups()
	p.hits = p.hits0
	p.publishes, p.compactions = f.engine.Corpus().Publishes(), f.engine.Corpus().Compactions()
	if f.store != nil {
		p.fsyncs = f.store.Durability().FsyncLatency.Count
		p.walBytes = -fileSize(filepath.Join(f.dir, service.WALFile))
	}
	if twin.router != nil {
		p.savings = twin.router.Stats().BoundShipSavings
	}
	return p
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// lookups reads the twin's cache counters that requests of this benchmark
// touch: the report cache (analyze) and the fingerprint cache (match, ingest).
func (p *layerPass) lookups() (hits, total int64) {
	m := p.twin.engine.Metrics()
	hits = m.ReportCache.Hits + m.FingerprintCache.Hits
	return hits, hits + m.ReportCache.Misses + m.FingerprintCache.Misses
}

// engineDone rereads the twin's cache hits after a call into its engine.
func (p *layerPass) engineDone() int64 {
	p.hits, _ = p.lookups()
	return p.hits
}

// lap runs a traced lap from position first to its end (0 for a whole lap).
func (p *layerPass) lap(first int) {
	for i := first; i < len(p.f.in.lap); i++ {
		p.request(i+1, p.f.slot(i))
	}
}

func (p *layerPass) request(id int, o *op) {
	f, tr := p.f, p.tr
	if o.kind == opSnapshot {
		p.walBytes += fileSize(filepath.Join(f.dir, service.WALFile)) // about to be truncated
	}
	var code int
	var body []byte
	h, handler := tr.time("api.handler", id, 0, func() { code, body = f.post(o) })
	f.count(o, code, body)
	p.ops++
	p.handler[o.kind] = append(p.handler[o.kind], handler)
	p.reqBytes += len(o.body)
	p.respBytes += len(body)

	var engine, below, leaf time.Duration // this request's share of the lap totals
	var e int
	ctx := context.Background()
	twin := p.twin.engine
	hits0 := p.hits // direct calls into the layers do not touch the twin's caches
	switch o.kind {
	case opAnalyze:
		e, engine = tr.time("service.engine", id, h, func() { twin.AnalyzeBatch([]string{o.src}) })
		hits1 := p.engineDone()
		unit, parse, perr := p.parse(id, e, o.src)
		var g *cpg.Graph
		_, build := tr.time("cpg.build", id, e, func() { g = cpg.Build(o.src, unit) })
		var rep ccc.Report
		_, analyze := tr.time("ccc.analyze", id, e, func() { rep = ccc.Analyze(g) })
		if perr == nil { // the program reports no findings for a source that does not parse
			p.findings += len(rep.Findings)
		}
		if hits1 == hits0 {
			leaf = parse + build + analyze
		}

	case opMatch:
		var fp ccd.Fingerprint
		routed := p.twin.router != nil
		if routed {
			e, engine = tr.time("service.engine", id, h, func() {
				_ = twin.DoCtx(ctx, func() { fp, _ = twin.Fingerprint(o.src) })
			})
			below = p.route(id, h, string(fp))
		} else {
			var found []ccd.Match
			e, engine = tr.time("service.engine", id, h, func() {
				_ = twin.DoCtx(ctx, func() { found, _, _ = twin.MatchSource(ctx, "", o.src, matchLimit) })
			})
			p.matches += len(found)
		}
		hits1 := p.engineDone()
		unit, parse, _ := p.parse(id, e, o.src)
		_, print := tr.time("ccd.fingerprint", id, e, func() { fp = ccd.FingerprintUnit(ccd.NormalizeUnit(unit)) })
		if hits1 == hits0 {
			leaf = parse + print
		}
		// Filter and score times come from the matcher's own stats; with
		// several generation-shards scanning at once they are busy time.
		var st ccd.MatchStats
		start := time.Now()
		for _, c := range p.twin.corpora() {
			_, one := c.MatchTopK(fp, matchLimit)
			st.Add(one)
		}
		end := time.Now()
		cm := tr.add("service.corpus_match", id, e, start, end)
		filtered := start.Add(time.Duration(st.FilterNs))
		tr.add("ngram.filter", id, cm, start, filtered)
		tr.add("editdist.score", id, cm, filtered, filtered.Add(time.Duration(st.ScoreNs)))
		p.stats.Add(st)
		if !routed { // a router's engine never scans; its shard nodes' time is in route
			leaf += end.Sub(start)
		}

	case opBulk:
		e, engine = tr.time("service.engine", id, h, func() { twin.CorpusAddBatchCtx(ctx, o.docs) })
		hits1 := p.engineDone()
		var serial time.Duration
		for _, d := range o.docs {
			unit, parse, _ := p.parse(id, e, d.Source)
			_, print := tr.time("ccd.fingerprint", id, e, func() { ccd.FingerprintUnit(ccd.NormalizeUnit(unit)) })
			serial += parse + print
		}
		// The engine fingerprints the batch on all its workers at once, and
		// skips the contracts its cache already holds.
		n := len(o.docs)
		leaf = serial * time.Duration(n-int(hits1-hits0)) / time.Duration(n*min(twin.Workers(), n))
		p.docs += n
		p.ingest += engine

	case opSnapshot:
		engine = p.snapshot(id, h)
		leaf = engine // Store.Snapshot is the layer's own entry point
	}
	p.engine += engine
	p.below += below + engine
	p.leaf += leaf
}

func (p *layerPass) parse(id, parent int, src string) (*solidity.SourceUnit, time.Duration, error) {
	var unit *solidity.SourceUnit
	var err error
	_, d := p.tr.time("solidity.parse", id, parent, func() { unit, err = solidity.Parse(src) })
	p.sources++
	return unit, d, err
}

// route sends the fingerprint through the twin's router and returns the
// router's wall time. The part of it during which at least one shard node
// was serving the request is the shard nodes' time; the rest is the router's
// own.
func (p *layerPass) route(id, parent int, fp string) time.Duration {
	log := &callLog{}
	for _, n := range p.twin.nodes {
		n.log.Store(log)
	}
	r, wall := p.tr.time("remote.route", id, parent, func() {
		res, err := p.twin.router.Match(context.Background(), fp, matchLimit)
		if err != nil || res.Partial {
			p.partials++
		}
		p.matches += len(res.Matches)
		p.remoteScored += res.Stats.Scored
	})
	for _, n := range p.twin.nodes {
		n.log.Store(nil)
	}
	sort.Slice(log.calls, func(a, b int) bool { return log.calls[a][0].Before(log.calls[b][0]) })
	var covered time.Duration
	var until time.Time
	for _, c := range log.calls {
		p.tr.add("remote.shard", id, r, c[0], c[1])
		if c[0].After(until) {
			until = c[0]
		}
		if c[1].After(until) {
			covered += c[1].Sub(until)
			until = c[1]
		}
	}
	p.shardCalls += len(log.calls)
	p.shardBusy += covered
	p.remoteSelf += wall - covered
	return wall
}

func (p *layerPass) snapshot(id, parent int) time.Duration {
	_, d := p.tr.time("service.snapshot", id, parent, func() { p.lastSnapshot, _ = p.twin.store.Snapshot() })
	return d
}

// finish closes the lap's accounts on the write path. A store workload
// without snapshot requests still gets one timed snapshot and one restore.
func (p *layerPass) finish() error {
	if p.f.store == nil {
		return nil
	}
	p.walBytes += fileSize(filepath.Join(p.f.dir, service.WALFile))
	if p.tr.calls["service.snapshot"] == 0 {
		p.snapshot(0, 0)
	}
	var err error
	if _, p.restore, err = p.f.reopen(); err != nil {
		return fmt.Errorf("reopen store: %w", err)
	}
	return nil
}

// untraced is what the traced run needs from an untraced pass over the same
// requests: the latencies to compare with, and the runtime's accounts.
type untraced struct {
	summary
	spread float64
	ops    int // requests between the two MemStats readings
	mem    [2]runtime.MemStats
}

// metrics turns the pass into the per-layer metric set. Every workload
// reports every name; a layer the workload never enters reports 0.
func (p *layerPass) metrics(u untraced, genSeconds float64) map[string]metric {
	f, tr := p.f, p.tr
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	per := func(total float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return total / float64(n)
	}

	set("solidity.parse_ms", tr.perCall("solidity.parse"), "ms")
	set("cpg.build_ms", tr.perCall("cpg.build"), "ms")
	set("ccc.analyze_ms", tr.perCall("ccc.analyze"), "ms")
	set("ccc.findings_per_op", per(float64(p.findings), tr.calls["ccc.analyze"]), "count")
	set("ccd.fingerprint_ms", tr.perCall("ccd.fingerprint"), "ms")

	queries := tr.calls["service.corpus_match"]
	set("ngram.filter_ms", tr.perCall("ngram.filter"), "ms")
	set("ngram.candidates_per_op", per(float64(p.stats.Candidates), queries), "count")
	set("ngram.filter_pruned_per_op", per(float64(p.stats.FilterPruned), queries), "count")
	set("editdist.score_ms", tr.perCall("editdist.score"), "ms")
	set("editdist.scored_per_op", per(float64(p.stats.Scored), queries), "count")
	set("editdist.cutoff_skipped_per_op", per(float64(p.stats.CutoffSkipped), queries), "count")
	set("editdist.scored_per_match", per(float64(p.stats.Scored), p.matches), "count")
	set("ccd.matches_per_op", per(float64(p.matches), queries), "count")

	set("service.corpus_match_ms", tr.perCall("service.corpus_match"), "ms")
	set("service.scatter_overlap", per(float64(tr.busy["ngram.filter"]+tr.busy["editdist.score"]), int(tr.busy["service.corpus_match"])), "ratio")
	segments := 0
	for _, c := range f.corpora() {
		segments += c.Segments()
	}
	set("service.segments", float64(segments), "count")
	// A layer's self time is its time minus the time of the layers it called,
	// taken over the lap. Each layer was timed in a call of its own, so a
	// difference can come out negative; it is reported as it is.
	handler := tr.busy["api.handler"]
	apiSelf, engineSelf := handler-p.below, p.engine-p.leaf
	set("service.engine_ms", per(ms(p.engine), p.ops), "ms")
	set("service.engine_self_ms", per(ms(engineSelf), p.ops), "ms")
	hits, lookups := p.lookups()
	set("service.cache_hit_ratio", per(float64(hits-p.hits0), int(lookups-p.lookups0)), "ratio")

	var d service.DurabilityStats
	if f.store != nil {
		d = f.store.Durability()
	}
	fsyncs := int(d.FsyncLatency.Count - p.fsyncs)
	set("service.ingest_ms_per_doc", per(ms(p.ingest), p.docs), "ms")
	set("service.publishes_per_doc", per(float64(f.engine.Corpus().Publishes()-p.publishes), p.docs), "count")
	set("service.compactions", float64(f.engine.Corpus().Compactions()-p.compactions), "count")
	set("service.wal_fsyncs_per_doc", per(float64(fsyncs), p.docs), "count")
	set("service.wal_group_mean", per(float64(p.docs), fsyncs), "count")
	set("service.wal_fsync_p50_ms", d.FsyncLatency.P50Us/1000, "ms")
	set("service.wal_bytes_per_doc", per(float64(p.walBytes), p.docs), "B")
	set("service.snapshot_ms", tr.perCall("service.snapshot"), "ms")
	set("service.snapshot_bytes_per_doc", per(float64(p.lastSnapshot.Bytes), p.lastSnapshot.Entries), "B")
	set("service.restore_ms", ms(p.restore), "ms")

	set("api.handler_ms", tr.perCall("api.handler"), "ms")
	set("api.self_ms", per(ms(apiSelf), p.ops), "ms")
	set("api.request_bytes_per_op", per(float64(p.reqBytes), p.ops), "B")
	set("api.response_bytes_per_op", per(float64(p.respBytes), p.ops), "B")
	set("api.match_p50_ms", u.p50[opMatch], "ms")
	set("api.bulk_p50_ms", u.p50[opBulk], "ms")
	set("api.snapshot_p50_ms", u.p50[opSnapshot], "ms")

	routed := tr.calls["remote.route"]
	var savings int64
	if p.twin.router != nil {
		savings = p.twin.router.Stats().BoundShipSavings - p.savings
	}
	set("remote.route_ms", tr.perCall("remote.route"), "ms")
	set("remote.self_ms", per(ms(p.remoteSelf), routed), "ms")
	set("remote.shard_calls_per_op", per(float64(p.shardCalls), routed), "count")
	set("remote.scored_per_op", per(float64(p.remoteScored), routed), "count")
	set("remote.bound_savings_per_op", per(float64(savings), routed), "count")
	set("remote.partial_ratio", per(float64(p.partials), routed), "ratio")

	set("runtime.alloc_kb_per_op", per(float64(u.mem[1].TotalAlloc-u.mem[0].TotalAlloc)/1024, u.ops), "KB")
	set("runtime.allocs_per_op", per(float64(u.mem[1].Mallocs-u.mem[0].Mallocs), u.ops), "count")
	set("runtime.gc_cycles", float64(u.mem[1].NumGC-u.mem[0].NumGC), "count")
	set("runtime.gc_pause_total_ms", float64(u.mem[1].PauseTotalNs-u.mem[0].PauseTotalNs)/1e6, "ms")
	set("runtime.heap_inuse_mb", float64(u.mem[1].HeapInuse)/(1<<20), "MB")

	set("driver.gen_s", genSeconds, "s")
	set("driver.round_spread_pct", u.spread, "%")
	set("driver.latency_p99_ms", u.p99[f.w.latency], "ms")
	set("driver.trace_overhead_pct", 100*(percentile(p.handler[f.w.latency], 0.5)/u.p50[f.w.latency]-1), "%")
	// Do the layers add up? The numerator holds only what was timed in a call
	// of its own: the innermost layers on the inputs the engine passed them
	// (parse, CPG build, rules, fingerprint, corpus match, snapshot) and the
	// shard nodes' busy time. The denominator is the program's handler on the
	// same requests. No self time, which is a difference, enters it. Below 1
	// the rest is what the API, engine and router layers spend themselves (on
	// a bulk: WAL, fsync and publish, which have no entry point of their own);
	// above 1 the layers cost more alone than inside their caller.
	set("driver.layer_sum_ratio", float64(p.leaf+p.shardBusy)/float64(handler), "ratio")
	return m
}
