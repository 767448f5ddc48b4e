// Command serve runs the concurrent analysis service: the CCC vulnerability
// checker and the CCD clone detector behind a bounded worker pool,
// content-addressed caches and an HTTP JSON API.
//
//	serve -addr :8070 -workers 8 -cache 4096
//	serve -corpus-dir ./data -snapshot-interval 5m     # durable corpus
//	serve -shards 8                                    # scatter-gather width
//	serve -admission-queue 64 -rate-limit 50 -rate-burst 100   # overload controls
//
// Multi-node topology (-role): the in-process scatter-gather generalizes to
// remote shard nodes. A shard owns one consistent-hash partition of the id
// space and refuses entries routed elsewhere; a router owns no corpus and
// fans /v1/match (and corpus-mode studies) out over its shards in waves,
// shipping the current admission bound with every request so remote shards
// prune exactly like local ones. See docs/operations.md "Multi-node
// topology" for the runbook.
//
//	serve -role shard -partition 0/2 -corpus-dir ./p0 -addr :8071
//	serve -role shard -partition 1/2 -corpus-dir ./p1 -addr :8072
//	serve -role router -shards http://h1:8071,http://h2:8072 -addr :8070
//	serve -role replica -partition 0/2 -corpus-dir ./r0 \
//	      -bootstrap-from http://h1:8071 -addr :8073   # snapshot + WAL tail
//
// A router started with -replicas fails a shard request over to the
// partition's replica when the primary errors; a primary shedding load
// (429/503) is not failed over, its Retry-After reaches the client.
//
// The serving corpus is hash-partitioned into -shards generation-shards
// (default GOMAXPROCS): each /v1/match scatter-gathers across all shards in
// parallel under one shared admission bound, so query latency drops roughly
// with the shard count on multi-core hosts. The matcher is the paper's ccd
// clone detector; the comparison tools (SmartEmbed) run offline only, in
// soddstudy -table 3.
//
// With -corpus-dir the serving corpus survives restarts: on boot the binary
// snapshot (corpus.snap) is restored and the write-ahead log (corpus.wal)
// replayed on top; every acknowledged corpus add is journaled before it is
// visible, so a crash loses nothing that was acknowledged. Snapshots are
// taken every -snapshot-interval (when there is new data), on demand via
// POST /v1/corpus/snapshot, and once more on graceful shutdown. Segments are
// memory-mapped on restore unless -mmap=false. Posting lists are written in
// blocks of 128 doc ids; a snapshot blocked at any other size still loads.
//
// Endpoints:
//
//	POST /v1/analyze          {"source": "..."} or {"sources": ["...", ...]}
//	POST /v1/fingerprint      {"source": "..."}
//	POST /v1/corpus           {"entries": [{"id": "c1", "source": "..."}, ...]}
//	GET  /v1/corpus
//	POST /v1/corpus/bulk      NDJSON stream: {"id", "source"|"fingerprint"} per line
//	POST /v1/corpus/snapshot  persist now (requires -corpus-dir)
//	GET  /v1/corpus/export    binary corpus snapshot download
//	POST /v1/match            {"source": "..."} or {"fingerprint": "..."};
//	                          optional "limit": k keeps the top K; batch form
//	                          {"sources": [...]} / {"fingerprints": [...]};
//	                          ?explain=1 attaches the pruning funnel; a
//	                          "backend" other than "ccd" is a 400
//	POST /v1/study            {"seed": 1, "scale": 0.01}   (async; poll the id)
//	                          {"mode": "corpus", "limit": 0}
//	                          runs the corpus-wide clone study — posting-list
//	                          self-join + clustering — over the live serving
//	                          corpus instead of a regenerated one
//	GET  /v1/study/{id}
//	GET  /v1/clusters         live clone-cluster view (?top=N largest)
//	GET  /v1/clusters/export  NDJSON, one cluster per line (?min=N size floor)
//	GET  /healthz             liveness (?ready=1 folds in readiness)
//	GET  /readyz              readiness: 503 during WAL replay / rollback-pending
//	GET  /metrics             JSON; ?format=prometheus or Accept: text/plain
//	                          switches to Prometheus text exposition
//	GET  /debug/traces        recent + slowest + errored request traces
//	GET  /debug/traces/{id}   one trace's full span tree
//
// Every request is traced: spans cover queueing, fingerprinting, per-shard
// scatter-gather and WAL fsync waits. Clients may supply X-Request-Id or a
// W3C traceparent; the id is echoed back as X-Trace-Id and stamped into
// error payloads and request logs. -debug-addr starts a private listener
// with net/http/pprof plus the same trace/metrics endpoints; it comes up
// before the corpus restore, so a long WAL replay is observable (and
// /readyz correctly reports 503 until serving starts).
//
// Overload behavior: the heavy POST routes sit behind a bounded admission
// queue of -admission-queue requests beyond the worker pool; once it is full,
// requests are shed immediately with 429 and a Retry-After computed from the
// live queue depth and match p99 — accepted requests keep a bounded latency
// instead of everyone queueing into timeout. -rate-limit adds a per-client
// token bucket (keyed by X-API-Key, else remote address) in front of all /v1
// routes; observability endpoints are exempt. Background work — self-join
// study segments, bulk-ingest batches — runs at background priority and
// yields worker slots to waiting interactive requests. With -corpus-dir,
// -bp-fsync-p99 arms durability backpressure: when the rolling WAL fsync p99
// crosses the threshold, ingest acknowledgements slow by the excess (capped
// at -bp-max-delay) so write bursts degrade smoothly before the admission
// queue sheds. Before shedding, sustained pressure (admission depth or fsync
// p99 at 0.75 or more) enters degradation tier 1, which halves the limit of a
// single-query /v1/match and reports it as effective_limit; -degrade-off
// disables it. See docs/operations.md for the runbook and docs/tuning.md for
// how to size the knobs.
//
// With -clusters (default on) every ingested document is matched against
// the corpus and its clone edges folded into an incremental union-find,
// so /v1/clusters answers from memory at any time; the /v1/study corpus
// mode recomputes the exact distribution on demand. The live view covers
// documents ingested since boot — after a -corpus-dir restore, run one
// corpus study to measure everything that was restored. A router keeps no
// live view, whatever -clusters says: its ingest is forwarded to the shards,
// and each shard's view covers its own partition only.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/ccd"
	"repro/internal/remote"
	"repro/internal/service"
	"repro/internal/service/api"
)

// newLogger builds the process logger from -log-format/-log-level.
func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

// bootDebugHandler serves the -debug-addr listener until the API server
// exists: pprof is live (a stuck WAL replay can be profiled) and /readyz
// honestly reports not-ready. Swapped for the full handler once serving.
func bootDebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	notReady := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]any{
			"status": "unavailable", "ready": false, "phase": "restoring",
		})
	}
	mux.HandleFunc("GET /readyz", notReady)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"status": "ok", "phase": "restoring"})
	})
	return mux
}

func main() {
	addr := flag.String("addr", ":8070", "listen address")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	cache := flag.Int("cache", 0, "entries per cache layer (0 = default, <0 disables)")
	shardsFlag := flag.String("shards", "", "generation-shards per corpus / scatter-gather width (empty or 0 = GOMAXPROCS); with -role router: comma-separated shard base URLs")
	role := flag.String("role", "single", "node role: single (everything in-process), shard (owns one -partition), router (fans /v1/match over -shards URLs), replica (shard that bootstraps from -bootstrap-from and keeps tailing its WAL)")
	partition := flag.String("partition", "", "this node's hash partition as i/N (with -role shard|replica)")
	replicas := flag.String("replicas", "", "comma-separated replica base URLs aligned with the -shards list (with -role router; empty slots allowed)")
	waves := flag.Int("waves", 0, "router fanout waves: later waves ship the bound tightened by earlier ones (0 = default)")
	bootstrapFrom := flag.String("bootstrap-from", "", "peer base URL to bootstrap the corpus from: snapshot download + WAL tail replay (with -role shard|replica; requires -corpus-dir)")
	n := flag.Int("ccd-n", ccd.DefaultConfig.N, "CCD n-gram size")
	eta := flag.Float64("ccd-eta", ccd.DefaultConfig.Eta, "CCD n-gram containment threshold")
	eps := flag.Float64("ccd-eps", ccd.DefaultConfig.Epsilon, "CCD similarity threshold (0-100)")
	corpusDir := flag.String("corpus-dir", "", "directory for the durable corpus (empty = in-memory only)")
	snapInterval := flag.Duration("snapshot-interval", 0, "periodic snapshot interval with -corpus-dir (0 = on demand/shutdown only)")
	clusters := flag.Bool("clusters", true, "maintain the live clone-cluster view as ingest lands (/v1/clusters; a router keeps none)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error (per-request lines log at debug)")
	debugAddr := flag.String("debug-addr", "", "private listener for pprof + trace/metrics endpoints (empty = disabled)")
	traceBuffer := flag.Int("trace-buffer", 0, "completed traces retained for /debug/traces (0 = default)")
	admissionQueue := flag.Int("admission-queue", 64, "admitted requests allowed to wait beyond the worker pool before shedding with 429 (0 = never shed)")
	rateLimit := flag.Float64("rate-limit", 0, "per-client request rate limit in requests/second on /v1 routes (0 = disabled; clients keyed by X-API-Key, else remote address)")
	rateBurst := flag.Int("rate-burst", 32, "per-client burst size with -rate-limit")
	bpFsyncP99 := flag.Duration("bp-fsync-p99", 50*time.Millisecond, "rolling WAL fsync p99 above which ingest acks slow down (0 = disabled; needs -corpus-dir)")
	bpMaxDelay := flag.Duration("bp-max-delay", service.DefaultBackpressureMaxDelay, "cap on the per-ack delay injected by durability backpressure")
	maxDeadline := flag.Duration("max-deadline", api.DefaultMaxDeadline, "clamp on client-declared X-Request-Timeout / ?timeout= budgets")
	degradeOff := flag.Bool("degrade-off", false, "disable the quality-degradation ladder (tier 1 halves a single-query match limit at pressure ≥ 0.75)")
	mmapSegments := flag.Bool("mmap", true, "memory-map snapshot segments on restore and after snapshots (zero-copy boot; false = decode to heap)")
	flag.Parse()

	die := func(err error) {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
	}

	// -shards is overloaded: an integer (local scatter-gather width) in every
	// role except router, where it lists the remote shard base URLs.
	shardCount := 0
	var shardURLs []string
	switch *role {
	case "router":
		shardURLs = splitList(*shardsFlag)
		if len(shardURLs) == 0 {
			die(errors.New("-role router needs -shards with at least one shard base URL"))
		}
	case "single", "shard", "replica":
		if *shardsFlag != "" {
			n, err := strconv.Atoi(*shardsFlag)
			if err != nil || n < 0 {
				die(fmt.Errorf("bad -shards %q (want a non-negative shard count)", *shardsFlag))
			}
			shardCount = n
		}
	default:
		die(fmt.Errorf("bad -role %q (want single, shard, router or replica)", *role))
	}
	partIdx, partTotal := -1, 0
	if *partition != "" {
		if *role != "shard" && *role != "replica" {
			die(errors.New("-partition only applies to -role shard|replica"))
		}
		if n, err := fmt.Sscanf(*partition, "%d/%d", &partIdx, &partTotal); err != nil || n != 2 || partIdx < 0 || partTotal < 1 || partIdx >= partTotal {
			die(fmt.Errorf("bad -partition %q (want i/N with 0 <= i < N)", *partition))
		}
	} else if *role == "shard" || *role == "replica" {
		die(fmt.Errorf("-role %s needs -partition i/N", *role))
	}
	if *bootstrapFrom != "" && *corpusDir == "" {
		die(errors.New("-bootstrap-from requires -corpus-dir (the snapshot lands there)"))
	}

	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		die(err)
	}
	slog.SetDefault(logger)

	// The debug listener comes up before the (possibly long) corpus restore:
	// its handler is swapped atomically once the API server exists.
	var debugHandler atomic.Value // http.Handler
	debugHandler.Store(bootDebugHandler())
	if *debugAddr != "" {
		dsrv := &http.Server{
			Addr: *debugAddr,
			Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				debugHandler.Load().(http.Handler).ServeHTTP(w, r)
			}),
			ReadHeaderTimeout: 10 * time.Second,
			// Debug requests carry no bodies worth waiting on; idle
			// keep-alives are reaped so a leaked scraper cannot pin
			// connections. No WriteTimeout: pprof profiles stream for
			// their requested duration.
			ReadTimeout: time.Minute,
			IdleTimeout: 2 * time.Minute,
		}
		go func() {
			if err := dsrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "addr", *debugAddr, "err", err)
			}
		}()
		logger.Info("debug listener up", "addr", *debugAddr)
	}

	// Router ingest is forwarded and never reaches the router's own corpus,
	// so the live cluster view lives on the shards.
	engine := service.New(service.Options{
		Workers:       *workers,
		CacheEntries:  *cache,
		Shards:        shardCount,
		CCD:           ccd.Config{N: *n, Eta: *eta, Epsilon: *eps},
		TrackClusters: *clusters && *role != "router",
		Admission:     service.AdmissionConfig{MaxQueue: *admissionQueue},
		Degrade:       service.DegradeConfig{FsyncP99: *bpFsyncP99, Disabled: *degradeOff},
	})

	opts := []api.Option{api.WithLogger(logger), api.WithMaxDeadline(*maxDeadline)}
	var router *remote.Router
	if *role == "router" {
		router = remote.NewRouter(remote.Config{
			Targets:  shardURLs,
			Replicas: splitList(*replicas),
			Waves:    *waves,
			Epsilon:  *eps,
		})
		opts = append(opts, api.WithRouter(router))
	}
	if partTotal > 0 {
		opts = append(opts, api.WithPartition(partIdx, partTotal))
	}
	if *rateLimit > 0 {
		opts = append(opts, api.WithRateLimit(*rateLimit, *rateBurst))
	}
	if *traceBuffer > 0 {
		opts = append(opts, api.WithTraceBuffer(*traceBuffer, 0))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var store *service.Store
	stopAutoSnapshot := func() {}
	if *corpusDir != "" {
		if *bootstrapFrom != "" {
			if err := bootstrapSnapshot(ctx, *corpusDir, *bootstrapFrom, logger); err != nil {
				die(fmt.Errorf("bootstrap from %s: %w", *bootstrapFrom, err))
			}
		}
		var err error
		store, err = service.OpenStoreWith(*corpusDir, engine.Corpus(),
			service.StoreOptions{NoMapSegments: !*mmapSegments})
		if err != nil {
			die(err)
		}
		info := store.Info()
		logger.Info("corpus restored", "dir", *corpusDir,
			"snapshot_entries", info.RestoredEntries,
			"wal_replayed", info.ReplayedRecords,
			"torn_tail_cut", info.TornTailCut,
			"mapped_segments", info.MappedSegments)
		if *snapInterval > 0 {
			stopAutoSnapshot = store.StartAutoSnapshot(*snapInterval, func(err error) {
				logger.Warn("auto snapshot failed", "err", err)
			})
			defer stopAutoSnapshot() // idempotent; safety net for error exits
		}
		if *bpFsyncP99 > 0 {
			store.SetBackpressure(service.BackpressureConfig{
				FsyncP99: *bpFsyncP99,
				MaxDelay: *bpMaxDelay,
			})
		}
		opts = append(opts, api.WithStore(store))
	} else if *snapInterval > 0 {
		die(errors.New("-snapshot-interval requires -corpus-dir"))
	}

	// A bootstrapped node catches up on the peer's WAL tail before taking
	// traffic; a replica keeps tailing afterwards so it converges on its
	// primary within about a second of every primary commit.
	if *bootstrapFrom != "" {
		peer := remote.NewClient(10 * time.Minute)
		walNext, walEpoch, err := applyWALTail(ctx, engine, peer, *bootstrapFrom, 0, 0)
		if err != nil {
			die(fmt.Errorf("bootstrap WAL tail from %s: %w", *bootstrapFrom, err))
		}
		logger.Info("bootstrap complete", "from", *bootstrapFrom,
			"corpus_entries", engine.Corpus().Len(), "wal_next", walNext, "wal_epoch", walEpoch)
		if *role == "replica" {
			go tailReplicaWAL(ctx, engine, peer, *bootstrapFrom, walNext, walEpoch, logger)
		}
	}

	server := api.NewServer(engine, opts...)
	// Restore is done: the debug listener graduates from the boot handler to
	// the full pprof + traces + metrics surface, and /readyz flips honest.
	debugHandler.Store(server.DebugHandler())

	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		// ReadTimeout bounds one request's body read — generous enough for a
		// streamed bulk-ingest body, tight enough that a stalled client
		// cannot hold a connection open forever. Deliberately no
		// WriteTimeout: the streaming responses (WAL tailing on
		// /v1/wal/stream, NDJSON exports) run on per-handler deadlines and
		// pagination caps instead of one global write clock.
		ReadTimeout: 5 * time.Minute,
		IdleTimeout: 2 * time.Minute,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logAttrs := []any{"addr", *addr, "role", *role,
		"workers", engine.Workers(),
		"shards", engine.Corpus().Shards(),
		"corpus_entries", engine.Corpus().Len()}
	if router != nil {
		logAttrs = append(logAttrs, "remote_shards", len(shardURLs))
	}
	if partTotal > 0 {
		logAttrs = append(logAttrs, "partition", fmt.Sprintf("%d/%d", partIdx, partTotal))
	}
	logger.Info("listening", logAttrs...)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			die(err)
		}
	case <-ctx.Done():
		logger.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			die(fmt.Errorf("shutdown: %w", err))
		}
		if store != nil {
			// Quiesce the timer loop before the final snapshot so it cannot
			// fire between the snapshot and the WAL close.
			stopAutoSnapshot()
			if info, err := store.Snapshot(); err != nil {
				logger.Error("final snapshot failed", "err", err)
			} else {
				logger.Info("final snapshot", "entries", info.Entries, "bytes", info.Bytes)
			}
			if err := store.Close(); err != nil {
				logger.Error("close store failed", "err", err)
			}
		}
	}
}

// splitList splits a comma-separated flag into trimmed terms. Empty terms
// are kept in place (the -replicas list aligns by position with -shards);
// an all-empty list returns nil.
func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, len(parts))
	any := false
	for i, p := range parts {
		out[i] = strings.TrimSpace(p)
		if out[i] != "" {
			any = true
		}
	}
	if !any {
		return nil
	}
	return out
}

// bootstrapSnapshot downloads the peer's binary corpus export into
// dir/corpus.snap when the directory holds no prior state, so the subsequent
// OpenStore restores the peer's corpus instead of starting empty. A
// directory that already has a snapshot or WAL is left alone: the node
// resumes from its own state and only replays the peer's WAL tail.
func bootstrapSnapshot(ctx context.Context, dir, from string, logger *slog.Logger) error {
	snapPath := filepath.Join(dir, service.SnapshotFile)
	for _, p := range []string{snapPath, filepath.Join(dir, service.WALFile)} {
		if _, err := os.Stat(p); err == nil {
			logger.Info("bootstrap: local state present, skipping snapshot fetch", "path", p)
			return nil
		} else if !os.IsNotExist(err) {
			return err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	n, err := service.WriteFileAtomic(snapPath, func(w io.Writer) error {
		_, err := remote.NewClient(10*time.Minute).FetchSnapshot(ctx, from, w)
		return err
	})
	if err != nil {
		return err
	}
	logger.Info("bootstrap: snapshot fetched", "from", from, "bytes", n)
	return nil
}

// walApplyBatch bounds one engine batch while a replica applies its
// primary's WAL tail or export.
const walApplyBatch = 256

// applyWALTail streams the peer's WAL from position pos in WAL generation
// epoch (0 = unknown) and applies the records through the engine — which
// journals them into the local WAL, so a bootstrapped node is durable in its
// own right. Returns the next stream position and the generation it belongs
// to; both must be echoed on the next call so the peer can detect a stale
// position after it snapshots. Replay is idempotent: the corpus supersedes
// duplicate ids, so overlap with the bootstrapped snapshot is harmless.
func applyWALTail(ctx context.Context, engine *service.Engine, peer *remote.Client, from string, pos int, epoch int64) (next int, nextEpoch int64, err error) {
	err = applyBatches(ctx, engine, func(add func(id, fp string) error) error {
		var serr error
		next, nextEpoch, serr = peer.StreamWAL(ctx, from, pos, epoch, func(rec remote.WALRecord) error {
			return add(rec.ID, rec.Fingerprint)
		})
		return serr
	})
	return next, nextEpoch, err
}

// applyBatches applies the entries stream yields (one add call each) through
// the engine in batches of walApplyBatch, and stops at the first batch the
// local store failed to persist. A stream error is returned as is, with the
// entries since the last full batch left unapplied.
func applyBatches(ctx context.Context, engine *service.Engine, stream func(add func(id, fp string) error) error) error {
	batch := make([]service.CorpusEntry, 0, walApplyBatch)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		for _, err := range engine.CorpusAddBatchCtx(ctx, batch) {
			if errors.Is(err, service.ErrPersist) {
				return err
			}
		}
		batch = batch[:0]
		return nil
	}
	if err := stream(func(id, fp string) error {
		batch = append(batch, service.CorpusEntry{ID: id, Fingerprint: ccd.Fingerprint(fp)})
		if len(batch) >= walApplyBatch {
			return flush()
		}
		return nil
	}); err != nil {
		return err
	}
	return flush()
}

// replicaTailInterval paces the replica's WAL polling loop.
const replicaTailInterval = time.Second

// tailReplicaWAL keeps a replica converging on its primary: poll the WAL
// stream (echoing the position AND the WAL generation it belongs to), apply
// new records, and on 410 Gone (the primary's generation moved past ours —
// it snapshotted and truncated its log) fall back to a full paginated-export
// re-sync — supersede-on-duplicate makes the re-apply idempotent. After a
// re-sync the position and generation reset; the next poll starts at 0 and
// adopts the primary's current generation from the response.
func tailReplicaWAL(ctx context.Context, engine *service.Engine, peer *remote.Client, from string, pos int, epoch int64, logger *slog.Logger) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-time.After(replicaTailInterval):
		}
		next, nextEpoch, err := applyWALTail(ctx, engine, peer, from, pos, epoch)
		switch {
		case err == nil:
			pos, epoch = next, nextEpoch
		case isGone(err):
			logger.Warn("replica tail: primary truncated its WAL (generation changed); re-syncing via export", "from", from)
			if err := resyncExport(ctx, engine, peer, from); err != nil {
				logger.Warn("replica re-sync failed", "err", err)
				continue
			}
			pos, epoch = 0, 0
		default:
			if ctx.Err() != nil {
				return
			}
			logger.Warn("replica tail failed", "err", err)
		}
	}
}

// isGone reports whether err is the shard's 410 ErrWALTruncated answer.
func isGone(err error) bool {
	var se *remote.StatusError
	return errors.As(err, &se) && se.Status == http.StatusGone
}

// resyncExport re-applies the primary's full corpus via the cursor-paginated
// NDJSON export. Duplicate (id, fingerprint) pairs supersede in place, so
// the replica converges without wiping local state.
func resyncExport(ctx context.Context, engine *service.Engine, peer *remote.Client, from string) error {
	return applyBatches(ctx, engine, func(add func(id, fp string) error) error {
		return peer.ExportEntries(ctx, from, func(page []ccd.Entry) error {
			for _, e := range page {
				if err := add(e.ID, string(e.FP)); err != nil {
					return err
				}
			}
			return nil
		})
	})
}
