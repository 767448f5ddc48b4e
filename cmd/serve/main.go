// Command serve runs the concurrent analysis service (the CCC vulnerability
// checker and the CCD clone detector behind a worker pool, caches and an
// HTTP JSON API) on one node, or as a shard, router or replica (-role):
//
//	serve -role shard -partition 0/2 -corpus-dir ./p0 -addr :8071
//	serve -role router -shards http://h1:8071,http://h2:8072 -addr :8070
//	serve -role replica -partition 0/2 -corpus-dir ./r0 -bootstrap-from http://h1:8071
//
// Its flags are serve.Config's fields (internal/serve); a flag its role does
// not read, or set without a flag it needs, is an error naming it. See
// docs/operations.md "Roles" for the role × flag table, README.md for the
// endpoints and docs/tuning.md for sizing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/serve"
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

func main() {
	cfg := serve.Defaults()
	cfg.RegisterFlags(flag.CommandLine)
	flag.Parse()

	die := func(err error) {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
	}
	if err := cfg.Validate(); err != nil {
		die(err)
	}
	logger, err := newLogger(cfg.LogFormat, cfg.LogLevel)
	if err != nil {
		die(err)
	}
	slog.SetDefault(logger)

	// The debug listener comes up before the (possibly long) corpus restore:
	// its handler is swapped atomically once the API server exists.
	var debugHandler atomic.Value // http.Handler
	debugHandler.Store(api.BootDebugHandler())
	if cfg.DebugAddr != "" {
		dsrv := &http.Server{
			Addr: cfg.DebugAddr,
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
				logger.Error("debug listener failed", "addr", cfg.DebugAddr, "err", err)
			}
		}()
		logger.Info("debug listener up", "addr", cfg.DebugAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	node, err := serve.Build(ctx, cfg, logger)
	if err != nil {
		die(err)
	}
	// Restore is done: the debug listener graduates from the boot handler to
	// the full pprof + traces + metrics surface, and /readyz flips honest.
	debugHandler.Store(node.Debug)

	srv := &http.Server{
		Addr:              cfg.Addr,
		Handler:           node.Handler,
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
	logger.Info("listening", "addr", cfg.Addr, "role", cfg.Role, "workers", node.Engine.Workers(),
		"shards", node.Engine.Corpus().Shards(), "corpus_entries", node.Engine.Corpus().Len(), "partition", cfg.Partition)

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
		node.Stop()
	}
}
