package serve

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ccd"
	"repro/internal/remote"
	"repro/internal/service"
)

// bootstrapSnapshot downloads the peer's binary corpus export into
// dir/corpus.snap when the directory holds no snapshot or WAL, for the store
// to restore. A directory with either is left alone: the node resumes from
// its own state and only replays the peer's WAL tail.
func bootstrapSnapshot(ctx context.Context, dir, from string, peer *remote.Client, logger *slog.Logger) error {
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
		_, err := peer.FetchSnapshot(ctx, from, w)
		return err
	})
	if err != nil {
		return err
	}
	logger.Info("bootstrap: snapshot fetched", "from", from, "bytes", n)
	return nil
}

// walApplyBatch bounds one engine batch of a WAL tail or export applied.
const walApplyBatch = 256

// applyWALTail applies the peer's WAL from position pos of generation epoch
// (0 = unknown) through the engine, and returns the position and generation
// to echo next, so the peer can tell a position it has truncated away.
// Duplicate ids supersede, so overlap with the bootstrapped snapshot is harmless.
func applyWALTail(ctx context.Context, engine *service.Engine, peer *remote.Client, from string, pos int, epoch int64) (next int, nextEpoch int64, err error) {
	err = applyBatches(ctx, engine, func(add func(id, fp string) error) (err error) {
		next, nextEpoch, err = peer.StreamWAL(ctx, from, pos, epoch, func(rec remote.WALRecord) error {
			return add(rec.ID, rec.Fingerprint)
		})
		return err
	})
	return next, nextEpoch, err
}

// applyBatches applies the entries stream yields through the engine in
// batches of walApplyBatch, and stops at the first batch the local store
// failed to persist. A stream error is returned as is, with the entries
// since the last full batch left unapplied.
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

// tailReplicaWAL keeps a replica converging on its primary: it polls the WAL
// stream from its position and generation and applies new records. On 410
// Gone (the primary snapshotted and truncated its log past ours) it re-syncs
// from the full export and resumes where the re-sync says.
func tailReplicaWAL(ctx context.Context, engine *service.Engine, store *service.Store, peer *remote.Client, from string, pos int, epoch int64, logger *slog.Logger) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-time.After(replicaTailInterval):
		}
		next, nextEpoch, err := applyWALTail(ctx, engine, peer, from, pos, epoch)
		var se *remote.StatusError
		switch {
		case err == nil:
			pos, epoch = next, nextEpoch
		case errors.As(err, &se) && se.Status == http.StatusGone: // the shard's ErrWALTruncated
			logger.Warn("replica tail: primary truncated its WAL (generation changed); re-syncing via export", "from", from)
			if next, nextEpoch, err = resyncExport(ctx, engine, store, peer, from); err != nil {
				logger.Warn("replica re-sync failed", "err", err)
				continue
			}
			pos, epoch = next, nextEpoch
		default:
			if ctx.Err() != nil {
				return
			}
			logger.Warn("replica tail failed", "err", err)
		}
	}
}

// resyncExport replaces the local corpus with the primary's export: listed
// ids supersede in place, and the rest, which a replica without client
// writes holds only if its primary lost them, are dropped. It reads the
// WAL first and returns where that read ended, so a snapshot the primary
// takes meanwhile answers the next poll with 410 rather than hide records.
func resyncExport(ctx context.Context, engine *service.Engine, store *service.Store, peer *remote.Client, from string) (int, int64, error) {
	pos, epoch, err := applyWALTail(ctx, engine, peer, from, 0, 0)
	if err != nil {
		return 0, 0, err
	}
	listed := map[string]struct{}{}
	err = applyBatches(ctx, engine, func(add func(id, fp string) error) error {
		return peer.ExportEntries(ctx, from, func(page []ccd.Entry) error {
			for _, e := range page {
				listed[e.ID] = struct{}{}
				if err := add(e.ID, string(e.FP)); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err == nil {
		_, err = store.Retain(listed)
	}
	return pos, epoch, err
}
