package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ccd"
)

func testFP(i int) ccd.Fingerprint {
	return ccd.Fingerprint(fmt.Sprintf("QxRtYuIoP%dAbCdEfGh.ZxCvBnM%dQwErTy", i, i*7))
}

// appendRecord journals one entry: a batch of one.
func (w *wal) appendRecord(ctx context.Context, id string, fp ccd.Fingerprint) error {
	return w.appendBatch(ctx, []ccd.Entry{{ID: id, FP: fp}})
}

// faultFile wraps a log's file and injects faults: sync, when set, runs in
// place of Sync; write and trunc, when set, run before Write and Truncate and
// refuse the call by returning an error (write sees the bytes, so it can land
// a short write's leftovers through the wrapped file first). Set the hooks
// only while no append is in flight, or make them safe for concurrent use.
type faultFile struct {
	walFile
	sync  func() error
	write func(p []byte) error
	trunc func() error
}

func (f *faultFile) Sync() error {
	if f.sync != nil {
		return f.sync()
	}
	return f.walFile.Sync()
}

func (f *faultFile) Write(p []byte) (int, error) {
	if f.write != nil {
		if err := f.write(p); err != nil {
			return 0, err
		}
	}
	return f.walFile.Write(p)
}

func (f *faultFile) Truncate(n int64) error {
	if f.trunc != nil {
		if err := f.trunc(); err != nil {
			return err
		}
	}
	return f.walFile.Truncate(n)
}

// injectFaults puts a faultFile between w and its file.
func injectFaults(w *wal) *faultFile {
	ff := &faultFile{walFile: w.f}
	w.f = ff
	return ff
}

// addFP and addSrc ingest one entry through the engine: a batch of one.
func addFP(e *Engine, id string, fp ccd.Fingerprint) error {
	return e.CorpusAddBatch([]CorpusEntry{{ID: id, Fingerprint: fp}})[0]
}

func addSrc(e *Engine, id, src string) error {
	return e.CorpusAddBatch([]CorpusEntry{{ID: id, Source: src}})[0]
}

func mustAdd(t *testing.T, c *Corpus, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := c.Add(fmt.Sprintf("doc-%d", i), testFP(i)); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
}

func verifyEntries(t *testing.T, c *Corpus, n int) {
	t.Helper()
	if c.Len() != n {
		t.Fatalf("corpus has %d entries, want %d", c.Len(), n)
	}
	for i := 0; i < n; i++ {
		ms := matchAll(c, testFP(i))
		found := false
		for _, m := range ms {
			if m.ID == fmt.Sprintf("doc-%d", i) && m.Score == 100 {
				found = true
			}
		}
		if !found {
			t.Fatalf("doc-%d not matchable after recovery (got %v)", i, ms)
		}
	}
}

// TestStoreGroupCommitFailureAccounting is the partial-group-commit
// regression: an Add whose fsync fails must be rolled out of the WAL file,
// so the acknowledged-add accounting and the boot-time replay count agree
// exactly — a record the caller was told failed must never replay.
func TestStoreGroupCommitFailureAccounting(t *testing.T) {
	dir := t.TempDir()
	c := NewCorpus(ccd.DefaultConfig, 2)
	store, err := OpenStore(dir, c)
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, c, 3)

	// Inject a disk failure on the next group commit. The record's bytes hit
	// the file before the fsync, so without the rollback they would replay.
	ff := injectFaults(store.wal)
	ff.sync = func() error { return errors.New("injected: disk full") }
	err = c.Add("doomed", testFP(99))
	if !errors.Is(err, ErrPersist) {
		t.Fatalf("failed group commit returned %v, want ErrPersist", err)
	}
	if c.Len() != 3 {
		t.Fatalf("unacknowledged add visible: Len %d, want 3", c.Len())
	}

	// The log recovers: the failed record is gone and new appends land at
	// the durable offset.
	ff.sync = nil
	if err := c.Add("after", testFP(4)); err != nil {
		t.Fatal(err)
	}
	acked := int64(4) // 3 + "after"; "doomed" was refused
	if got := store.pendingAdds.Load(); got != acked {
		t.Fatalf("pendingAdds %d, want %d", got, acked)
	}

	// Crash (no Close, no Snapshot) and reboot: the replay count must match
	// the acknowledged adds, and the refused record must not resurface.
	c2 := NewCorpus(ccd.DefaultConfig, 2)
	s2, err := OpenStore(dir, c2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	info := s2.Info()
	if int64(info.ReplayedRecords) != acked {
		t.Fatalf("replayed %d records, want %d (accounting disagrees with WAL)", info.ReplayedRecords, acked)
	}
	if info.TornTailCut {
		t.Fatal("rollback left a torn tail for replay to cut")
	}
	if c2.Len() != 4 {
		t.Fatalf("rebooted corpus has %d entries, want 4", c2.Len())
	}
	for _, m := range matchAll(c2, testFP(99)) {
		if m.ID == "doomed" {
			t.Fatal("record from failed group commit replayed on boot")
		}
	}
}

// TestWALRollbackOnSyncFailure pins the wal-level contract: a failed fsync
// truncates back to the durable prefix, later appends succeed at the right
// offset, and replay sees exactly the acknowledged records.
func TestWALRollbackOnSyncFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	w, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if err := w.appendRecord(context.Background(), "a", testFP(1)); err != nil {
		t.Fatal(err)
	}
	okSize, err := w.size()
	if err != nil {
		t.Fatal(err)
	}
	ff := injectFaults(w)
	ff.sync = func() error { return errors.New("injected") }
	if err := w.appendRecord(context.Background(), "b", testFP(2)); err == nil {
		t.Fatal("append with failing fsync succeeded")
	}
	if got, _ := w.size(); got != okSize {
		t.Fatalf("file size %d after rollback, want %d", got, okSize)
	}
	ff.sync = nil
	if err := w.appendRecord(context.Background(), "c", testFP(3)); err != nil {
		t.Fatal(err)
	}
	var ids []string
	records, _, torn, err := replayWAL(path, func(id string, fp ccd.Fingerprint) { ids = append(ids, id) })
	if err != nil || torn {
		t.Fatalf("replay: records=%d torn=%v err=%v", records, torn, err)
	}
	if records != 2 || ids[0] != "a" || ids[1] != "c" {
		t.Fatalf("replayed %v, want [a c]", ids)
	}
}

// TestWALRollbackTruncateFailureBlocksNewAppends: when a failed group
// commit's rollback cannot truncate the condemned records away, their bytes
// are still in the O_APPEND file — so new records must not land behind them
// until a retried truncate succeeds, or a later fsync would make the
// refused records durable and replayable.
func TestWALRollbackTruncateFailureBlocksNewAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	w, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if err := w.appendRecord(context.Background(), "a", testFP(1)); err != nil {
		t.Fatal(err)
	}

	ff := injectFaults(w)
	ff.sync = func() error { return errors.New("injected: disk full") }
	ff.trunc = func() error { return errors.New("injected: truncate refused") }
	if err := w.appendRecord(context.Background(), "doomed", testFP(2)); err == nil {
		t.Fatal("append with failing fsync succeeded")
	}
	ff.sync = nil

	// While the rollback is pending, appends fail rather than landing after
	// the condemned bytes.
	if err := w.appendRecord(context.Background(), "blocked", testFP(3)); err == nil {
		t.Fatal("append landed behind un-truncated condemned records")
	}

	// Once the truncate works again, the retry cuts the condemned records
	// and the log carries on.
	ff.trunc = nil
	if err := w.appendRecord(context.Background(), "c", testFP(4)); err != nil {
		t.Fatal(err)
	}
	var ids []string
	records, _, torn, err := replayWAL(path, func(id string, fp ccd.Fingerprint) { ids = append(ids, id) })
	if err != nil || torn {
		t.Fatalf("replay: records=%d torn=%v err=%v", records, torn, err)
	}
	if records != 2 || ids[0] != "a" || ids[1] != "c" {
		t.Fatalf("replayed %v, want [a c]", ids)
	}
}

// TestWALWriteFailurePoisonsAndRecovers: a failed record write (short write
// leaving garbage in the file) is cut back to the durable prefix — with one
// writer, exactly where the failed write began — so the log carries on with
// no torn tail.
func TestWALWriteFailurePoisonsAndRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	w, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if err := w.appendRecord(context.Background(), "a", testFP(1)); err != nil {
		t.Fatal(err)
	}
	ff := injectFaults(w)
	ff.write = func([]byte) error {
		_, _ = ff.walFile.Write([]byte{0xde, 0xad}) // the short write's garbage
		return errors.New("injected: device error")
	}
	if err := w.appendRecord(context.Background(), "b", testFP(2)); err == nil {
		t.Fatal("append with failing write succeeded")
	}
	ff.write = nil
	if err := w.appendRecord(context.Background(), "c", testFP(3)); err != nil {
		t.Fatalf("append after write-failure recovery: %v", err)
	}
	var ids []string
	records, _, torn, err := replayWAL(path, func(id string, fp ccd.Fingerprint) { ids = append(ids, id) })
	if err != nil || torn {
		t.Fatalf("replay: records=%d torn=%v err=%v", records, torn, err)
	}
	if records != 2 || ids[0] != "a" || ids[1] != "c" {
		t.Fatalf("replayed %v, want [a c]", ids)
	}
}

// TestStoreReadyRetriesPendingCut: a failed commit — a short write or a
// failed fsync — whose cut back to the durable prefix is refused leaves
// bytes no append may land behind, so the store reads not ready. Once the
// disk heals, the first readiness probe retries the cut and reads ready (no
// append or snapshot needed), and the next add lands and replays after a
// crash while the refused one does not.
func TestStoreReadyRetriesPendingCut(t *testing.T) {
	for _, fault := range []string{"short_write", "failed_fsync"} {
		t.Run(fault, func(t *testing.T) {
			dir := t.TempDir()
			c := NewCorpus(ccd.DefaultConfig, 2)
			store, err := OpenStore(dir, c)
			if err != nil {
				t.Fatal(err)
			}
			mustAdd(t, c, 2)
			ff := injectFaults(store.wal)
			if fault == "short_write" {
				ff.write = func(p []byte) error {
					_, _ = ff.walFile.Write(p[:len(p)/2])
					return errors.New("injected: device error")
				}
			} else {
				ff.sync = func() error { return errors.New("injected: disk full") }
			}
			ff.trunc = func() error { return errors.New("injected: truncate refused") }
			if err := c.Add("doomed", testFP(98)); !errors.Is(err, ErrPersist) {
				t.Fatalf("failed commit returned %v, want ErrPersist", err)
			}
			if store.Ready() {
				t.Fatal("store reads ready with a failed commit's bytes uncut")
			}
			ff.write, ff.sync, ff.trunc = nil, nil, nil
			if !store.Ready() {
				t.Fatal("first readiness probe after the disk healed reads not ready")
			}
			if err := c.Add("after", testFP(2)); err != nil {
				t.Fatal(err)
			}
			rebooted, s2 := reopen(t, dir, 2)
			if info := s2.Info(); info.ReplayedRecords != 3 || info.TornTailCut {
				t.Fatalf("boot info %+v, want 3 replayed and no torn tail", info)
			}
			got := rebooted.entryMultiset()
			if got["doomed\x00"+string(testFP(98))] != 0 || got["after\x00"+string(testFP(2))] != 1 {
				t.Fatalf("replayed %v, want after and not doomed", got)
			}
		})
	}
}

// TestWALConcurrentFaults runs 8 concurrent appenders, each issuing 40 single
// adds or batches of 1-3 entries, against a log file that fails fsyncs,
// writes short and refuses truncates at random. Then the file heals, a
// readiness probe cuts any leftovers, and the store crash-reopens: the
// replayed records must be exactly the acknowledged ones, every batch
// journaled whole or not at all, and every failed fsync rolled back.
func TestWALConcurrentFaults(t *testing.T) {
	const appenders, ops = 8, 40
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			e := New(Options{Workers: 2, Shards: 2})
			store, err := OpenStore(dir, e.Corpus())
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex // guards rng and faults
			rng := rand.New(rand.NewSource(seed))
			faults := true
			// draw reports whether to inject a fault of probability p, and
			// where in n bytes a short write stops.
			draw := func(p float64, n int) (bool, int) {
				mu.Lock()
				defer mu.Unlock()
				if !faults || rng.Float64() >= p {
					return false, 0
				}
				return true, rng.Intn(n + 1)
			}
			var fsyncFails atomic.Int64
			ff := injectFaults(store.wal)
			ff.sync = func() error {
				if fail, _ := draw(0.15, 0); fail {
					fsyncFails.Add(1)
					return errors.New("injected: fsync failed")
				}
				return ff.walFile.Sync()
			}
			ff.write = func(p []byte) error {
				if fail, k := draw(0.1, len(p)); fail {
					_, _ = ff.walFile.Write(p[:k])
					return errors.New("injected: short write")
				}
				return nil
			}
			ff.trunc = func() error {
				if fail, _ := draw(0.3, 0); fail {
					return errors.New("injected: truncate refused")
				}
				return nil
			}

			acked := make([][]CorpusEntry, appenders)
			refused := make([]int, appenders)
			var wg sync.WaitGroup
			for a := 0; a < appenders; a++ {
				wg.Add(1)
				go func(a int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(seed*appenders + int64(a)))
					for op := 0; op < ops; op++ {
						batch := make([]CorpusEntry, 1+r.Intn(3))
						for j := range batch {
							batch[j] = CorpusEntry{ID: fmt.Sprintf("a%d-%d-%d", a, op, j), Fingerprint: testFP(a*1000 + op*10 + j)}
						}
						var errs []error
						if r.Intn(2) == 0 {
							batch = batch[:1]
							errs = []error{e.Corpus().Add(batch[0].ID, batch[0].Fingerprint)}
						} else {
							errs = e.CorpusAddBatch(batch)
						}
						for j, err := range errs {
							if (err == nil) != (errs[0] == nil) {
								t.Errorf("seed %d: batch %s journaled in part: %v", seed, batch[0].ID, errs)
							}
							switch {
							case err == nil:
								acked[a] = append(acked[a], batch[j])
							case errors.Is(err, ErrPersist):
								refused[a]++
							default:
								t.Errorf("seed %d: add %s: %v", seed, batch[j].ID, err)
							}
						}
					}
				}(a)
			}
			wg.Wait()
			mu.Lock()
			faults = false
			mu.Unlock()
			if !store.Ready() {
				t.Fatalf("seed %d: store not ready once the faults stopped", seed)
			}
			d := store.Durability()
			if d.Rollbacks != fsyncFails.Load() || d.Rollbacks == 0 {
				t.Fatalf("seed %d: %d rollbacks for %d injected fsync failures (want equal and > 0)", seed, d.Rollbacks, fsyncFails.Load())
			}

			rebooted, s2 := reopen(t, dir, 2) // a crash: no Close, no Snapshot
			want := map[string]int{}
			for _, es := range acked {
				for _, en := range es {
					want[en.ID+"\x00"+string(en.Fingerprint)]++
				}
			}
			got := rebooted.entryMultiset()
			for k, n := range got {
				if want[k] != n {
					t.Errorf("seed %d: %q replayed %d times, acknowledged %d", seed, strings.Split(k, "\x00")[0], n, want[k])
				}
			}
			for k := range want {
				if got[k] == 0 {
					t.Errorf("seed %d: acknowledged %q did not replay", seed, strings.Split(k, "\x00")[0])
				}
			}
			if info := s2.Info(); info.ReplayedRecords != len(want) || info.TornTailCut {
				t.Errorf("seed %d: boot info %+v, want %d replayed and no torn tail", seed, info, len(want))
			}
			total := 0
			for _, n := range refused {
				total += n
			}
			if total == 0 {
				t.Fatalf("seed %d: no add was refused", seed)
			}
			t.Logf("seed %d: %d records acknowledged, %d refused, %d fsync failures", seed, len(want), total, d.Rollbacks)
		})
	}
}

// TestStoreReplaySupersededRecords: with duplicate-id supersede, only the
// final WAL record per id replays — and a crash in the snapshot-rename /
// WAL-truncate window must not roll an id back to a stale fingerprint.
func TestStoreReplaySupersededRecords(t *testing.T) {
	dir := t.TempDir()
	c := NewCorpus(ccd.DefaultConfig, 2)
	store, err := OpenStore(dir, c)
	if err != nil {
		t.Fatal(err)
	}
	old, final := testFP(1), testFP(2)
	if err := c.Add("doc", old); err != nil {
		t.Fatal(err)
	}
	if err := c.Add("doc", final); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("Len %d after re-ingest, want 1", c.Len())
	}
	// Crash-window simulation: snapshot to a buffer and install it as
	// corpus.snap WITHOUT truncating the WAL — exactly the state a crash
	// between the rename and the truncate leaves behind.
	var snap bytes.Buffer
	if err := c.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, SnapshotFile), snap.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := NewCorpus(ccd.DefaultConfig, 2)
	s2, err := OpenStore(dir, c2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	info := s2.Info()
	if info.ReplaySuperseded != 1 || info.ReplaySkippedDuplicates != 1 || info.ReplayedRecords != 0 {
		t.Fatalf("replay accounting %+v, want 1 superseded, 1 dupe, 0 applied", info)
	}
	if c2.Len() != 1 {
		t.Fatalf("rebooted Len %d, want 1", c2.Len())
	}
	if got := c2.entryMultiset()["doc\x00"+string(final)]; got != 1 {
		t.Fatalf("final fingerprint indexed %d times, want 1 (stale record won replay)", got)
	}
	_ = store
}

// TestStoreRetainIsDurable: Retain drops documents from the snapshot and
// from the WAL alike, a crash right after it restores none of them, and a
// Retain that drops nothing takes no snapshot.
func TestStoreRetainIsDurable(t *testing.T) {
	dir := t.TempDir()
	c1 := NewCorpus(ccd.DefaultConfig, 4)
	s1, err := OpenStore(dir, c1)
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, c1, 10)
	if _, err := s1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 20; i++ { // these live only in the WAL
		if err := c1.Add(fmt.Sprintf("doc-%d", i), testFP(i)); err != nil {
			t.Fatal(err)
		}
	}
	even := map[string]struct{}{}
	for i := 0; i < 20; i += 2 {
		even[fmt.Sprintf("doc-%d", i)] = struct{}{}
	}
	if n, err := s1.Retain(even); n != 10 || err != nil {
		t.Fatalf("Retain = %d, %v; want 10 dropped", n, err)
	}
	if n, err := s1.Retain(even); n != 0 || err != nil || s1.Info().Snapshots != 2 {
		t.Fatalf("second Retain = %d, %v with %d snapshots; want 0 dropped and no snapshot", n, err, s1.Info().Snapshots)
	}
	// Crash: no Close. Reopen from disk alone.
	c2, _ := reopen(t, dir, 4)
	for _, c := range []*Corpus{c1, c2} {
		if c.Len() != 10 {
			t.Fatalf("corpus holds %d entries, want 10", c.Len())
		}
		for i := range c.Shards() {
			entries, _ := c.ShardEntries(i)
			for _, e := range entries {
				if _, ok := even[e.ID]; !ok {
					t.Fatalf("%s survived Retain", e.ID)
				}
			}
		}
	}
}

// TestStoreWALReplayAfterCrash is the acceptance-criteria test: every
// acknowledged Add must survive a kill -9 (simulated by abandoning the store
// without Close or Snapshot — exactly the on-disk state a crash leaves).
func TestStoreWALReplayAfterCrash(t *testing.T) {
	dir := t.TempDir()
	c1 := NewCorpus(ccd.DefaultConfig, 4)
	if _, err := OpenStore(dir, c1); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, c1, 37)
	// Crash: no Close, no Snapshot. Reopen from disk alone.

	c2 := NewCorpus(ccd.DefaultConfig, 4)
	s2, err := OpenStore(dir, c2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if info := s2.Info(); info.ReplayedRecords != 37 || info.RestoredEntries != 0 {
		t.Fatalf("boot info %+v, want 37 replayed / 0 restored", info)
	}
	verifyEntries(t, c2, 37)
}

// TestStoreSnapshotThenCrash: adds before a snapshot come back from the
// snapshot, adds after it from the WAL; nothing acknowledged is lost.
func TestStoreSnapshotThenCrash(t *testing.T) {
	dir := t.TempDir()
	c1 := NewCorpus(ccd.DefaultConfig, 4)
	s1, err := OpenStore(dir, c1)
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, c1, 20)
	info, err := s1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if info.Entries != 20 || info.Bytes == 0 {
		t.Fatalf("snapshot info %+v", info)
	}
	if n, _ := s1.wal.size(); n != 0 {
		t.Fatalf("WAL not truncated after snapshot: %d bytes", n)
	}
	for i := 20; i < 30; i++ {
		if err := c1.Add(fmt.Sprintf("doc-%d", i), testFP(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash.

	c2 := NewCorpus(ccd.DefaultConfig, 4)
	s2, err := OpenStore(dir, c2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if info := s2.Info(); info.RestoredEntries != 20 || info.ReplayedRecords != 10 {
		t.Fatalf("boot info %+v, want 20 restored / 10 replayed", info)
	}
	verifyEntries(t, c2, 30)
}

// TestStoreTornWALTail: a crash mid-append leaves a truncated final record;
// replay must keep every complete record, cut the tail, and keep appending.
func TestStoreTornWALTail(t *testing.T) {
	dir := t.TempDir()
	c1 := NewCorpus(ccd.DefaultConfig, 2)
	if _, err := OpenStore(dir, c1); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, c1, 5)

	walPath := filepath.Join(dir, WALFile)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record: drop its final 3 bytes.
	if err := os.WriteFile(walPath, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := NewCorpus(ccd.DefaultConfig, 2)
	s2, err := OpenStore(dir, c2)
	if err != nil {
		t.Fatal(err)
	}
	info := s2.Info()
	if info.ReplayedRecords != 4 || !info.TornTailCut {
		t.Fatalf("boot info %+v, want 4 replayed with torn tail cut", info)
	}
	verifyEntries(t, c2, 4)
	// New appends after the cut must land on a clean boundary.
	if err := c2.Add("post-tear", testFP(99)); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	c3 := NewCorpus(ccd.DefaultConfig, 2)
	s3, err := OpenStore(dir, c3)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := s3.Info().ReplayedRecords; got != 5 {
		t.Fatalf("replayed %d records after re-append, want 5", got)
	}
	if c3.Len() != 5 {
		t.Fatalf("corpus has %d entries, want 5", c3.Len())
	}
}

// TestStoreCorruptWALRecord: a bit flip inside an earlier record stops
// replay at the corruption point rather than indexing garbage.
func TestStoreCorruptWALRecord(t *testing.T) {
	dir := t.TempDir()
	c1 := NewCorpus(ccd.DefaultConfig, 2)
	if _, err := OpenStore(dir, c1); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, c1, 6)

	walPath := filepath.Join(dir, WALFile)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := NewCorpus(ccd.DefaultConfig, 2)
	s2, err := OpenStore(dir, c2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	info := s2.Info()
	if !info.TornTailCut || info.ReplayedRecords >= 6 {
		t.Fatalf("boot info %+v, want torn cut with < 6 records", info)
	}
	if c2.Len() != info.ReplayedRecords {
		t.Fatalf("corpus %d entries != %d replayed", c2.Len(), info.ReplayedRecords)
	}
}

// TestStoreConcurrentAddsAndSnapshot hammers Add from many goroutines while
// snapshots fire; afterwards a fresh boot must see every acknowledged add
// exactly once.
func TestStoreConcurrentAddsAndSnapshot(t *testing.T) {
	dir := t.TempDir()
	c1 := NewCorpus(ccd.DefaultConfig, 8)
	s1, err := OpenStore(dir, c1)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 30
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				if err := c1.Add(id, testFP(w*1000+i)); err != nil {
					t.Errorf("add %s: %v", id, err)
				}
			}
		}(w)
	}
	snapErrs := make(chan error, 4)
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s1.Snapshot()
			snapErrs <- err
		}()
	}
	wg.Wait()
	close(snapErrs)
	for err := range snapErrs {
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
	}
	// Crash without a final snapshot.

	c2 := NewCorpus(ccd.DefaultConfig, 8)
	s2, err := OpenStore(dir, c2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if c2.Len() != writers*perWriter {
		t.Fatalf("recovered %d entries, want %d", c2.Len(), writers*perWriter)
	}
}

// TestStoreCrashBetweenSnapshotAndWALTruncate: a crash can land after the
// snapshot rename but before the WAL truncate, leaving a snapshot and a WAL
// that both hold the same records. Recovery must not index them twice.
func TestStoreCrashBetweenSnapshotAndWALTruncate(t *testing.T) {
	dir := t.TempDir()
	c1 := NewCorpus(ccd.DefaultConfig, 4)
	s1, err := OpenStore(dir, c1)
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, c1, 15)
	walPath := filepath.Join(dir, WALFile)
	preSnapshotWAL, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash window: the snapshot landed but the WAL truncate
	// did not — restore the pre-snapshot WAL content.
	if err := os.WriteFile(walPath, preSnapshotWAL, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := NewCorpus(ccd.DefaultConfig, 4)
	s2, err := OpenStore(dir, c2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	info := s2.Info()
	if info.RestoredEntries != 15 || info.ReplayedRecords != 0 || info.ReplaySkippedDuplicates != 15 {
		t.Fatalf("boot info %+v, want 15 restored / 0 replayed / 15 skipped", info)
	}
	verifyEntries(t, c2, 15)
	// No entry may appear twice.
	for i := 0; i < 15; i++ {
		hits := 0
		for _, m := range matchAll(c2, testFP(i)) {
			if m.ID == fmt.Sprintf("doc-%d", i) {
				hits++
			}
		}
		if hits != 1 {
			t.Fatalf("doc-%d indexed %d times after crash-window recovery", i, hits)
		}
	}
}

// TestStoreRestoreAcrossShardCounts: a snapshot taken with one shard count
// restores into a corpus with another (entries re-distribute by id hash).
func TestStoreRestoreAcrossShardCounts(t *testing.T) {
	src := NewCorpus(ccd.DefaultConfig, 16)
	mustAdd(t, src, 50)
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	dst := NewCorpus(ccd.ConservativeConfig, 3) // different cfg AND shards
	if err := dst.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if dst.Config() != src.Config() {
		t.Fatalf("restored config %v, want %v (snapshot config wins)", dst.Config(), src.Config())
	}
	verifyEntries(t, dst, 50)
}

// TestWriteFileAtomicFailureLeavesTarget: a write callback that fails part
// way leaves the target unchanged and no temp file behind; a successful one
// replaces the target whole, mode 0644.
func TestWriteFileAtomicFailureLeavesTarget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, SnapshotFile)
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	onlyTarget := func(want string) {
		t.Helper()
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("target holds %q (%v), want %q", got, err, want)
		}
		ents, err := os.ReadDir(dir)
		if err != nil || len(ents) != 1 {
			t.Fatalf("directory holds %v (%v), want the target alone", ents, err)
		}
	}
	boom := errors.New("boom")
	_, err := WriteFileAtomic(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "half a new file"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the callback's", err)
	}
	onlyTarget("old")

	n, err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new")
		return err
	})
	if err != nil || n != 3 {
		t.Fatalf("replace: %d bytes, %v", n, err)
	}
	onlyTarget("new")
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o644 {
		t.Fatalf("replaced file mode %v, want 0644", st.Mode().Perm())
	}
}

func TestReadSnapshotRejectsNonEmptyAndGarbage(t *testing.T) {
	c := NewCorpus(ccd.DefaultConfig, 2)
	mustAdd(t, c, 1)
	if err := c.ReadSnapshot(bytes.NewReader(nil)); err == nil {
		t.Error("restore into non-empty corpus accepted")
	}
	empty := NewCorpus(ccd.DefaultConfig, 2)
	if err := empty.ReadSnapshot(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage snapshot accepted")
	}
	var buf bytes.Buffer
	if err := NewCorpus(ccd.DefaultConfig, 2).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{1, len(full) / 2, len(full) - 1} {
		if err := NewCorpus(ccd.DefaultConfig, 2).ReadSnapshot(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncated envelope at %d accepted", cut)
		}
	}
}

// TestEngineWithStore: the engine's ingest path journals through an attached
// store and a rebooted engine serves the same corpus.
func TestEngineWithStore(t *testing.T) {
	dir := t.TempDir()
	e1 := New(Options{Workers: 4})
	if _, err := OpenStore(dir, e1.Corpus()); err != nil {
		t.Fatal(err)
	}
	if err := addSrc(e1, "reentrant", reentrantSrc); err != nil {
		t.Fatal(err)
	}
	if err := addFP(e1, "pre", testFP(1)); err != nil {
		t.Fatal(err)
	}
	// Crash.

	e2 := New(Options{Workers: 4})
	if _, err := OpenStore(dir, e2.Corpus()); err != nil {
		t.Fatal(err)
	}
	if e2.Corpus().Len() != 2 {
		t.Fatalf("recovered %d entries, want 2", e2.Corpus().Len())
	}
	ms, _, err := e2.MatchSource(context.Background(), "", reentrantSrc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 || ms[0].ID != "reentrant" || ms[0].Score != 100 {
		t.Fatalf("recovered corpus match: %v", ms)
	}
}

func TestOpenStoreRejectsNonEmptyCorpusAndDoubleAttach(t *testing.T) {
	dir := t.TempDir()
	c := NewCorpus(ccd.DefaultConfig, 2)
	mustAdd(t, c, 1)
	if _, err := OpenStore(dir, c); err == nil {
		t.Error("non-empty corpus accepted")
	}
	c2 := NewCorpus(ccd.DefaultConfig, 2)
	s, err := OpenStore(t.TempDir(), c2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := OpenStore(t.TempDir(), c2); err == nil {
		t.Error("double attach accepted")
	}
}

// TestWALPageEpochAndResume pins the stream-position contract: positions are
// only meaningful within one WAL generation. The epoch survives a store
// reopen (replicas resume cleanly across primary restarts), changes on every
// snapshot truncation, and a stale epoch answers ErrWALTruncated even when
// the position would fit inside the new log.
func TestWALPageEpochAndResume(t *testing.T) {
	dir := t.TempDir()
	c := NewCorpus(ccd.DefaultConfig, 2)
	store, err := OpenStore(dir, c)
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, c, 6)

	page, err := store.WALPage(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	epoch := page.Epoch
	if epoch <= 0 {
		t.Fatalf("WAL epoch %d, want > 0", epoch)
	}
	if len(page.Entries) != 6 || page.Next != 6 || page.More {
		t.Fatalf("full page: %d entries next %d more %v", len(page.Entries), page.Next, page.More)
	}
	for i, e := range page.Entries {
		if e.Seq != i {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
	}

	// max cuts the page and says so.
	page, err = store.WALPage(0, epoch, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != 2 || page.Next != 2 || !page.More {
		t.Fatalf("cut page: %d entries next %d more %v", len(page.Entries), page.Next, page.More)
	}

	// Tail resume (the cached-offset fast path): new appends surface at the
	// old Next with consecutive positions.
	if err := c.Add("tail-1", testFP(101)); err != nil {
		t.Fatal(err)
	}
	page, err = store.WALPage(6, epoch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != 1 || page.Entries[0].Seq != 6 || page.Entries[0].ID != "tail-1" {
		t.Fatalf("tail page: %+v", page.Entries)
	}

	// The epoch survives a reopen, so a replica's position stays valid
	// across a primary restart.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := NewCorpus(ccd.DefaultConfig, 2)
	store2, err := OpenStore(dir, c2)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if got := store2.walEpoch.Load(); got != epoch {
		t.Fatalf("epoch changed across reopen: %d -> %d", epoch, got)
	}
	page, err = store2.WALPage(7, epoch, 0)
	if err != nil || len(page.Entries) != 0 || page.Next != 7 {
		t.Fatalf("caught-up resume after reopen: %+v err %v", page, err)
	}

	// Snapshot truncates the log: the generation changes, and the old epoch
	// is refused at EVERY position — including one the new log covers.
	if _, err := store2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := c2.Add(fmt.Sprintf("gen2-%d", i), testFP(200+i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := store2.WALPage(3, epoch, 0); !errors.Is(err, ErrWALTruncated) {
		t.Fatalf("stale epoch at positionally-valid offset: err %v, want ErrWALTruncated", err)
	}
	page, err = store2.WALPage(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if page.Epoch == epoch || page.Epoch <= 0 {
		t.Fatalf("epoch after snapshot %d, want a new generation (old %d)", page.Epoch, epoch)
	}
	if len(page.Entries) != 9 || page.Entries[0].ID != "gen2-0" {
		t.Fatalf("new generation page: %d entries, first %+v", len(page.Entries), page.Entries[:min(1, len(page.Entries))])
	}

	// Epoch-less positional overrun still refuses.
	if _, err := store2.WALPage(10, 0, 0); !errors.Is(err, ErrWALTruncated) {
		t.Fatalf("past-end without epoch: err %v, want ErrWALTruncated", err)
	}
}
