package service

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ccd"
	"repro/internal/trace"
)

// ErrPersist marks durability failures: an Add that could not be journaled
// was not acknowledged and is not visible in the corpus. Callers distinguish
// it from per-entry parse issues (which still index a partial fingerprint).
var ErrPersist = errors.New("corpus persistence failed")

// WAL record layout:
//
//	uvarint payload length
//	uint32  CRC-32 (IEEE, little-endian) of the payload
//	payload: uvarint id length, id, uvarint fingerprint length, fingerprint
//
// A batch of adds is n such records back to back — the log has no batch
// framing, so stream positions count records whatever the batching. Records
// are synced to disk before Add is acknowledged, so a crash loses at most
// un-acknowledged writes. Replay stops at the first torn or corrupt record —
// a crash mid-append leaves a truncated tail, never a reordered one — and
// reports the byte offset of the last intact record so the tail can be cut
// before new appends.
type wal struct {
	mu   sync.Mutex // guards writes to f, writeSeq and writtenBytes
	f    *os.File
	path string

	// Group commit: appenders write under mu, then sync under syncMu. An
	// appender arriving while another's fsync is in flight waits on syncMu
	// and usually finds its record already covered (syncSeq ≥ its seq), so
	// N concurrent appends coalesce into ~2 fsyncs instead of N.
	syncMu   sync.Mutex
	writeSeq int64 // monotonic append counter; never reused, even across rollbacks (mu)
	syncSeq  int64 // highest seq settled: durable or, if in cuts, condemned (written under syncMu+mu, read under either)

	// Byte offsets mirroring the sequence counters: writtenBytes is the file
	// length after the last append (mu), syncedBytes the length of the
	// durable prefix (written under syncMu+mu, read under either). A failed
	// fsync rolls the file back to syncedBytes — a record whose append
	// returned an error must NEVER replay on boot, or the caller's
	// accounting (the bulk ingest response, pendingAdds) and the replay
	// count disagree.
	writtenBytes int64
	syncedBytes  int64

	// cuts records the seq ranges condemned by failed-fsync rollbacks.
	// Because sequence numbers are never reused, membership in a cut range
	// is a permanent verdict: an appender waiting on syncMu distinguishes
	// "my record is durable" (syncSeq ≥ seq AND seq not cut) from "my record
	// was cut and syncSeq moved past it on the strength of someone else's
	// bytes". pending holds the last seq of every appender's batch between
	// write and acknowledgement; a range retires as soon as no pending seq
	// can still fall inside it (every future append gets a larger seq than
	// its hi), so cuts stays empty except in the wake of an fsync failure.
	// Both guarded by mu.
	cuts    []seqRange
	pending map[int64]struct{}

	// rollbackNeeded marks a rollback whose truncate failed: the condemned
	// records' bytes are still in the file, and because the log is opened
	// O_APPEND, new records must not land after them (a later fsync would
	// make already-refused records durable and replayable). writeRecord
	// retries the truncate before appending anything. Guarded by mu.
	rollbackNeeded bool

	// failed marks a write error whose leftovers beyond writtenBytes (a short
	// write: garbage, or whole leading records of a refused batch) could not
	// be cut on the spot. While set, the file needs a truncate to
	// writtenBytes before the next append. The write-failure path only ever
	// cuts to writtenBytes, never to the durable prefix: that, under mu
	// alone, could cut records of a group whose fsync is in flight under
	// syncMu and let them be acknowledged anyway.
	failed bool // guarded by mu

	// syncHook / writeHook / truncHook, when set, inject faults into the
	// fsync, the record write and the rollback/garbage truncates (tests of
	// the group-commit failure paths). writeHook runs after its garbage
	// reaches the file, simulating a short write.
	syncHook  func() error
	writeHook func() error
	truncHook func() error

	// Durability instrumentation: fsync latency, records made durable per
	// fsync (the group-commit coalescing factor), and the failure-path
	// counters (rollbacks performed, records condemned by them).
	fsyncHist trace.Hist // µs per fsync actually performed
	batchHist trace.Hist // records covered per successful fsync
	rollbacks atomic.Int64
	condemned atomic.Int64

	// Recent-fsync window for the ingest backpressure signal. The
	// cumulative fsyncHist can only ever grow, so its p99 never recovers
	// from a past stall; backpressure must engage AND release, which needs
	// a windowed view. Slots hold µs+1 (0 = empty), recentIdx counts
	// observations ever made.
	recentFsync [recentFsyncWindow]atomic.Int64
	recentIdx   atomic.Int64
}

// recentFsyncWindow sizes the rolling fsync-latency window behind the
// backpressure signal: large enough to ride out one outlier, small enough
// that recovery is visible within ~a second of healthy group commits.
const recentFsyncWindow = 64

// observeFsync folds one performed fsync into both the cumulative histogram
// and the rolling window.
func (w *wal) observeFsync(d time.Duration) {
	w.fsyncHist.ObserveDuration(d)
	i := w.recentIdx.Add(1) - 1
	w.recentFsync[i%recentFsyncWindow].Store(d.Microseconds() + 1)
}

// recentFsyncP99 returns the p99 fsync latency over the rolling window
// (0 when no fsync has happened yet). This is the backpressure signal: it
// rises within one window of a slow disk and falls again once group
// commits recover, unlike the cumulative histogram's monotone quantiles.
func (w *wal) recentFsyncP99() time.Duration {
	n := w.recentIdx.Load()
	if n == 0 {
		return 0
	}
	if n > recentFsyncWindow {
		n = recentFsyncWindow
	}
	vals := make([]int64, 0, n)
	for i := int64(0); i < n; i++ {
		if v := w.recentFsync[i].Load(); v > 0 {
			vals = append(vals, v-1)
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
	rank := int(math.Ceil(0.99 * float64(len(vals))))
	if rank < 1 {
		rank = 1
	}
	return time.Duration(vals[rank-1]) * time.Microsecond
}

// openWAL opens (creating if needed) the log for appending.
func openWAL(path string) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &wal{f: f, path: path, writtenBytes: st.Size(), syncedBytes: st.Size()}, nil
}

// appendWALRecord appends one entry in the on-disk record layout to dst.
// Pure, so the replay fuzzer can synthesize valid logs without touching a
// file.
func appendWALRecord(dst []byte, id string, fp ccd.Fingerprint) []byte {
	var lens [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lens[:], uint64(len(id)))
	m := binary.PutUvarint(lens[n:], uint64(len(fp)))
	dst = binary.AppendUvarint(dst, uint64(n+len(id)+m+len(fp)))
	crcAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = append(dst, lens[:n]...)
	dst = append(dst, id...)
	dst = append(dst, lens[n:n+m]...)
	dst = append(dst, fp...)
	binary.LittleEndian.PutUint32(dst[crcAt:], crc32.ChecksumIEEE(dst[crcAt+4:]))
	return dst
}

// seqRange is a half-open-below interval (lo, hi] of sequence numbers
// removed from the log by a failed-group-commit rollback.
type seqRange struct{ lo, hi int64 }

// appendBatch journals the entries, in order, and returns once all of them
// are on stable storage: one buffer, one write, one place in the group
// commit. On a write or fsync failure the log is rolled back to its durable
// prefix, so an errored batch leaves none of its records behind for replay —
// and concurrent appenders whose records were cut by the rollback get an
// error of their own instead of a false acknowledgement.
func (w *wal) appendBatch(ctx context.Context, entries []ccd.Entry) error {
	ctx, sp := trace.Start(ctx, "wal.append")
	defer sp.End()
	size := 0
	for _, e := range entries {
		size += len(e.ID) + len(e.FP) + 3*binary.MaxVarintLen64 + 4 // upper bound
	}
	buf := make([]byte, 0, size)
	for _, e := range entries {
		buf = appendWALRecord(buf, e.ID, e.FP)
	}
	sp.AnnotateInt("records", int64(len(entries)))
	sp.AnnotateInt("bytes", int64(len(buf)))
	seq, err := w.writeRecords(buf, len(entries))
	if err != nil {
		return err
	}
	defer w.release(seq)
	_, wait := trace.Start(ctx, "wal.fsync_wait")
	wait.AnnotateInt("seq", seq)
	wait.AnnotateInt("records", int64(len(entries)))
	err = w.awaitDurable(seq)
	wait.End()
	return err
}

// writeRecords appends n encoded records in one write and registers the
// caller as a pending appender, returning the sequence number of the last
// record (the batch holds seqs (seq-n, seq]). A batch is written, fsynced and
// cut as a unit — every syncSeq and every cut range ends on a batch boundary
// — so its last seq stands for all of it. The caller must follow up with
// awaitDurable(seq) and then release(seq), in that order.
func (w *wal) writeRecords(recs []byte, n int) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.rollbackNeeded {
		// A failed group commit could not truncate its condemned records
		// away. Their seqs are already in cuts, so no appender can be
		// acknowledged for them — but their bytes must leave the file before
		// anything new lands behind them. Safe under mu alone: while
		// rollbackNeeded is set no fsync can be in flight (every path to
		// sync() first clears this flag here or errors out).
		if err := w.truncate(w.syncedBytes); err != nil {
			return 0, fmt.Errorf("wal: pending rollback of a failed group commit: %w", err)
		}
		w.writtenBytes = w.syncedBytes
		w.rollbackNeeded = false
		w.failed = false
	}
	if w.failed {
		// An earlier append died mid-write and may have left garbage beyond
		// the last complete batch. writtenBytes counts only fully-written
		// batches and is never below any concurrent syncer's covered
		// snapshot, so cutting to it cannot remove a record that could
		// still be acknowledged.
		if err := w.truncate(w.writtenBytes); err != nil {
			return 0, fmt.Errorf("wal: poisoned by earlier write failure: %w", err)
		}
		w.failed = false
	}
	if err := w.write(recs); err != nil {
		// A short write of a batch can leave whole records of it in the
		// file, which no CRC check would cut at boot: remove them now, or
		// poison the log so the next append does.
		if terr := w.truncate(w.writtenBytes); terr != nil {
			w.failed = true
		}
		return 0, err
	}
	w.writeSeq += int64(n)
	w.writtenBytes += int64(len(recs))
	if w.pending == nil {
		w.pending = make(map[int64]struct{})
	}
	w.pending[w.writeSeq] = struct{}{}
	return w.writeSeq, nil
}

// awaitDurable returns once the batch ending at seq is on stable storage,
// either because a concurrent appender's group fsync covered it or because
// this call performed the fsync itself. It returns an error when a rollback
// cut the batch from the log.
func (w *wal) awaitDurable(seq int64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	if w.cutLocked(seq) {
		// A rollback between our write and now removed this batch. Its seqs
		// were never reassigned, so syncSeq having moved past them can only
		// reflect other appenders' records — not ours.
		w.mu.Unlock()
		return fmt.Errorf("wal: record lost in failed group commit")
	}
	if w.syncSeq >= seq {
		w.mu.Unlock()
		return nil // a concurrent appender's fsync already covered us
	}
	if w.failed {
		// Same garbage cut as in writeRecord, from the sync side (safe here
		// too: we hold syncMu, so no fsync is in flight). If the truncate
		// fails, sync anyway: every record below writtenBytes is complete,
		// and boot replay's CRC check cuts the trailing garbage. Erroring
		// out here instead would falsely fail this appender while leaving
		// its intact record for a later group commit to make durable and
		// replayable — an errored append must never replay.
		if err := w.truncate(w.writtenBytes); err == nil {
			w.failed = false
		}
	}
	covered := w.writeSeq // every record written before the Sync below
	coveredBytes := w.writtenBytes
	batch := covered - w.syncSeq // records this fsync makes durable
	w.mu.Unlock()
	fsyncStart := time.Now()
	err := w.sync()
	w.observeFsync(time.Since(fsyncStart))
	if err != nil {
		// The group's records are not durable. Cut them so boot-time replay
		// agrees exactly with what was acknowledged; every appender in the
		// group finds its seq in the recorded cut range above (or returns
		// its own sync error here) and reports failure.
		w.mu.Lock()
		w.rollbackLocked()
		w.mu.Unlock()
		return err
	}
	w.batchHist.Observe(batch)
	w.mu.Lock()
	w.syncSeq = covered
	w.syncedBytes = coveredBytes
	w.mu.Unlock()
	return nil
}

// release retires the appender holding seq and drops every cut range no
// pending appender can query anymore — ranges are recorded with ascending
// hi, and a future append always gets a seq above every recorded hi, so the
// prefix below the smallest pending seq is dead. This keeps cuts from
// accumulating for the life of the process when pending never drains (a
// server under sustained concurrent ingest with intermittent fsync
// failures).
func (w *wal) release(seq int64) {
	w.mu.Lock()
	delete(w.pending, seq)
	if len(w.cuts) > 0 {
		if len(w.pending) == 0 {
			w.cuts = nil
		} else {
			min := int64(-1)
			for s := range w.pending {
				if min < 0 || s < min {
					min = s
				}
			}
			i := 0
			for i < len(w.cuts) && w.cuts[i].hi < min {
				i++
			}
			w.cuts = w.cuts[i:]
		}
	}
	w.mu.Unlock()
}

// cutLocked reports whether seq was removed by a failed-group-commit
// rollback. Callers hold w.mu.
func (w *wal) cutLocked(seq int64) bool {
	for _, r := range w.cuts {
		if seq > r.lo && seq <= r.hi {
			return true
		}
	}
	return false
}

// rollbackLocked truncates the log to its durable prefix after a failed
// fsync. Callers hold BOTH w.syncMu and w.mu: the sync lock guarantees no
// other fsync is in flight whose covered records the truncate could cut.
// The cut records' sequence numbers are retired, never reused — the range is
// recorded so pending appenders detect the loss, and writeSeq keeps counting
// upward, so a later group commit cannot push syncSeq over a cut seq and
// falsely acknowledge it.
func (w *wal) rollbackLocked() {
	// Condemn the seqs first: whether the truncate lands now or is retried
	// by the next writeRecord, these records will never be acknowledged, so
	// every waiting appender must report failure.
	w.rollbacks.Add(1)
	if w.writeSeq > w.syncSeq {
		w.cuts = append(w.cuts, seqRange{lo: w.syncSeq, hi: w.writeSeq})
		w.condemned.Add(w.writeSeq - w.syncSeq)
		// The condemned seqs are settled: the next group commit (or the next
		// rollback) starts counting its records after them.
		w.syncSeq = w.writeSeq
	}
	if err := w.truncate(w.syncedBytes); err != nil {
		w.rollbackNeeded = true // bytes still present; cut before the next append
		return
	}
	w.writtenBytes = w.syncedBytes
	w.failed = false
}

// sync flushes the file to stable storage (or the injected test hook).
func (w *wal) sync() error {
	if w.syncHook != nil {
		return w.syncHook()
	}
	return w.f.Sync()
}

// truncate cuts the file to n bytes (or fails through the injected test
// hook). reset's full truncate bypasses the hook on purpose: it is not part
// of the append/rollback failure surface under test.
func (w *wal) truncate(n int64) error {
	if w.truncHook != nil {
		if err := w.truncHook(); err != nil {
			return err
		}
	}
	return w.f.Truncate(n)
}

// write appends one batch of records (or fails through the injected test
// hook).
func (w *wal) write(rec []byte) error {
	if w.writeHook != nil {
		if err := w.writeHook(); err != nil {
			return err
		}
	}
	_, err := w.f.Write(rec)
	return err
}

// reset truncates the log after a successful snapshot: everything it held is
// now covered by the snapshot file. Lock order matches awaitDurable (syncMu
// before mu).
func (w *wal) reset() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.writeSeq, w.syncSeq = 0, 0
	w.writtenBytes, w.syncedBytes = 0, 0
	// Sequence numbers restart, so stale cut ranges must not survive to
	// falsely condemn them, and the truncate above completed any pending
	// rollback. Safe: reset only runs under the store's exclusive lock,
	// with no appender pending.
	w.cuts = nil
	w.rollbackNeeded = false
	return nil
}

// rollbackPending reports whether a failed-fsync rollback's truncate is
// still outstanding — condemned bytes sit in the file and the next append
// must cut them first. A node in this state is not ready for traffic.
func (w *wal) rollbackPending() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rollbackNeeded
}

// durableSize returns the length of the log's fsynced prefix. Every record
// ending at or before it is on stable storage and can never be cut by a
// failed-group-commit rollback — the only bytes safe to replicate.
func (w *wal) durableSize() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncedBytes
}

// size returns the current log length in bytes.
func (w *wal) size() (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	st, err := w.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// maxWALPayload bounds one record's payload (an id plus a fingerprint).
const maxWALPayload = 1 << 28 // 256 MiB

// replayWAL streams records from path into fn, tolerating a torn tail. It
// returns the number of intact records, the byte offset just past the last
// intact record (truncate the file here before appending), and whether a
// torn/corrupt tail was skipped. A missing file replays zero records.
func replayWAL(path string, fn func(id string, fp ccd.Fingerprint)) (records int, goodOffset int64, torn bool, err error) {
	goodOffset, torn, err = walScan(path, 0, func(id string, fp ccd.Fingerprint, end int64) bool {
		fn(id, fp)
		records++
		return true
	})
	return records, goodOffset, torn, err
}

// walScan streams intact records from path, starting at byte offset start
// (which must sit on a record boundary), invoking fn with each record and
// the byte offset just past it. fn returning false stops the scan without
// consuming that record. It returns the byte offset just past the last
// record consumed and whether a torn/corrupt tail ended the scan. A missing
// file scans zero records.
func walScan(path string, start int64, fn func(id string, fp ccd.Fingerprint, end int64) bool) (goodOffset int64, torn bool, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return start, false, nil
	}
	if err != nil {
		return start, false, err
	}
	defer f.Close()
	if start > 0 {
		if _, err := f.Seek(start, io.SeekStart); err != nil {
			return start, false, err
		}
	}

	br := bufio.NewReader(f)
	offset := start
	for {
		payloadLen, n, err := readUvarintCounted(br)
		if err == io.EOF {
			return offset, false, nil
		}
		if err != nil || payloadLen > maxWALPayload {
			return offset, true, nil
		}
		var crcBuf [4]byte
		if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
			return offset, true, nil
		}
		payload := make([]byte, payloadLen)
		if _, err := io.ReadFull(br, payload); err != nil {
			return offset, true, nil
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(crcBuf[:]) {
			return offset, true, nil
		}
		id, rest, ok := cutString(payload)
		if !ok {
			return offset, true, nil
		}
		fp, rest, ok := cutString(rest)
		if !ok || len(rest) != 0 {
			return offset, true, nil
		}
		end := offset + int64(n) + 4 + int64(payloadLen)
		if !fn(string(id), ccd.Fingerprint(fp), end) {
			return offset, false, nil
		}
		offset = end
	}
}

// readUvarintCounted decodes a uvarint and reports how many bytes it took.
func readUvarintCounted(br *bufio.Reader) (uint64, int, error) {
	var v uint64
	var n int
	for shift := uint(0); ; shift += 7 {
		b, err := br.ReadByte()
		if err != nil {
			if n > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, n, err
		}
		n++
		if shift >= 64 || n > binary.MaxVarintLen64 {
			return 0, n, fmt.Errorf("uvarint overflow")
		}
		v |= uint64(b&0x7f) << shift
		if b&0x80 == 0 {
			return v, n, nil
		}
	}
}

// cutString splits a uvarint-length-prefixed string off the front of buf.
func cutString(buf []byte) (s, rest []byte, ok bool) {
	n, used := binary.Uvarint(buf)
	if used <= 0 || n > uint64(len(buf)-used) {
		return nil, nil, false
	}
	return buf[used : used+int(n)], buf[used+int(n):], true
}
