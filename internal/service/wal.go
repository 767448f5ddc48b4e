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
//
// The log has one writer at a time. At most one group commit is in flight;
// appenders that arrive meanwhile join the one open group, and when the
// commit lands one member of that group commits it for all of them: one
// write, one fsync, one verdict that every member gets. Nothing reaches the
// file outside a commit, so each group is either durable or cut back to the
// durable prefix before the next group is written. A record whose append
// returned an error must NEVER replay on boot, or the caller's accounting
// (the bulk ingest response, pendingAdds) and the replay count disagree.
type wal struct {
	// mu guards the fields up to the instrumentation. A commit's write and
	// fsync run outside it, flagged by committing.
	mu   sync.Mutex
	done sync.Cond // broadcast under mu whenever a commit lands
	f    walFile

	// durable is the length of the fsynced prefix — and of the whole file
	// whenever no commit is in flight and no cut is pending.
	durable int64
	// cutPending marks a failed commit whose truncate back to durable was
	// refused: its bytes may remain, and because the log is opened O_APPEND
	// nothing may land behind them (a later fsync would make refused records
	// durable and replayable). The next commit or readiness probe retries
	// the cut; the log reports not ready while it is set.
	cutPending bool
	committing bool   // a commit's write and fsync are in flight (mu released)
	open       *group // the group forming behind the commit in flight
	seq        int64  // records appended since the last reset, refused ones included

	// Durability instrumentation: fsync latency, records made durable per
	// fsync (the group-commit coalescing factor), and the failure-path
	// counters (failed fsyncs, and the records they condemned).
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

// walFile is the log's one file seam: *os.File in production, a
// fault-injecting wrapper in tests.
type walFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
	Close() error
}

// group is one group commit: its members' records back to back, and the
// verdict every member gets once it lands.
type group struct {
	buf    []byte
	n      int64 // records in buf
	landed bool
	err    error
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
	w := &wal{f: f, durable: st.Size()}
	w.done.L = &w.mu
	return w, nil
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

// appendBatch journals the entries, in order, and returns once all of them
// are on stable storage: one buffer, one place in one group commit. A batch
// is written, fsynced and cut as a unit — on a write or fsync failure its
// group is cut back to the durable prefix, and every member of the group
// gets the error, so an errored batch leaves none of its records behind for
// replay.
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
	n := int64(len(entries))
	sp.AnnotateInt("records", n)
	sp.AnnotateInt("bytes", int64(len(buf)))
	_, wait := trace.Start(ctx, "wal.fsync_wait")
	defer wait.End()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seq += n
	wait.AnnotateInt("seq", w.seq)
	wait.AnnotateInt("records", n)
	if w.open == nil {
		w.open = &group{buf: buf, n: n}
	} else {
		w.open.buf = append(w.open.buf, buf...)
		w.open.n += n
	}
	g := w.open
	// Wait out the commit in flight; then either a fellow member has
	// committed our group, or we commit it. A committer commits its own
	// group only, so no appender waits longer than the commit in flight plus
	// its own.
	for w.committing && !g.landed {
		w.done.Wait()
	}
	if !g.landed {
		w.commit(g)
	}
	return g.err
}

// commit writes and fsyncs the open group g for all its members. The caller
// holds mu with no commit in flight; mu is released around the write and the
// fsync, while later appenders form the next group.
func (w *wal) commit(g *group) {
	w.open = nil
	defer func() {
		g.landed = true
		w.done.Broadcast()
	}()
	if err := w.cutLocked(); err != nil {
		g.err = fmt.Errorf("wal: pending cut of a failed commit: %w", err)
		return
	}
	w.committing = true
	w.mu.Unlock()
	_, werr := w.f.Write(g.buf)
	var serr error
	if werr == nil {
		start := time.Now()
		serr = w.f.Sync()
		w.observeFsync(time.Since(start))
	}
	w.mu.Lock()
	w.committing = false
	switch {
	case werr != nil:
		// A short write can leave garbage, or whole leading records of the
		// group that no CRC check would cut at boot.
		g.err = werr
	case serr != nil:
		// The group's records are in the file but not durable: condemn them.
		w.rollbacks.Add(1)
		w.condemned.Add(g.n)
		g.err = serr
	default:
		w.durable += int64(len(g.buf))
		w.batchHist.Observe(g.n)
		return
	}
	w.cutPending = true
	_ = w.cutLocked() // refused: the next commit or readiness probe retries
}

// cutLocked truncates the log back to its durable prefix if a failed commit
// may have left bytes past it. Callers hold mu with no commit in flight
// (cutPending is only ever set once a commit has landed, and a commit only
// starts once it is clear), so the truncate never races a write.
func (w *wal) cutLocked() error {
	if !w.cutPending {
		return nil
	}
	if err := w.f.Truncate(w.durable); err != nil {
		return err
	}
	w.cutPending = false
	return nil
}

// ready retries a pending cut and reports whether the log takes appends. A
// load balancer polling readiness thereby brings the node back as soon as
// the disk lets the cut land, without waiting for an append or a snapshot.
func (w *wal) ready() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cutLocked() == nil
}

// reset truncates the log after a successful snapshot: everything it held is
// now covered by the snapshot file. It runs under the store's exclusive
// lock, so no appender — and no commit — is in flight.
func (w *wal) reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.durable, w.seq, w.cutPending = 0, 0, false
	return nil
}

// durableSize returns the length of the log's fsynced prefix. Every record
// ending at or before it is on stable storage and can never be cut by a
// failed commit — the only bytes safe to replicate.
func (w *wal) durableSize() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durable
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
