package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/ccd"
	"repro/internal/trace"
)

// crashCopy copies a store directory as a crash would leave it — no Close, no
// Snapshot — so it can be reopened while the original store is still live.
func crashCopy(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, f.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// reopen boots a fresh corpus on a crash copy of dir.
func reopen(t *testing.T, dir string, shards int) (*Corpus, *Store) {
	t.Helper()
	c := NewCorpus(ccd.DefaultConfig, shards)
	s, err := OpenStore(crashCopy(t, dir), c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return c, s
}

// batchEntries returns n fingerprint-carrying entries b-<from>… .
func batchEntries(from, n int) []CorpusEntry {
	out := make([]CorpusEntry, n)
	for i := range out {
		out[i] = CorpusEntry{ID: fmt.Sprintf("b-%d", from+i), Fingerprint: testFP(from + i)}
	}
	return out
}

func wantAllPersistErrors(t *testing.T, errs []error, n int) {
	t.Helper()
	if len(errs) != n {
		t.Fatalf("%d errors for %d entries", len(errs), n)
	}
	for i, err := range errs {
		if !errors.Is(err, ErrPersist) {
			t.Fatalf("entry %d of a refused batch reports %v, want ErrPersist", i, err)
		}
	}
}

// TestBatchSameIDOrdering pins same-id ordering inside one batch: the last
// copy in input order is live, a crash-copy reopen (last WAL record wins)
// agrees with memory, and Supersedes counts what one-by-one ingest counts.
// Fingerprinting fans out across the pool, so the copies that need it finish
// in any order; the journal and the publish must not care. Run with
// -race -count=10.
func TestBatchSameIDOrdering(t *testing.T) {
	srcs := []string{benignSrc, reentrantSrc}
	var entries []CorpusEntry
	want := map[string]ccd.Fingerprint{} // id -> fingerprint of its last copy
	for i := 0; i < 48; i++ {
		id := fmt.Sprintf("d-%d", i%7) // 7 ids, re-ingested over and over
		en := CorpusEntry{ID: id, Fingerprint: testFP(i)}
		if i%3 == 0 { // every third copy arrives as source
			src := srcs[i/3%2]
			en = CorpusEntry{ID: id, Source: src}
			fp, err := ccd.FingerprintSource(src)
			if err != nil {
				t.Fatal(err)
			}
			want[id] = fp
		} else {
			want[id] = en.Fingerprint
		}
		entries = append(entries, en)
	}

	dir := t.TempDir()
	e := New(Options{Workers: 4, Shards: 2})
	if _, err := OpenStore(dir, e.Corpus()); err != nil {
		t.Fatal(err)
	}
	for i, err := range e.CorpusAddBatch(entries[:20]) {
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
	}
	for i, err := range e.CorpusAddBatch(entries[20:]) {
		if err != nil {
			t.Fatalf("entry %d: %v", 20+i, err)
		}
	}

	seq := New(Options{Workers: 1, Shards: 2})
	for _, en := range entries {
		if err := seq.CorpusAddBatch([]CorpusEntry{en})[0]; err != nil {
			t.Fatal(err)
		}
	}

	rebooted, _ := reopen(t, dir, 2)
	for name, c := range map[string]*Corpus{"memory": e.Corpus(), "reopened": rebooted, "one-by-one": seq.Corpus()} {
		got := c.entryMultiset()
		if c.Len() != len(want) || len(got) != len(want) {
			t.Fatalf("%s: %d entries (%d distinct), want %d", name, c.Len(), len(got), len(want))
		}
		for id, fp := range want {
			if got[id+"\x00"+string(fp)] != 1 {
				t.Fatalf("%s: %s does not hold its last copy: %v", name, id, got)
			}
		}
	}
	if got, want := e.Corpus().Supersedes(), seq.Corpus().Supersedes(); got != want {
		t.Fatalf("batch ingest counted %d supersedes, one-by-one ingest %d", got, want)
	}
	if got := e.Metrics().CorpusAdds; got != int64(len(entries)) {
		t.Fatalf("corpus adds %d, want %d", got, len(entries))
	}
}

// TestBatchFsyncFailureCondemnsWholeBatch: a failed fsync refuses all n
// records of the batch — every entry reports ErrPersist, none is visible,
// none replays, and the condemned counter rises by n.
func TestBatchFsyncFailureCondemnsWholeBatch(t *testing.T) {
	dir := t.TempDir()
	e := New(Options{Workers: 2, Shards: 2})
	store, err := OpenStore(dir, e.Corpus())
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range e.CorpusAddBatch(batchEntries(0, 5)) {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Two refused batches in a row: each condemns exactly its own n seqs.
	const n = 9
	ff := injectFaults(store.wal)
	ff.sync = func() error { return errors.New("injected: disk full") }
	wantAllPersistErrors(t, e.CorpusAddBatch(batchEntries(100, n)), n)
	wantAllPersistErrors(t, e.CorpusAddBatch(batchEntries(100+n, n)), n)
	ff.sync = nil
	if d := store.Durability(); d.CondemnedRecords != 2*n || d.Rollbacks != 2 {
		t.Fatalf("condemned %d records in %d rollbacks, want %d in 2", d.CondemnedRecords, d.Rollbacks, 2*n)
	}
	if e.Corpus().Len() != 5 || store.pendingAdds.Load() != 5 {
		t.Fatalf("refused batch visible: Len %d, pending %d, want 5/5", e.Corpus().Len(), store.pendingAdds.Load())
	}
	if got := e.Metrics().CorpusAdds; got != 5 {
		t.Fatalf("corpus adds %d, want 5", got)
	}

	// The log carries on where its durable prefix ended, and the next fsync
	// counts its own records only.
	for _, err := range e.CorpusAddBatch(batchEntries(200, 3)) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := store.Durability().GroupCommitBatch; got.Count != 2 || got.Max != 5 {
		t.Fatalf("group-commit batch %+v, want 2 fsyncs of at most 5 records", got)
	}
	rebooted, s2 := reopen(t, dir, 2)
	if info := s2.Info(); info.ReplayedRecords != 8 || info.TornTailCut {
		t.Fatalf("boot info %+v, want 8 replayed and no torn tail", info)
	}
	got := rebooted.entryMultiset()
	for _, en := range batchEntries(100, 2*n) {
		if got[en.ID+"\x00"+string(en.Fingerprint)] != 0 {
			t.Fatalf("record %s of a refused batch replayed", en.ID)
		}
	}
}

// TestBatchFailedFsyncFailsGroupedSingleAdd: a single add and a batch that
// queue behind a commit in flight form one group, and that group gets one
// verdict: when its fsync fails, both error, all 4 records are condemned and
// neither replays.
func TestBatchFailedFsyncFailsGroupedSingleAdd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	w, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	ctx := context.Background()
	ff := injectFaults(w)
	inSync, finish := make(chan struct{}), make(chan struct{})
	fsyncs := 0 // one committer at a time calls Sync
	ff.sync = func() error {
		fsyncs++
		switch fsyncs {
		case 1: // hold the first commit in its fsync
			close(inSync)
			<-finish
		case 2: // the group that queued behind it
			return errors.New("injected: disk full")
		}
		return ff.walFile.Sync()
	}
	first := make(chan error, 1)
	go func() { first <- w.appendRecord(ctx, "a", testFP(1)) }()
	<-inSync
	queued := make(chan error, 2)
	go func() { queued <- w.appendRecord(ctx, "single", testFP(2)) }()
	go func() {
		queued <- w.appendBatch(ctx, []ccd.Entry{{ID: "b1", FP: testFP(3)}, {ID: "b2", FP: testFP(4)}, {ID: "b3", FP: testFP(5)}})
	}()
	for joined := false; !joined; time.Sleep(time.Millisecond) {
		w.mu.Lock()
		joined = w.open != nil && w.open.n == 4
		w.mu.Unlock()
	}
	close(finish)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-queued; err == nil {
			t.Fatal("member of a group whose fsync failed was acknowledged")
		}
	}
	if got := w.condemned.Load(); got != 4 {
		t.Fatalf("condemned %d records, want 4 (the batch's 3 and the single add)", got)
	}
	if err := w.appendBatch(ctx, []ccd.Entry{{ID: "c1", FP: testFP(6)}, {ID: "c2", FP: testFP(7)}}); err != nil {
		t.Fatal(err)
	}
	var ids []string
	if _, _, torn, err := replayWAL(path, func(id string, _ ccd.Fingerprint) { ids = append(ids, id) }); err != nil || torn {
		t.Fatalf("replay: torn=%v err=%v", torn, err)
	}
	if fmt.Sprint(ids) != "[a c1 c2]" {
		t.Fatalf("replayed %v, want [a c1 c2]", ids)
	}
	if got := w.batchHist.Snapshot(); got.Count != 2 || got.Sum != 3 {
		t.Fatalf("group-commit batch histogram %d fsyncs / %d records, want 2 / 3", got.Count, got.Sum)
	}
}

// TestBatchShortWriteLeavesNoRecord: a batch whose write dies part-way has
// whole records of it in the file, which no CRC check would cut. None may
// survive a reopen, whether the leftovers were cut on the spot or, that cut
// failing too, by the next append.
func TestBatchShortWriteLeavesNoRecord(t *testing.T) {
	for _, cutFails := range []bool{false, true} {
		t.Run(fmt.Sprintf("cut_fails=%v", cutFails), func(t *testing.T) {
			dir := t.TempDir()
			e := New(Options{Workers: 2, Shards: 2})
			c := e.Corpus()
			store, err := OpenStore(dir, c)
			if err != nil {
				t.Fatal(err)
			}
			mustAdd(t, c, 3)
			ff := injectFaults(store.wal)
			ff.write = func([]byte) error { // the device takes the first record, then dies
				_, _ = ff.walFile.Write(appendWALRecord(nil, "b-100", testFP(100)))
				return errors.New("injected: device error")
			}
			if cutFails {
				ff.trunc = func() error { return errors.New("injected: truncate refused") }
			}
			wantAllPersistErrors(t, e.CorpusAddBatch(batchEntries(100, 4)), 4)
			ff.write, ff.trunc = nil, nil
			if c.Len() != 3 {
				t.Fatalf("refused batch visible: Len %d, want 3", c.Len())
			}
			if cutFails {
				// Poisoned: the next append cuts the leftovers first.
				if err := c.Add("after", testFP(4)); err != nil {
					t.Fatal(err)
				}
			}
			rebooted, s2 := reopen(t, dir, 2)
			if s2.Info().TornTailCut {
				t.Fatal("short write left a torn tail for replay to cut")
			}
			if got := rebooted.entryMultiset()["b-100\x00"+string(testFP(100))]; got != 0 {
				t.Fatal("record of a batch whose write failed replayed on boot")
			}
			if want := c.Len(); rebooted.Len() != want {
				t.Fatalf("rebooted Len %d, want %d", rebooted.Len(), want)
			}
		})
	}
}

// TestWALPageHoldsBackUnsyncedBatch: while a batch's fsync is in flight its
// records are in the file but not durable; the WAL stream must serve none of
// them, and all of them — as n consecutive positions — once it lands.
func TestWALPageHoldsBackUnsyncedBatch(t *testing.T) {
	c := NewCorpus(ccd.DefaultConfig, 2)
	store, err := OpenStore(t.TempDir(), c)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	mustAdd(t, c, 2)

	inSync, finish := make(chan struct{}), make(chan struct{})
	ff := injectFaults(store.wal)
	ff.sync = func() error {
		close(inSync)
		<-finish
		return ff.walFile.Sync()
	}
	batch := make([]ccd.Entry, 5)
	for i := range batch {
		batch[i] = ccd.Entry{ID: fmt.Sprintf("b-%d", i), FP: testFP(10 + i)}
	}
	done := make(chan error, 1)
	go func() { done <- store.addBatch(context.Background(), batch) }()
	<-inSync
	page, err := store.WALPage(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != 2 || page.Next != 2 {
		t.Fatalf("page during the batch's fsync: %d entries, next %d; want the 2 durable records only", len(page.Entries), page.Next)
	}
	close(finish)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	ff.sync = nil
	page, err = store.WALPage(page.Next, page.Epoch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != 5 || page.Next != 7 {
		t.Fatalf("page after the fsync: %d entries, next %d; want 5 and 7", len(page.Entries), page.Next)
	}
	for i, e := range page.Entries {
		if e.Seq != 2+i || e.ID != batch[i].ID {
			t.Fatalf("entry %d: seq %d id %s, want seq %d id %s", i, e.Seq, e.ID, 2+i, batch[i].ID)
		}
	}
}

// TestBatchSpansOncePerBatch: a traced batch spends one corpus.add, one
// wal.append and one wal.fsync_wait span, annotated with what they covered,
// however many entries it holds — and the group-commit histogram still counts
// records per fsync.
func TestBatchSpansOncePerBatch(t *testing.T) {
	dir := t.TempDir()
	e := New(Options{Workers: 2, Shards: 2})
	store, err := OpenStore(dir, e.Corpus())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	const n = 40
	tr := trace.New("")
	root := tr.StartRoot("test")
	for _, err := range e.CorpusAddBatchCtx(trace.ContextWithSpan(context.Background(), root), batchEntries(0, n)) {
		if err != nil {
			t.Fatal(err)
		}
	}
	root.End()
	tr.Finish()

	walBytes, err := store.wal.size()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]string{
		"corpus.add":     {"docs": strconv.Itoa(n)},
		"wal.append":     {"records": strconv.Itoa(n), "bytes": strconv.FormatInt(walBytes, 10)},
		"wal.fsync_wait": {"records": strconv.Itoa(n), "seq": strconv.Itoa(n)},
	}
	seen := map[string]int{}
	for _, sp := range tr.View().Spans {
		seen[sp.Name]++
		attrs := map[string]string{}
		for _, a := range sp.Attrs {
			attrs[a.Key] = a.Val
		}
		for k, v := range want[sp.Name] {
			if attrs[k] != v {
				t.Errorf("span %s: %s=%q, want %q", sp.Name, k, attrs[k], v)
			}
		}
	}
	for name := range want {
		if seen[name] != 1 {
			t.Errorf("span %s emitted %d times for one batch, want once (%v)", name, seen[name], seen)
		}
	}
	d := store.Durability()
	if d.GroupCommitBatch.Count != 1 || d.GroupCommitBatch.Mean != n {
		t.Errorf("group-commit batch: %d fsyncs, mean %v records; want 1 fsync of %d", d.GroupCommitBatch.Count, d.GroupCommitBatch.Mean, n)
	}
	if e.Corpus().Publishes() > 2 {
		t.Errorf("%d publishes for one batch over 2 shards", e.Corpus().Publishes())
	}
}

// TestBatchBackpressureOncePerBatch: an acknowledged batch is paced by one
// delay, not one per document.
func TestBatchBackpressureOncePerBatch(t *testing.T) {
	e := New(Options{Workers: 2})
	store, err := OpenStore(t.TempDir(), e.Corpus())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := e.CorpusAddBatch([]CorpusEntry{{ID: "warm", Fingerprint: testFP(0)}})[0]; err != nil { // one fsync in the window
		t.Fatal(err)
	}
	store.SetBackpressure(BackpressureConfig{FsyncP99: 1, MaxDelay: 1}) // any fsync is over 1ns
	for _, err := range e.CorpusAddBatch(batchEntries(1, 32)) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := store.Durability().BackpressureDelays; got != 1 {
		t.Fatalf("%d pacing delays for one batch of 32, want 1", got)
	}
}

// TestBatchLayoutDeterministic: the segment layout follows from the sequence
// of batches alone, so two engines fed the same CorpusAddBatch calls write
// byte-identical snapshots, whatever their fingerprinting workers did.
func TestBatchLayoutDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fps := randomFingerprints(31, 600)
	var batches [][]CorpusEntry
	for at := 0; at < len(fps); {
		n := min(1+rng.Intn(40), len(fps)-at)
		batch := make([]CorpusEntry, n)
		for i := range batch {
			// Ids repeat now and then, within a batch and across batches.
			batch[i] = CorpusEntry{ID: fmt.Sprintf("doc-%d", (at+i)%500), Fingerprint: fps[at+i]}
			if (at+i)%11 == 0 {
				batch[i] = CorpusEntry{ID: batch[i].ID, Source: []string{benignSrc, reentrantSrc}[(at+i)%2]}
			}
		}
		batches = append(batches, batch)
		at += n
	}
	snapshot := func(workers int) []byte {
		e := New(Options{Workers: workers, Shards: 3})
		for _, b := range batches {
			for _, err := range e.CorpusAddBatch(b) {
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		var buf bytes.Buffer
		if err := e.Corpus().WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := snapshot(4)
	for _, workers := range []int{4, 1, 7} {
		if !bytes.Equal(first, snapshot(workers)) {
			t.Fatalf("snapshot of the same batch sequence differs (workers=%d)", workers)
		}
	}
}

// pairwiseCascade is the compaction publish used to run, kept as the
// reference: merge the last two segments while the newest has reached half
// its predecessor, one merge per step.
func pairwiseCascade(segs []*ccd.Corpus) []*ccd.Corpus {
	for len(segs) >= 2 && 2*segs[len(segs)-1].Len() >= segs[len(segs)-2].Len() {
		merged := ccd.Merge(segs[len(segs)-2], segs[len(segs)-1])
		segs = append(segs[:len(segs)-2], merged)
	}
	return segs
}

// TestSingleBuildCascadeEqualsPairwise is the compaction property: building
// the merged segment once, over however many segments the geometric cascade
// reaches, leaves after every publish the segment sizes — and in the end the
// segments, byte for byte — that the step-by-step cascade left; and a corpus
// fed batches answers MatchTopK as one fed the same documents one by one.
func TestSingleBuildCascadeEqualsPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	fps := randomFingerprints(17, 700)
	c := NewCorpus(ccd.DefaultConfig, 1)
	var ref []*ccd.Corpus
	for at := 0; at < len(fps); {
		n := min(1+rng.Intn(24), len(fps)-at)
		if rng.Intn(3) == 0 {
			n = 1 // single adds keep the cascade deep
		}
		seg := ccd.NewCorpus(c.Config())
		docs := make([]ccd.Entry, n)
		for i := range docs {
			docs[i] = ccd.Entry{ID: fmt.Sprintf("doc-%d", at+i), FP: fps[at+i]}
			seg.Add(docs[i].ID, docs[i].FP)
		}
		ref = pairwiseCascade(append(ref, seg))
		c.addLocalBatch(docs)
		at += n

		got := c.shards[0].gen.Load().segments
		if len(got) != len(ref) {
			t.Fatalf("%d segments after %d docs, pairwise cascade leaves %d", len(got), at, len(ref))
		}
		for i := range got {
			if got[i].Len() != ref[i].Len() {
				t.Fatalf("segment %d after %d docs holds %d docs, pairwise cascade %d",
					i, at, got[i].Len(), ref[i].Len())
			}
		}
	}
	for i, seg := range c.shards[0].gen.Load().segments {
		var a, b bytes.Buffer
		if err := seg.Save(&a); err != nil {
			t.Fatal(err)
		}
		if err := ref[i].Save(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("segment %d differs from the pairwise cascade's, byte for byte", i)
		}
	}
	if c.Compactions() >= c.Publishes() {
		t.Errorf("%d compactions over %d publishes: more than one build per publish", c.Compactions(), c.Publishes())
	}

	batched, oneByOne := NewCorpus(ccd.DefaultConfig, 3), NewCorpus(ccd.DefaultConfig, 3)
	for at := 0; at < len(fps); {
		n := min(1+rng.Intn(50), len(fps)-at)
		docs := make([]ccd.Entry, n)
		for i := range docs {
			docs[i] = ccd.Entry{ID: fmt.Sprintf("doc-%d", (at+i)%600), FP: fps[at+i]}
			if err := oneByOne.Add(docs[i].ID, docs[i].FP); err != nil {
				t.Fatal(err)
			}
		}
		if err := batched.AddBatch(context.Background(), docs); err != nil {
			t.Fatal(err)
		}
		at += n
	}
	if batched.Len() != oneByOne.Len() || batched.Supersedes() != oneByOne.Supersedes() {
		t.Fatalf("batched corpus: %d docs, %d supersedes; one-by-one: %d, %d",
			batched.Len(), batched.Supersedes(), oneByOne.Len(), oneByOne.Supersedes())
	}
	for qi, q := range append(randomFingerprints(23, 20), fps[0], fps[350], fps[699]) {
		for _, k := range []int{1, 5, 10, 0} {
			got, _ := batched.MatchTopK(q, k)
			want, _ := oneByOne.MatchTopK(q, k)
			if !reflect.DeepEqual(got, want) { // every id, tie plateaus included
				t.Fatalf("query %d, k=%d: batched corpus answers\n%v\none-by-one corpus\n%v", qi, k, got, want)
			}
		}
	}
}

// TestEmptyFingerprintAckedIsIndexed: an entry whose fingerprint is empty (a
// comment-only source) is acknowledged, so it is indexed — with and without a
// store alike, and again after a crash-copy reopen, before and after a
// snapshot. An acknowledged entry once vanished on the durable path only: the
// store strips the source, and the segment then refused a document with
// neither source nor fingerprint, while /v1/corpus had answered "added: 1".
func TestEmptyFingerprintAckedIsIndexed(t *testing.T) {
	const commentOnly = "// just a comment\n"
	if fp, err := ccd.FingerprintSource(commentOnly); fp != "" || err != nil {
		t.Fatalf("fixture: fingerprint %q, error %v; want an empty fingerprint and no error", fp, err)
	}
	batch := []CorpusEntry{
		{ID: "a", Source: commentOnly},
		{ID: "b", Fingerprint: testFP(1)},
	}
	heap := New(Options{Workers: 2, Shards: 2})
	durable := New(Options{Workers: 2, Shards: 2})
	dir := t.TempDir()
	store, err := OpenStore(dir, durable.Corpus())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for name, e := range map[string]*Engine{"heap": heap, "durable": durable} {
		for i, err := range e.CorpusAddBatch(batch) {
			if err != nil {
				t.Fatalf("%s: entry %d: %v", name, i, err)
			}
		}
	}

	want := []ccd.Entry{{ID: "a", FP: ""}, {ID: "b", FP: testFP(1)}}
	check := func(name string, c *Corpus) {
		t.Helper()
		if c.Len() != len(want) {
			t.Fatalf("%s: Len %d, want %d: an acknowledged entry is not indexed", name, c.Len(), len(want))
		}
		var got []ccd.Entry
		for i := 0; i < c.Shards(); i++ {
			es, _ := c.ShardEntries(i)
			got = append(got, es...)
		}
		slices.SortFunc(got, func(a, b ccd.Entry) int { return strings.Compare(a.ID, b.ID) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: entries %v, want %v", name, got, want)
		}
		// An empty fingerprint has no n-grams: it matches nothing and nothing
		// matches it.
		if ms := c.Match(""); len(ms) != 0 {
			t.Fatalf("%s: the empty fingerprint matched %v", name, ms)
		}
		if ms := c.Match(testFP(1)); len(ms) != 1 || ms[0].ID != "b" {
			t.Fatalf("%s: match of b: %v", name, ms)
		}
	}
	check("heap", heap.Corpus())
	check("durable", durable.Corpus())
	replayed, _ := reopen(t, dir, 2)
	check("reopened from the WAL", replayed)
	if _, err := store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	restored, _ := reopen(t, dir, 2)
	check("reopened from the snapshot", restored)
}

// TestSnapshotBytesPinned pins the on-disk bytes: WriteSnapshot over a fixed
// single-batch fixture hashes to the value recorded on a checkout of commit
// e105987 (the parent of the change that made the serving corpus a ccd corpus
// and dropped the version-1 loaders), for a 1-shard and a 4-shard layout —
// so a -corpus-dir written before that change still loads, and no later
// change moves SVCSNAP v2, CCDSNAP v2 or NGIX v2 bytes unnoticed. A batch's
// layout is a function of the batch alone, so the hash is stable.
func TestSnapshotBytesPinned(t *testing.T) {
	fps := randomFingerprints(7, 240)
	entries := make([]ccd.Entry, len(fps))
	for i, fp := range fps {
		entries[i] = ccd.Entry{ID: fmt.Sprintf("doc-%03d", i), FP: fp}
	}
	for shards, want := range map[int]string{
		1: "95f2ae7e2acbec9e46e1c1a8385a3c7d59c29f001e09560abcf2ccf231cd4d04",
		4: "e906d8cee12b9f9f7790ed2c800facdea03707cbe73dd1332bab82137cc52593",
	} {
		c := NewCorpus(ccd.DefaultConfig, shards)
		if err := c.AddBatch(context.Background(), entries); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := c.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("shards=%d: snapshot of the fixture (%d bytes) hashes to %s, want %s", shards, buf.Len(), got, want)
		}
		// And the pinned bytes load.
		back := NewCorpus(ccd.DefaultConfig, shards)
		if err := back.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil || back.Len() != len(entries) {
			t.Errorf("shards=%d: heap restore: %d entries, %v", shards, back.Len(), err)
		}
	}
}
