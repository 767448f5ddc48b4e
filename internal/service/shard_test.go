package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ccd"
)

// matchAll returns every clone of fp in c, best first.
func matchAll(c *Corpus, fp ccd.Fingerprint) []ccd.Match {
	ms, _ := c.MatchTopK(fp, 0)
	return ms
}

// randomFingerprints builds a deterministic set of fingerprints with heavy
// duplication and near-duplication, so top-K ties (same score, different id)
// actually occur and the shard-merge tie-breaking is exercised.
func randomFingerprints(seed int64, n int) []ccd.Fingerprint {
	rng := rand.New(rand.NewSource(seed))
	alphabet := []byte("QxRtYuIoPAbCdEfGhZvNm")
	base := make([][]byte, 7)
	for i := range base {
		b := make([]byte, 12+rng.Intn(20))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		base[i] = b
	}
	out := make([]ccd.Fingerprint, n)
	for i := range out {
		b := append([]byte(nil), base[rng.Intn(len(base))]...)
		for k := rng.Intn(3); k > 0; k-- { // up to 2 point mutations
			b[rng.Intn(len(b))] = alphabet[rng.Intn(len(alphabet))]
		}
		if rng.Intn(4) == 0 { // sometimes multi-function fingerprints
			b = append(b, '.')
			b = append(b, base[rng.Intn(len(base))]...)
		}
		out[i] = ccd.Fingerprint(b)
	}
	return out
}

// TestShardedMatchTopKEqualsSingleCorpusPrefix is the tentpole equivalence
// property: for every k, the sharded scatter-gather MatchTopK must return
// exactly the k-prefix of the single-corpus sorted Match result — same ids,
// same scores, same tie-breaking — regardless of shard count.
func TestShardedMatchTopKEqualsSingleCorpusPrefix(t *testing.T) {
	const docs = 160
	fps := randomFingerprints(11, docs)

	single := ccd.NewCorpus(ccd.DefaultConfig)
	sharded := map[int]*Corpus{}
	for _, shards := range []int{1, 3, 4, 7} {
		sharded[shards] = NewCorpus(ccd.DefaultConfig, shards)
	}
	for i, fp := range fps {
		id := fmt.Sprintf("doc-%03d", i)
		single.Add(id, fp)
		for _, c := range sharded {
			if err := c.Add(id, fp); err != nil {
				t.Fatal(err)
			}
		}
	}

	queries := randomFingerprints(23, 12)
	queries = append(queries, fps[0], fps[docs/2]) // exact-hit queries
	for qi, q := range queries {
		reference := single.MatchTopK(q, 0)
		for shards, c := range sharded {
			for k := 0; k <= len(reference)+2; k++ {
				got, _ := c.MatchTopK(q, k)
				want := reference
				if k > 0 && k < len(want) {
					want = want[:k]
				}
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d, shards=%d, k=%d:\n got %v\nwant %v", qi, shards, k, got, want)
				}
			}
		}
	}
}

// TestShardedTopKTieAtBound is the adversarial tie-at-bound extension of the
// sharded≡single property: the corpus is built so that many documents score
// EXACTLY the same as the k-th place — the score the shared ccd.AtomicBound
// settles at — across different shards. Ties at the shared admission bound
// must survive to the merge (the bound is a strictly-below cutoff) and
// resolve by id there, so the k-th place id is pinned deterministic for
// every shard count and every k straddling a tie group.
func TestShardedTopKTieAtBound(t *testing.T) {
	base, entries := TieAtBoundFixture()

	single := ccd.NewCorpus(ccd.DefaultConfig)
	for _, e := range entries {
		single.Add(e.ID, e.FP)
	}
	reference := single.MatchTopK(base, 0)
	if len(reference) < 20 {
		t.Fatalf("tie fixture too weak: only %d reference matches", len(reference))
	}
	// The fixture must actually produce score plateaus.
	plateau := map[float64]int{}
	for _, m := range reference {
		plateau[m.Score]++
	}
	if plateau[100] != 12 {
		t.Fatalf("want 12 exact ties at 100, got %d (scores %v)", plateau[100], plateau)
	}

	assertShardedTiesMatchReference(t, entries, base, reference)
}

// TieAtBoundFixture is the corpus and query of TestShardedTopKTieAtBound: 12
// exact duplicates of the query (score 100), 8 one-edit copies (one
// identical intermediate score), 6 two-edit copies — three plateaus of exact
// ties. Ids interleave so every tie group spans every shard. Exported for the
// partition-kind test in gather_test.go.
func TieAtBoundFixture() (ccd.Fingerprint, []ccd.Entry) {
	base := ccd.Fingerprint("QxRtYuIoPAbCdEfGhZvNmQwErTy")
	near := ccd.Fingerprint("QxRtYuIoPAbCdEfGhZvNmQwErTz") // 1 edit: one shared sub-score tier
	far := ccd.Fingerprint("QxRtYuIoPAbCdEfGhZvNmQwEraa")  // 2 edits: a lower tier
	var entries []ccd.Entry
	for i := 0; i < 12; i++ {
		entries = append(entries, ccd.Entry{ID: fmt.Sprintf("dup-%02d", i), FP: base})
	}
	for i := 0; i < 8; i++ {
		entries = append(entries, ccd.Entry{ID: fmt.Sprintf("near-%02d", i), FP: near})
	}
	for i := 0; i < 6; i++ {
		entries = append(entries, ccd.Entry{ID: fmt.Sprintf("far-%02d", i), FP: far})
	}
	return base, entries
}

// assertShardedTiesMatchReference fills a corpus of every shard count with
// entries and demands, for every k, the exact k-prefix of the sorted
// single-corpus reference — ids included, ten runs over at k=5.
func assertShardedTiesMatchReference(t *testing.T, entries []ccd.Entry, query ccd.Fingerprint, reference []ccd.Match) {
	t.Helper()
	for _, shards := range []int{1, 2, 3, 5, 8} {
		c := NewCorpus(ccd.DefaultConfig, shards)
		for _, e := range entries {
			if err := c.Add(e.ID, e.FP); err != nil {
				t.Fatal(err)
			}
		}
		// Every k, including each k that lands INSIDE a tie plateau (k=5 cuts
		// the twelve 100s; k=15 cuts the near group): the merged result must
		// be the exact k-prefix of the reference, ids and all.
		for k := 0; k <= len(reference)+1; k++ {
			got, _ := c.MatchTopK(query, k)
			want := reference
			if k > 0 && k < len(want) {
				want = want[:k]
			}
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d k=%d:\n got %v\nwant %v", shards, k, got, want)
			}
		}
		// Determinism across repeated runs of the same racy scatter-gather:
		// the shared bound is raised concurrently, but the merged k-th place
		// must never wobble.
		for run := 0; run < 10; run++ {
			got, _ := c.MatchTopK(query, 5)
			if !reflect.DeepEqual(got, reference[:5]) {
				t.Fatalf("shards=%d run %d: tie-at-bound merge wobbled:\n got %v\nwant %v",
					shards, run, got, reference[:5])
			}
		}
	}
}

// TestShardedTopKTieAtBoundMultiSub is the tie-at-bound property on
// fingerprints of several subs, where Algorithm 1's mean is a sum of floats:
// the plateau scores (58.62068965517241 + 4·100)/5, whose optimistic
// all-at-once total rounds one ulp below the sum taken a sub at a time. Once
// the bound has reached the plateau, the early exit of similarityAtLeast used
// to reject every later member. The plateau's members arrive largest id
// first, so dropping late arrivals drops exactly the ids the answer wants.
func TestShardedTopKTieAtBoundMultiSub(t *testing.T) {
	query, entries := MultiSubTieFixture()
	tie := entries[3].FP
	const plateau = 91.72413793103449 // summed a sub at a time; (58.62…+400)/5 at once is …448
	if got := ccd.Similarity(query, tie); got != plateau {
		t.Fatalf("fixture: tie scores %v, want %v", got, plateau)
	}
	single := ccd.NewCorpus(ccd.DefaultConfig)
	for _, e := range entries {
		single.Add(e.ID, e.FP)
	}
	reference := single.MatchTopK(query, 0)
	if len(reference) != len(entries) || reference[3].ID != "tie-00" || reference[3].Score != plateau {
		t.Fatalf("fixture: reference %v", reference)
	}
	assertShardedTiesMatchReference(t, entries, query, reference)
}

// MultiSubTieFixture is the corpus and query of
// TestShardedTopKTieAtBoundMultiSub: 3 exact duplicates of the 5-sub query,
// 8 copies (entries 3..10, largest id first) whose first sub has 12 of 29
// bytes edited — the plateau — and 4 farther copies. Exported for the
// partition-kind test in gather_test.go.
func MultiSubTieFixture() (ccd.Fingerprint, []ccd.Entry) {
	const (
		head = "QxRtYuIoPAbCdEfGhZvNmQwErTyUi" // 29 bytes
		rest = ".aSdFgHjKlZx.cVbNmQwErTyU.iOpLkJhGfDsA.zXcVbNmLkJh"
	)
	query := ccd.Fingerprint(head + rest)
	tie := ccd.Fingerprint(head[:17] + "############" + rest) // 12 of 29 edited: δ = 100·17/29
	far := ccd.Fingerprint(head[:9] + "####################" + rest)
	var entries []ccd.Entry
	for i := 0; i < 3; i++ {
		entries = append(entries, ccd.Entry{ID: fmt.Sprintf("dup-%02d", i), FP: query})
	}
	for i := 7; i >= 0; i-- {
		entries = append(entries, ccd.Entry{ID: fmt.Sprintf("tie-%02d", i), FP: tie})
	}
	for i := 0; i < 4; i++ {
		entries = append(entries, ccd.Entry{ID: fmt.Sprintf("far-%02d", i), FP: far})
	}
	return query, entries
}

// TestDuplicateAddSupersedes is the duplicate-ingest regression: re-adding
// an existing id must replace the earlier copy — across generation-segments,
// in Len, the ingest stats and match results — never double-count it.
func TestDuplicateAddSupersedes(t *testing.T) {
	fp1 := ccd.Fingerprint("QxRtYuIoPAbCdEfGhZvNm")
	fp2 := ccd.Fingerprint("ZZZZYuIoPAbCdEfGhXXXX")
	for _, shards := range []int{1, 4} {
		c := NewCorpus(ccd.DefaultConfig, shards)
		if err := c.Add("dup", fp1); err != nil {
			t.Fatal(err)
		}
		// Bury the first copy under later segments so the supersede has to
		// reach across generation-segments, not just the newest one.
		for i := 0; i < 20; i++ {
			if err := c.Add(fmt.Sprintf("filler-%02d", i), testFP(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Add("dup", fp2); err != nil {
			t.Fatal(err)
		}

		if got := c.Len(); got != 21 {
			t.Fatalf("shards=%d: Len %d after duplicate add, want 21", shards, got)
		}
		if got := c.Supersedes(); got != 1 {
			t.Fatalf("shards=%d: supersedes %d, want 1", shards, got)
		}
		if got := c.entryMultiset()["dup\x00"+string(fp1)]; got != 0 {
			t.Fatalf("shards=%d: stale fingerprint still indexed %d times", shards, got)
		}
		if got := c.entryMultiset()["dup\x00"+string(fp2)]; got != 1 {
			t.Fatalf("shards=%d: new fingerprint indexed %d times, want 1", shards, got)
		}
		// The old fingerprint no longer matches at 100; the new one matches
		// exactly once.
		for _, m := range matchAll(c, fp1) {
			if m.ID == "dup" && m.Score == 100 {
				t.Fatalf("shards=%d: superseded copy still matches at 100", shards)
			}
		}
		hits := 0
		for _, m := range matchAll(c, fp2) {
			if m.ID == "dup" {
				hits++
				if m.Score != 100 {
					t.Fatalf("shards=%d: superseding copy scores %v", shards, m.Score)
				}
			}
		}
		if hits != 1 {
			t.Fatalf("shards=%d: new copy matched %d times, want exactly 1", shards, hits)
		}

		// Same-batch duplicates collapse too (last write wins).
		c2 := NewCorpus(ccd.DefaultConfig, shards)
		c2.addLocalBatch([]ccd.Entry{{ID: "x", FP: fp1}, {ID: "x", FP: fp2}, {ID: "y", FP: fp1}})
		if c2.Len() != 2 || c2.Supersedes() != 1 {
			t.Fatalf("shards=%d: batch dup Len %d supersedes %d, want 2/1", shards, c2.Len(), c2.Supersedes())
		}
		if got := c2.entryMultiset()["x\x00"+string(fp2)]; got != 1 {
			t.Fatalf("shards=%d: batch dup kept wrong version (%d)", shards, got)
		}
	}

	// Supersede must survive a snapshot restore: the live-id set is rebuilt
	// from the restored segments, so a post-restore re-ingest still replaces.
	src := NewCorpus(ccd.DefaultConfig, 2)
	if err := src.Add("dup", fp1); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, src, 8)
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dst := NewCorpus(ccd.DefaultConfig, 2)
	if err := dst.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := dst.Add("dup", fp2); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 9 {
		t.Fatalf("post-restore Len %d, want 9", dst.Len())
	}
	if got := dst.entryMultiset()["dup\x00"+string(fp1)]; got != 0 {
		t.Fatal("post-restore re-ingest did not supersede the restored copy")
	}
}

// TestBatchDuplicateKeepsLastAcceptedCopy: when one publish batch holds
// several copies of an id, every copy is accepted (an empty fingerprint
// included), so the last one wins and each copy under it counts as a
// supersede — the same outcome sequential ingest of the Adds produces.
func TestBatchDuplicateKeepsLastAcceptedCopy(t *testing.T) {
	c := NewCorpus(ccd.DefaultConfig, 1)
	fp1, fp2 := testFP(1), testFP(2)
	c.addLocalBatch([]ccd.Entry{{ID: "x", FP: fp1}, {ID: "x", FP: ""}, {ID: "x", FP: fp2}})
	if c.Len() != 1 || c.Supersedes() != 2 {
		t.Fatalf("len=%d supersedes=%d, want 1/2", c.Len(), c.Supersedes())
	}
	if got := c.entryMultiset()["x\x00"+string(fp2)]; got != 1 {
		t.Fatalf("last copy kept %d times, want 1", got)
	}
}

// writeLegacySnapshot encodes entries in the pre-shard (version 1) envelope:
// a flat framed list of ccd corpus snapshots, all under one config.
func writeLegacySnapshot(t *testing.T, cfg ccd.Config, segments [][]ccd.Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	var scratch [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		bw.Write(scratch[:n])
	}
	bw.WriteString(corpusSnapshotMagic)
	writeUvarint(1) // legacy version
	writeUvarint(uint64(len(segments)))
	for _, seg := range segments {
		c := ccd.NewCorpus(cfg)
		for _, e := range seg {
			c.Add(e.ID, e.FP)
		}
		var segBuf bytes.Buffer
		if err := c.Save(&segBuf); err != nil {
			t.Fatal(err)
		}
		writeUvarint(uint64(segBuf.Len()))
		bw.Write(segBuf.Bytes())
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLegacySnapshotRestores: pre-shard (version 1) envelopes — once
// restored as a one-shard layout — are refused by version, on the heap
// restore and the mapped boot alike, and leave the corpus empty and usable.
// There is one format generation.
func TestLegacySnapshotRestores(t *testing.T) {
	segments := [][]ccd.Entry{nil, nil, nil}
	for i := 0; i < 45; i++ {
		segments[i%3] = append(segments[i%3], ccd.Entry{ID: fmt.Sprintf("doc-%d", i), FP: testFP(i)})
	}
	raw := writeLegacySnapshot(t, ccd.ConservativeConfig, segments)
	path := filepath.Join(t.TempDir(), SnapshotFile)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 4} {
		c := NewCorpus(ccd.DefaultConfig, shards)
		for name, err := range map[string]error{
			"ReadSnapshot":     c.ReadSnapshot(bytes.NewReader(raw)),
			"OpenSnapshotFile": c.OpenSnapshotFile(path),
		} {
			if err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
				t.Fatalf("shards=%d: %s on a version-1 envelope: %v, want an unsupported-version error", shards, name, err)
			}
		}
		if c.Len() != 0 || c.Config() != ccd.DefaultConfig {
			t.Fatalf("shards=%d: refused restore left %d entries, config %v", shards, c.Len(), c.Config())
		}
		mustAdd(t, c, 3)
		verifyEntries(t, c, 3)
	}
}

// TestSnapshotRoundTripShardAware: the version-2 envelope round-trips across
// matching and mismatching shard counts and refuses a forged backend name,
// threshold override or segment frame carrying trailing bytes, on the heap
// restore and the mapped boot alike.
func TestSnapshotRoundTripShardAware(t *testing.T) {
	src := NewCorpus(ccd.DefaultConfig, 4)
	mustAdd(t, src, 64)
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	same := NewCorpus(ccd.ConservativeConfig, 4)
	if err := same.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if same.Config() != src.Config() {
		t.Fatalf("config %v, want %v", same.Config(), src.Config())
	}
	if !reflect.DeepEqual(same.entryMultiset(), src.entryMultiset()) {
		t.Fatal("matching-shard restore lost entries")
	}
	// Matching shard counts must preserve the exact per-shard layout.
	for i, st := range same.ShardStats() {
		if st.Size != src.ShardStats()[i].Size {
			t.Fatalf("shard %d size %d, want %d", i, st.Size, src.ShardStats()[i].Size)
		}
	}

	reshard := NewCorpus(ccd.DefaultConfig, 7)
	if err := reshard.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reshard.entryMultiset(), src.entryMultiset()) {
		t.Fatal("re-sharded restore lost entries")
	}
	verifyEntries(t, reshard, 64)

	// The envelope still names its backend and carries a fourth float, and
	// a reader refuses any name but "ccd" and any non-zero override.
	raw := buf.Bytes()
	name := bytes.Index(raw, []byte("\x03ccd"))
	if name != len(corpusSnapshotMagic)+1 {
		t.Fatalf("backend name at offset %d, want right after magic and version", name)
	}
	override := name + 4 + 1 + 8 + 8 // name, uvarint N=3, Eta, Epsilon
	if got := binary.LittleEndian.Uint64(raw[override:]); got != 0 {
		t.Fatalf("fourth config float is %#x, want zero", got)
	}
	otherName := bytes.Clone(raw)
	copy(otherName[name+1:], "abc")
	nonZero := bytes.Clone(raw)
	binary.LittleEndian.PutUint64(nonZero[override:], math.Float64bits(20))
	// One shard, one segment frame: a valid segment followed by two bytes
	// inside its frame. The heap restore and the mapped boot share one
	// segment parser, so both must refuse it.
	_, frames, err := parseSnapshotEnvelope(raw)
	if err != nil {
		t.Fatal(err)
	}
	seg := append(bytes.Clone(frames[0][0]), "xy"...)
	trailing := binary.AppendUvarint(bytes.Clone(raw[:override+8]), 1) // shard count
	trailing = binary.AppendUvarint(trailing, 1)                       // segment count
	trailing = binary.AppendUvarint(trailing, uint64(len(seg)))
	trailing = append(trailing, seg...)
	for what, forged := range map[string][]byte{
		"backend name":                      otherName,
		"threshold override":                nonZero,
		"segment frame with trailing bytes": trailing,
	} {
		path := filepath.Join(t.TempDir(), SnapshotFile)
		if err := os.WriteFile(path, forged, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := NewCorpus(ccd.DefaultConfig, 4).ReadSnapshot(bytes.NewReader(forged)); err == nil {
			t.Fatalf("ReadSnapshot accepted a forged %s", what)
		}
		if err := NewCorpus(ccd.DefaultConfig, 4).OpenSnapshotFile(path); err == nil {
			t.Fatalf("OpenSnapshotFile accepted a forged %s", what)
		}
	}
}

// TestValidateSnapshotConfig: forged envelopes with out-of-domain matcher
// parameters must fail the restore instead of installing a corpus that
// panics on first use (negative N, NaN thresholds).
func TestValidateSnapshotConfig(t *testing.T) {
	if err := validateSnapshotConfig(ccd.DefaultConfig); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	nan := math.NaN()
	bad := []ccd.Config{
		{N: -3, Eta: 0.5, Epsilon: 70},
		{N: 1 << 20, Eta: 0.5, Epsilon: 70},
		{N: 3, Eta: nan, Epsilon: 70},
		{N: 3, Eta: 1.5, Epsilon: 70},
		{N: 3, Eta: 0.5, Epsilon: -1},
		{N: 3, Eta: 0.5, Epsilon: nan},
	}
	for i, cfg := range bad {
		if err := validateSnapshotConfig(cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

// TestMatchCancellation: a cancelled context aborts the scatter-gather with
// ctx.Err() before (or during) the scan, both at the corpus and through the
// engine's pooled submit path.
func TestMatchCancellation(t *testing.T) {
	c := NewCorpus(ccd.DefaultConfig, 4)
	mustAdd(t, c, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.MatchTopKCtx(ctx, testFP(3), 5, nil); err != context.Canceled {
		t.Fatalf("corpus match error %v, want context.Canceled", err)
	}
	if got := c.Funnel().CancelledReads; got != 1 {
		t.Fatalf("cancelled reads %d, want 1", got)
	}

	e := New(Options{Workers: 2, Shards: 4})
	if err := addSrc(e, "a", reentrantSrc); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.MatchSource(ctx, "", reentrantSrc, 5); err != context.Canceled {
		t.Fatalf("engine match error %v, want context.Canceled", err)
	}
	// Batch dispatch stops: with a pre-cancelled ctx no source runs.
	err := e.MapCtx(ctx, 2, func(int) { t.Error("batch item ran on cancelled ctx") })
	if err != context.Canceled {
		t.Fatalf("batch error %v, want context.Canceled", err)
	}
	// DoCtx refuses to queue on a cancelled context.
	if err := e.DoCtx(ctx, func() { t.Error("task ran on cancelled ctx") }); err != context.Canceled {
		t.Fatalf("DoCtx error %v, want context.Canceled", err)
	}
}

// TestEngineBackendRouting covers the one place a request-supplied backend
// name is checked: empty and "ccd" reach the serving corpus, any other name —
// the retired comparison backends included — is a typed error naming the
// value, never a silent fallback. /metrics reports the corpus as one object.
func TestEngineBackendRouting(t *testing.T) {
	e := New(Options{Workers: 2, Shards: 2})
	if err := addSrc(e, "src-1", reentrantSrc); err != nil {
		t.Fatal(err)
	}
	if err := addFP(e, "fp-1", testFP(1)); err != nil {
		t.Fatal(err)
	}
	if e.Corpus().Len() != 2 {
		t.Fatalf("corpus %d entries, want 2", e.Corpus().Len())
	}
	for _, backend := range []string{"", BackendCCD} {
		ms, _, err := e.MatchSource(context.Background(), backend, reentrantSrc, 1)
		if err != nil {
			t.Fatalf("match on %q: %v", backend, err)
		}
		if len(ms) != 1 || ms[0].ID != "src-1" {
			t.Fatalf("match on %q: %v, want src-1", backend, ms)
		}
	}
	for _, backend := range []string{"bogus", "ssdeep", "smartembed", "CCD"} {
		ms, _, err := e.MatchSource(context.Background(), backend, reentrantSrc, 1)
		if !errors.Is(err, ErrUnknownBackend) || !strings.Contains(err.Error(), strconv.Quote(backend)) || len(ms) != 0 {
			t.Fatalf("match on %q: %v, %v; want ErrUnknownBackend naming the value and no matches", backend, ms, err)
		}
		if err := CheckBackend(backend); !errors.Is(err, ErrUnknownBackend) {
			t.Fatalf("CheckBackend(%q) = %v", backend, err)
		}
	}

	m := e.Metrics()
	if m.Corpus.Size != 2 || m.Corpus.Shards != 2 || m.Corpus.Adds != 2 || m.Corpus.Funnel.Matches != 2 {
		t.Fatalf("metrics corpus %+v", m.Corpus)
	}
	if m.Corpus.Shards != 2 || len(m.CorpusShards) != 2 {
		t.Fatalf("metrics shard view: count=%d shards=%d", m.Corpus.Shards, len(m.CorpusShards))
	}
}
