package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ccd"
	"repro/internal/cluster"
)

// clusteredFingerprints builds a corpus with a known ground-truth partition:
// nClusters groups whose members are exact or one-edit copies of a long
// random per-cluster base (far above ε within a group, unrelated across
// groups). Returns the entries and the expected member partition.
func clusteredFingerprints(seed int64, nClusters, maxSize int) ([]ccd.Entry, map[string]int) {
	rng := rand.New(rand.NewSource(seed))
	alphabet := []byte("QxRtYuIoPAbCdEfGhZvNmWqSjKl")
	var entries []ccd.Entry
	groupOf := map[string]int{}
	doc := 0
	for c := 0; c < nClusters; c++ {
		base := make([]byte, 36+rng.Intn(12))
		for i := range base {
			base[i] = alphabet[rng.Intn(len(alphabet))]
		}
		size := 1 + rng.Intn(maxSize)
		for m := 0; m < size; m++ {
			fp := append([]byte(nil), base...)
			if m%3 == 1 { // one point mutation: similarity stays ≥ 90
				fp[rng.Intn(len(fp))] = alphabet[rng.Intn(len(alphabet))]
			}
			id := fmt.Sprintf("doc-%05d", doc)
			doc++
			entries = append(entries, ccd.Entry{ID: id, FP: ccd.Fingerprint(fp)})
			groupOf[id] = c
		}
	}
	// Interleave ids across groups so every shard sees every group.
	rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	return entries, groupOf
}

func seedCorpus(t *testing.T, shards int, entries []ccd.Entry) *Corpus {
	t.Helper()
	c := NewCorpus(ccd.DefaultConfig, shards)
	for _, e := range entries {
		if err := c.Add(e.ID, e.FP); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// naiveSelfJoin is the reference the planner is held to: an all-pairs
// scoring pass with no posting-list blocking, returning the cluster set.
func naiveSelfJoin(entries []ccd.Entry, cfg ccd.Config) *cluster.Set {
	set := cluster.New()
	for _, e := range entries {
		set.Add(e.ID)
	}
	for i := 0; i < len(entries); i++ {
		for k := i + 1; k < len(entries); k++ {
			if entries[i].ID == entries[k].ID {
				continue
			}
			if _, ok := ccd.SimilarityAtLeast(entries[i].FP, entries[k].FP, cfg.Epsilon); ok {
				set.Union(entries[i].ID, entries[k].ID)
			}
		}
	}
	return set
}

// TestSelfJoinFindsGroundTruthClusters: the posting-list self-join recovers
// exactly the generated partition, for any shard count, and agrees with the
// naive all-pairs baseline.
func TestSelfJoinFindsGroundTruthClusters(t *testing.T) {
	entries, groupOf := clusteredFingerprints(5, 25, 6)
	naive := naiveSelfJoin(entries, ccd.DefaultConfig)
	want := naive.Clusters(1, true)

	for _, shards := range []int{1, 4} {
		c := seedCorpus(t, shards, entries)
		j := NewSelfJoin(c, 0)
		if err := j.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		got := j.Clusters().Clusters(1, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: planner clusters differ from naive all-pairs\n got %d clusters\nwant %d", shards, len(got), len(want))
		}
		// Ground truth: members of one generated group always cluster
		// together (they are ≤ 2 edits apart through the base).
		for _, cl := range got {
			g := groupOf[cl.Members[0]]
			for _, m := range cl.Members {
				if groupOf[m] != g {
					t.Fatalf("shards=%d: cluster %v mixes groups %d and %d", shards, cl.Members, g, groupOf[m])
				}
			}
		}
		st := j.Stats()
		if st.Docs != int64(len(entries)) || st.Queried != int64(len(entries)) {
			t.Fatalf("shards=%d: stats %+v, want docs=queried=%d", shards, st, len(entries))
		}
		if st.Candidates < st.Scored+st.CutoffSkipped {
			t.Fatalf("shards=%d: funnel inconsistent: %+v", shards, st)
		}
		if !j.done {
			t.Fatalf("shards=%d: join not marked done", shards)
		}
		// Running a finished join is a no-op.
		if err := j.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSelfJoinCancelAndResume: a cancelled join stops with ctx.Err() and a
// checkpoint; resuming completes it with the identical partition (and the
// funnel records the resume).
func TestSelfJoinCancelAndResume(t *testing.T) {
	entries, _ := clusteredFingerprints(9, 30, 5)
	c := seedCorpus(t, 3, entries)

	ref := NewSelfJoin(c, 0)
	if err := ref.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := ref.Clusters().Clusters(1, true)

	j := NewSelfJoin(c, 0)
	// Cancel from inside the fan-out after a handful of queries.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inner := j.par
	queries := 0
	j.par = func(ctx context.Context, n int, fn func(int)) error {
		return inner(ctx, n, func(i int) {
			queries++
			if queries > 3 {
				cancel()
			}
			fn(i)
		})
	}
	if err := j.Run(ctx); err != context.Canceled {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if j.done {
		t.Fatal("cancelled join reports done")
	}
	j.par = inner
	if err := j.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !j.done {
		t.Fatal("resumed join not done")
	}
	if got := j.Clusters().Clusters(1, true); !reflect.DeepEqual(got, want) {
		t.Fatal("resumed join produced a different partition")
	}
	if st := j.Stats(); st.Resumes != 1 {
		t.Fatalf("resumes %d, want 1", st.Resumes)
	}
}

// TestSelfJoinRejectsOverlappingRun: only one Run may drive a join at a
// time — an overlapping call (e.g. an embedder resuming a study that is
// still executing) returns ErrSelfJoinRunning instead of re-running the same
// segments concurrently and racing the checkpoint.
func TestSelfJoinRejectsOverlappingRun(t *testing.T) {
	entries, _ := clusteredFingerprints(21, 10, 4)
	c := seedCorpus(t, 2, entries)
	j := NewSelfJoin(c, 0)
	inner := j.par
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	j.par = func(ctx context.Context, n int, fn func(int)) error {
		once.Do(func() {
			close(entered)
			<-release
		})
		return inner(ctx, n, fn)
	}
	done := make(chan error, 1)
	go func() { done <- j.Run(context.Background()) }()
	<-entered
	if err := j.Run(context.Background()); !errors.Is(err, ErrSelfJoinRunning) {
		t.Fatalf("overlapping Run returned %v, want ErrSelfJoinRunning", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The guard clears with the run: a finished join accepts Run again (as a
	// no-op) and reports no spurious resume.
	if err := j.Run(context.Background()); err != nil {
		t.Fatalf("Run after completion: %v", err)
	}
	if st := j.Stats(); st.Resumes != 0 || st.Errors != 0 {
		t.Fatalf("stats %+v, want no resumes or errors", st)
	}
}

// TestSelfJoinQueryErrorFailsSegment: a per-document query failure that is
// NOT a context cancellation must surface from Run (keeping the checkpoint
// behind the segment) and be counted apart from Cancelled — not silently
// absorbed as if the query had been cut by ctx.
func TestSelfJoinQueryErrorFailsSegment(t *testing.T) {
	entries, _ := clusteredFingerprints(27, 8, 4)
	c := seedCorpus(t, 2, entries)
	j := NewSelfJoin(c, 0)

	// Cancellations are pauses, tallied but never fatal.
	j.recordQueryFailure("doc-x", context.Canceled)
	j.recordQueryFailure("doc-y", fmt.Errorf("wrapped: %w", context.DeadlineExceeded))
	if st := j.Stats(); st.Cancelled != 2 || st.Errors != 0 {
		t.Fatalf("stats %+v, want 2 cancelled / 0 errors", st)
	}

	// A real backend failure fails the run at the segment boundary.
	inner := j.par
	boom := errors.New("backend exploded")
	j.par = func(ctx context.Context, n int, fn func(int)) error {
		j.recordQueryFailure("doc-z", boom)
		return nil
	}
	if err := j.Run(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want wrapped %v", err, boom)
	}
	if st := j.Stats(); st.Errors != 1 {
		t.Fatalf("stats %+v, want 1 error", st)
	}
	if j.shard != 0 || j.segment != 0 || j.done {
		t.Fatalf("checkpoint advanced past failed segment: shard=%d segment=%d done=%v", j.shard, j.segment, j.done)
	}

	// Retrying after the fault clears re-runs the segment and completes.
	j.par = inner
	if err := j.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !j.done {
		t.Fatal("retried join not done")
	}
}

// TestEngineCloneStudyMatchesOfflineJoin is the shared-implementation
// equivalence at the service layer: the engine's pooled, sharded study and
// the offline single-shard join produce the identical cluster-size
// distribution at the same η/ε — for the exact join and for a capped one.
func TestEngineCloneStudyMatchesOfflineJoin(t *testing.T) {
	entries, _ := clusteredFingerprints(13, 40, 6)
	for _, limit := range []int{0, 1, 3} {
		offlineCorpus := seedCorpus(t, 1, entries)
		offline := NewSelfJoin(offlineCorpus, limit)
		if err := offline.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		offRep := offline.Report(5)

		eng := New(Options{Workers: 4, Shards: 3})
		for _, e := range entries {
			if err := addFP(eng, e.ID, e.FP); err != nil {
				t.Fatal(err)
			}
		}
		onRep, err := eng.RunCloneStudy(context.Background(), limit, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(onRep.Summary, offRep.Summary) {
			t.Fatalf("limit=%d: online summary %+v != offline %+v", limit, onRep.Summary, offRep.Summary)
		}
		if !reflect.DeepEqual(onRep.Top, offRep.Top) {
			t.Fatalf("limit=%d: online top clusters %v != offline %v", limit, onRep.Top, offRep.Top)
		}
		if onRep.Eta != offRep.Eta || onRep.Epsilon != offRep.Epsilon {
			t.Fatalf("limit=%d: parameter mismatch: %v/%v vs %v/%v", limit, onRep.Eta, onRep.Epsilon, offRep.Eta, offRep.Epsilon)
		}
		m := eng.Metrics()
		if m.SelfJoin.Completed != 1 || m.SelfJoin.Docs != int64(len(entries)) {
			t.Fatalf("limit=%d: study funnel %+v", limit, m.SelfJoin)
		}
		if limit > 0 {
			// The cap is on clone edges, not TopK slots: the query doc's
			// self-match must not eat the budget (limit=1 once found NO
			// clones because self always took the single slot).
			if onRep.Stats.Matches == 0 || onRep.Summary.Clustered == 0 {
				t.Fatalf("limit=%d: no clones found on a clustered corpus: %+v", limit, onRep.Stats)
			}
		}
	}
}

// TestObserveStudyClassifiesOutcome: the study funnel distinguishes a
// client cancellation from a real failure — conflating them sends an
// operator chasing a phantom cancel instead of the backend error.
func TestObserveStudyClassifiesOutcome(t *testing.T) {
	var c counters
	c.observeStudy(SelfJoinStats{}, nil)
	c.observeStudy(SelfJoinStats{}, context.Canceled)
	c.observeStudy(SelfJoinStats{}, fmt.Errorf("wrapped: %w", context.DeadlineExceeded))
	c.observeStudy(SelfJoinStats{Errors: 2}, errors.New("backend exploded"))
	if got := c.studiesCompleted.Load(); got != 1 {
		t.Fatalf("completed %d, want 1", got)
	}
	if got := c.studiesCancelled.Load(); got != 2 {
		t.Fatalf("cancelled %d, want 2", got)
	}
	if got := c.studiesFailed.Load(); got != 1 {
		t.Fatalf("failed %d, want 1", got)
	}
	if got := c.studyErrors.Load(); got != 2 {
		t.Fatalf("query errors %d, want 2", got)
	}
}

// TestIngestScansNothing: ingest only indexes — it runs no clone query, so
// the corpus funnel stays empty — and the clone study is where clusters come
// from.
func TestIngestScansNothing(t *testing.T) {
	e := New(Options{Workers: 2, Shards: 2})
	fp := ccd.Fingerprint("QxRtYuIoPAbCdEfGhZvNmQwErTyUiOp")
	for i := 0; i < 5; i++ {
		if err := addFP(e, fmt.Sprintf("dup-%d", i), fp); err != nil {
			t.Fatal(err)
		}
	}
	if err := addFP(e, "lone", ccd.Fingerprint("ZmNvBqWsEdRfTgYhUjMkOlPa")); err != nil {
		t.Fatal(err)
	}
	if f := e.Corpus().Funnel(); f != (CorpusFunnel{}) {
		t.Fatalf("ingest scanned the corpus: funnel %+v", f)
	}
	rep, err := e.RunCloneStudy(context.Background(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sum := rep.Summary; sum.Docs != 6 || sum.Clusters != 1 || sum.Largest != 5 || sum.Singletons != 1 {
		t.Fatalf("study summary %+v, want one 5-cluster and one singleton", sum)
	}
}
