package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
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
		if st.SegmentsDone != st.SegmentsTotal {
			t.Fatalf("shards=%d: %d of %d segments joined", shards, st.SegmentsDone, st.SegmentsTotal)
		}
	}
}

// TestSelfJoinQueryErrorFailsSegment: a per-document query failure, a
// cancellation included, fails its segment and the join and is counted in
// Errors, not silently absorbed: that would drop the document's edges.
func TestSelfJoinQueryErrorFailsSegment(t *testing.T) {
	entries, _ := clusteredFingerprints(27, 8, 4)
	c := seedCorpus(t, 2, entries)
	for _, cause := range []error{errors.New("backend exploded"), context.Canceled} {
		j := NewSelfJoin(c, 0)
		j.par = func(ctx context.Context, n int, fn func(int)) error {
			j.recordQueryFailure("doc-z", cause)
			return nil
		}
		if err := j.Run(context.Background()); !errors.Is(err, cause) {
			t.Fatalf("Run returned %v, want wrapped %v", err, cause)
		}
		if st := j.Stats(); st.Errors != 1 || st.SegmentsDone != 0 {
			t.Fatalf("%v: stats %+v, want 1 error and no segment joined", cause, st)
		}
	}
}

// TestSelfJoinStopsPageAtFirstFailure: once a page's first query fails, the
// rest of the page is not queried. Under the serial par the failing query of
// document 0 is the only one run, it alone is counted, and Run returns its
// failure, not the cancellation that stopped the page.
func TestSelfJoinStopsPageAtFirstFailure(t *testing.T) {
	entries := make([]ccd.Entry, 10)
	for i := range entries {
		entries[i] = ccd.Entry{ID: fmt.Sprintf("doc-%d", i), FP: "QxRtYuIoP"}
	}
	unit := func(ctx context.Context, page func([]ccd.Entry) error) error { return page(entries) }
	down := errors.New("partition down")
	queries := 0
	query := func(ctx context.Context, fp ccd.Fingerprint, k int) ([]ccd.Match, ccd.MatchStats, error) {
		queries++
		return nil, ccd.MatchStats{}, down
	}
	j := NewPlannedSelfJoin([][]StudyUnit{{unit}}, query, ccd.DefaultConfig, 0)
	err := j.Run(context.Background())
	if !errors.Is(err, down) || errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want the query's failure", err)
	}
	if st := j.Stats(); queries != 1 || st.Errors != 1 || st.Docs != 10 {
		t.Fatalf("%d queries, stats %+v; want 1 query, 1 error, 10 docs", queries, st)
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

// TestObserveStudyClassifiesOutcome: a study either completes or fails; a
// cancelled or timed-out study is a failure like a backend error.
func TestObserveStudyClassifiesOutcome(t *testing.T) {
	var c counters
	c.observeStudy(SelfJoinStats{}, nil)
	c.observeStudy(SelfJoinStats{}, context.Canceled)
	c.observeStudy(SelfJoinStats{}, fmt.Errorf("wrapped: %w", context.DeadlineExceeded))
	c.observeStudy(SelfJoinStats{Errors: 2}, errors.New("backend exploded"))
	if got := c.studiesCompleted.Load(); got != 1 {
		t.Fatalf("completed %d, want 1", got)
	}
	if got := c.studiesFailed.Load(); got != 3 {
		t.Fatalf("failed %d, want 3", got)
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
