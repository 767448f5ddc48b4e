package api

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/ccd"
	"repro/internal/service"
)

// studyFingerprints builds a deterministic 10k-document corpus of clone
// groups (long per-group bases, exact and one-edit members, interleaved
// ids) — the seeded corpus of the online≡offline acceptance test.
func studyFingerprints(seed int64, docs int) []ccd.Entry {
	rng := rand.New(rand.NewSource(seed))
	alphabet := []byte("QxRtYuIoPAbCdEfGhZvNmWqSjKl")
	entries := make([]ccd.Entry, 0, docs)
	for len(entries) < docs {
		base := make([]byte, 36+rng.Intn(12))
		for i := range base {
			base[i] = alphabet[rng.Intn(len(alphabet))]
		}
		size := 1 + rng.Intn(6)
		for m := 0; m < size && len(entries) < docs; m++ {
			fp := append([]byte(nil), base...)
			if m%3 == 1 {
				fp[rng.Intn(len(fp))] = alphabet[rng.Intn(len(alphabet))]
			}
			entries = append(entries, ccd.Entry{ID: fmt.Sprintf("doc-%05d", len(entries)), FP: ccd.Fingerprint(fp)})
		}
	}
	rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	return entries
}

// TestCorpusStudy10kOnlineEqualsOffline is the acceptance-criteria
// integration test: the corpus-wide study over a 10k-document seeded
// serving corpus, run online through POST /v1/study {"mode": "corpus"}
// (sharded scatter-gather, pooled fan-out, HTTP job machinery), produces a
// cluster-size distribution IDENTICAL to the offline single-shard self-join
// — the same implementation cmd/soddstudy -table study runs — at the same
// η/ε.
func TestCorpusStudy10kOnlineEqualsOffline(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-doc corpus study")
	}
	entries := studyFingerprints(29, 10_000)

	// Offline reference: the exact join cmd/soddstudy's study path performs
	// (experiments.CloneStudy without -service).
	offCorpus := service.NewCorpus(ccd.ConservativeConfig, 1)
	for _, e := range entries {
		if err := offCorpus.Add(e.ID, e.FP); err != nil {
			t.Fatal(err)
		}
	}
	offline := service.NewSelfJoin(offCorpus, 0)
	if err := offline.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	offRep := offline.Report(10)

	// Online: seed the sharded serving corpus and run the study through the
	// HTTP job API at the same η/ε.
	ts, srv := newTestServerOpts(t, service.Options{
		Workers: 4, Shards: 4, CCD: ccd.ConservativeConfig,
	})
	for _, e := range entries {
		if err := addFP(srv.engine, e.ID, e.FP); err != nil {
			t.Fatal(err)
		}
	}
	resp, m := post(t, ts.URL+"/v1/study", map[string]any{"mode": "corpus"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("start: %d %v", resp.StatusCode, m)
	}
	id := m["id"].(string)
	deadline := time.Now().Add(3 * time.Minute)
	for {
		_, m = get(t, ts.URL+"/v1/study/"+id)
		if m["status"] == "done" {
			break
		}
		if m["status"] == "failed" {
			t.Fatalf("online study failed: %v", m["error"])
		}
		if time.Now().After(deadline) {
			t.Fatal("online study did not finish")
		}
		time.Sleep(50 * time.Millisecond)
	}
	clone := m["summary"].(map[string]any)["clone"].(map[string]any)

	// Identical parameters.
	if clone["eta"].(float64) != offRep.Eta || clone["epsilon"].(float64) != offRep.Epsilon {
		t.Fatalf("online η/ε %v/%v, offline %v/%v", clone["eta"], clone["epsilon"], offRep.Eta, offRep.Epsilon)
	}
	// Identical cluster-size distribution, member counts and largest
	// clusters.
	dist := clone["summary"].(map[string]any)
	for field, want := range map[string]int{
		"docs":       offRep.Summary.Docs,
		"clusters":   offRep.Summary.Clusters,
		"singletons": offRep.Summary.Singletons,
		"clustered":  offRep.Summary.Clustered,
		"largest":    offRep.Summary.Largest,
	} {
		if got := int(dist[field].(float64)); got != want {
			t.Errorf("online %s = %d, offline %d", field, got, want)
		}
	}
	gotSizes := map[int]int{}
	for sz, n := range dist["sizes"].(map[string]any) {
		var k int
		fmt.Sscanf(sz, "%d", &k)
		gotSizes[k] = int(n.(float64))
	}
	if !reflect.DeepEqual(gotSizes, offRep.Summary.Sizes) {
		t.Fatalf("online size histogram %v\noffline %v", gotSizes, offRep.Summary.Sizes)
	}
	var gotTop []struct {
		Rep  string
		Size int
	}
	for _, raw := range clone["top"].([]any) {
		c := raw.(map[string]any)
		gotTop = append(gotTop, struct {
			Rep  string
			Size int
		}{c["rep"].(string), int(c["size"].(float64))})
	}
	for i, want := range offRep.Top {
		if i >= len(gotTop) || gotTop[i].Rep != want.Rep || gotTop[i].Size != want.Size {
			t.Fatalf("online top clusters %v\noffline %v", gotTop, offRep.Top)
		}
	}

	// /v1/clusters serves the same clusters: its whole summary equals the
	// offline report's.
	if _, got := getClusters(t, ts.URL); !reflect.DeepEqual(got, asJSON(t, offRep.Summary)) {
		t.Errorf("/v1/clusters summary %v\noffline %+v", got, offRep.Summary)
	}
}
