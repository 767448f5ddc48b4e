package service_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/ccd"
	"repro/internal/dataset"
	"repro/internal/remote"
	"repro/internal/service"
	"repro/internal/service/api"
)

// shardNodes starts n partition-pinned shard nodes, fills each with the
// entries its ring partition owns and returns their base URLs. Each node
// holds a single generation-shard, so what it scores depends on the shipped
// bound alone.
func shardNodes(t *testing.T, n int, cfg ccd.Config, entries []ccd.Entry) []string {
	t.Helper()
	ring := remote.NewRing(n)
	targets := make([]string, n)
	engines := make([]*service.Engine, n)
	for i := range engines {
		engines[i] = service.New(service.Options{Workers: 2, Shards: 1, CCD: cfg})
		ts := httptest.NewServer(api.NewServer(engines[i], api.WithPartition(i, n)).Handler())
		t.Cleanup(ts.Close)
		targets[i] = ts.URL
	}
	for _, e := range entries {
		if err := engines[ring.Owner(e.ID)].Corpus().Add(e.ID, e.FP); err != nil {
			t.Fatal(err)
		}
	}
	return targets
}

// TestPlateauTiesEveryPartitionKind: on both tie-plateau fixtures, every
// partition layout Gather runs over answers every k with exactly the first k
// matches of the sorted single-corpus reference, every id included — local
// generation-shards (1/2/3/5/8, heap and mapped) and 1–3 remote shard nodes
// under 1–3 waves.
func TestPlateauTiesEveryPartitionKind(t *testing.T) {
	for name, fixture := range map[string]func() (ccd.Fingerprint, []ccd.Entry){
		"single-sub": service.TieAtBoundFixture,
		"multi-sub":  service.MultiSubTieFixture,
	} {
		query, entries := fixture()
		single := ccd.NewCorpus(ccd.DefaultConfig)
		for _, e := range entries {
			single.Add(e.ID, e.FP)
		}
		reference := single.MatchTopK(query, 0)
		check := func(layout string, match func(k int) ([]ccd.Match, error)) {
			t.Helper()
			for k := 0; k <= len(reference)+1; k++ {
				want := reference
				if k > 0 && k < len(want) {
					want = want[:k]
				}
				got, err := match(k)
				if err != nil {
					t.Fatalf("%s, %s, k=%d: %v", name, layout, k, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, %s, k=%d:\n got %v\nwant %v", name, layout, k, got, want)
				}
			}
		}

		for _, shards := range []int{1, 2, 3, 5, 8} {
			heap := service.NewCorpus(ccd.DefaultConfig, shards)
			if err := heap.AddBatch(context.Background(), entries); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), service.SnapshotFile)
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := heap.WriteSnapshot(f); err != nil {
				t.Fatal(err)
			}
			f.Close()
			mapped := service.NewCorpus(ccd.DefaultConfig, shards)
			if err := mapped.OpenSnapshotFile(path); err != nil {
				t.Fatal(err)
			}
			for kind, c := range map[string]*service.Corpus{"heap": heap, "mapped": mapped} {
				check(fmt.Sprintf("%s shards=%d", kind, shards), func(k int) ([]ccd.Match, error) {
					ms, _, err := c.MatchTopKCtx(context.Background(), query, k, nil)
					return ms, err
				})
			}
		}

		for nodes := 1; nodes <= 3; nodes++ {
			targets := shardNodes(t, nodes, ccd.DefaultConfig, entries)
			for waves := 1; waves <= 3; waves++ {
				router := remote.NewRouter(remote.Config{Targets: targets, Waves: waves, Epsilon: ccd.DefaultConfig.Epsilon})
				check(fmt.Sprintf("nodes=%d waves=%d", nodes, waves), func(k int) ([]ccd.Match, error) {
					res, err := router.Match(context.Background(), string(query), k)
					if res.Partial {
						return nil, fmt.Errorf("partial answer (err %v)", err)
					}
					return res.Matches, err // a degraded answer is ErrBudgetExhausted
				})
			}
		}
	}
}

// TestBoundShippingHalvesScoring is the bound-shipping gate: a router over
// eight shard nodes, asked in eight sequential waves so every node after the
// first receives the bound the earlier ones established, scores at most half
// the candidates per top-10 query that the same router does with NoBoundShip.
// It fails whenever the bound stops reaching the shards. Each node runs one
// generation-shard, so both sides repeat exactly.
func TestBoundShippingHalvesScoring(t *testing.T) {
	const nodes, docs, queries = 8, 1200, 16
	hp := dataset.GenerateHoneypots(3)
	m := dataset.NewMutator(17)
	entries := make([]ccd.Entry, docs)
	for i := range entries {
		src := hp[i%len(hp)].Source
		if i >= len(hp) {
			src = m.Mutate(src, 1+i%3)
		}
		fp, _ := ccd.FingerprintSource(src) // partial fingerprints still index
		entries[i] = ccd.Entry{ID: fmt.Sprintf("doc-%d", i), FP: fp}
	}
	targets := shardNodes(t, nodes, ccd.DefaultConfig, entries)

	scored := func(noBoundShip bool) int {
		router := remote.NewRouter(remote.Config{
			Targets: targets, Waves: nodes, NoBoundShip: noBoundShip, Epsilon: ccd.DefaultConfig.Epsilon,
		})
		total := 0
		for _, e := range entries[:queries] {
			res, err := router.Match(context.Background(), string(e.FP), 10)
			if err != nil || res.Partial || len(res.Matches) == 0 {
				t.Fatalf("query %s: %d matches, partial=%v, err %v", e.ID, len(res.Matches), res.Partial, err)
			}
			total += res.Stats.Scored
		}
		return total
	}
	shipped, free := scored(false), scored(true)
	t.Logf("scored per query: shipped bound %.1f, no bound %.1f (%.2fx)",
		float64(shipped)/queries, float64(free)/queries, float64(free)/float64(shipped))
	if free < 2*shipped {
		t.Fatalf("bound shipping scored %d candidates over %d queries, no bound %d: want at least 2x fewer", shipped, queries, free)
	}
}
