package remote

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"

	"repro/internal/ccd"
)

// shardFixture is an in-process fake shard node: it answers
// POST /v1/shard/match over a fixed score list, pruning strictly below the
// shipped bound exactly like the real handler's AtomicBound path.
type shardFixture struct {
	mu     sync.Mutex
	docs   []ccd.Match
	bounds []float64 // bound received per request, in arrival order
	hits   int
}

func (f *shardFixture) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/shard/match" {
			http.NotFound(w, r)
			return
		}
		var req ShardMatchRequest
		body, err := io.ReadAll(r.Body)
		if err == nil {
			err = req.UnmarshalBinary(body)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		f.bounds = append(f.bounds, req.Bound)
		f.hits++
		docs := append([]ccd.Match(nil), f.docs...)
		f.mu.Unlock()
		var resp ShardMatchResponse
		for _, m := range docs {
			resp.Stats.Candidates++
			if req.Bound > 0 && m.Score < req.Bound {
				resp.Stats.CutoffSkipped++
				continue
			}
			resp.Stats.Scored++
			resp.Matches = append(resp.Matches, m)
		}
		sort.Slice(resp.Matches, func(i, j int) bool { return resp.Matches[i].Score > resp.Matches[j].Score })
		if req.K > 0 && len(resp.Matches) > req.K {
			resp.Matches = resp.Matches[:req.K]
		}
		b, err := resp.MarshalBinary()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(b)
	})
}

func startShard(t *testing.T, f *shardFixture) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(f.handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestRouterMergesGlobalTopK(t *testing.T) {
	s0 := &shardFixture{docs: []ccd.Match{{ID: "a", Score: 91}, {ID: "b", Score: 72}, {ID: "c", Score: 55}}}
	s1 := &shardFixture{docs: []ccd.Match{{ID: "d", Score: 88}, {ID: "e", Score: 63}}}
	r := NewRouter(Config{Targets: []string{startShard(t, s0).URL, startShard(t, s1).URL}})

	res, err := r.Match(context.Background(), "fp", 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatal("unexpected partial result")
	}
	want := []string{"a", "d", "b"}
	if len(res.Matches) != len(want) {
		t.Fatalf("got %d matches, want %d: %+v", len(res.Matches), len(want), res.Matches)
	}
	for i, id := range want {
		if res.Matches[i].ID != id {
			t.Errorf("match[%d] = %q, want %q", i, res.Matches[i].ID, id)
		}
	}
}

// TestRouterShipsTightenedBound pins the tentpole mechanism: the second wave
// must receive the bound the first wave's merge established, so remote
// shards prune exactly like local ones sharing an AtomicBound.
func TestRouterShipsTightenedBound(t *testing.T) {
	s0 := &shardFixture{docs: []ccd.Match{{ID: "a", Score: 90}, {ID: "b", Score: 80}, {ID: "c", Score: 70}}}
	s1 := &shardFixture{docs: []ccd.Match{{ID: "d", Score: 75}, {ID: "e", Score: 10}}}
	r := NewRouter(Config{
		Targets: []string{startShard(t, s0).URL, startShard(t, s1).URL},
		Waves:   2, // shard 0 alone in wave 1, shard 1 alone in wave 2
	})

	res, err := r.Match(context.Background(), "fp", 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := []string{res.Matches[0].ID, res.Matches[1].ID}; got[0] != "a" || got[1] != "b" {
		t.Fatalf("top-2 = %v, want [a b]", got)
	}
	if len(s1.bounds) != 1 || s1.bounds[0] != 80 {
		t.Fatalf("second wave received bounds %v, want [80] (the k-th score after wave one)", s1.bounds)
	}
	if s1.bounds[0] > 0 && r.Stats().BoundShipSavings == 0 {
		t.Error("bound-ship savings counter did not move despite a shipped bound pruning candidates")
	}
}

func TestRouterNoBoundShip(t *testing.T) {
	s0 := &shardFixture{docs: []ccd.Match{{ID: "a", Score: 90}, {ID: "b", Score: 80}}}
	s1 := &shardFixture{docs: []ccd.Match{{ID: "d", Score: 75}}}
	r := NewRouter(Config{
		Targets:     []string{startShard(t, s0).URL, startShard(t, s1).URL},
		Waves:       2,
		NoBoundShip: true,
	})
	if _, err := r.Match(context.Background(), "fp", 2); err != nil {
		t.Fatal(err)
	}
	if len(s1.bounds) != 1 || s1.bounds[0] != 0 {
		t.Fatalf("NoBoundShip shipped bounds %v, want [0]", s1.bounds)
	}
}

// TestRouterPropagatesRetryAfter pins the one replica policy under overload:
// a primary pushing back with 429 propagates its backpressure, Retry-After
// intact, and its replica is never asked — the replica serves availability,
// not capacity the primary just refused.
func TestRouterPropagatesRetryAfter(t *testing.T) {
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		_ = json.NewEncoder(w).Encode(map[string]any{"error": "overloaded"})
	}))
	t.Cleanup(busy.Close)
	ok := &shardFixture{docs: []ccd.Match{{ID: "a", Score: 90}}}
	rep := &shardFixture{docs: []ccd.Match{{ID: "a", Score: 90}}}
	r := NewRouter(Config{
		Targets:  []string{busy.URL, startShard(t, ok).URL},
		Replicas: []string{startShard(t, rep).URL},
	})

	_, err := r.Match(context.Background(), "fp", 1)
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("want StatusError, got %v", err)
	}
	if se.Status != http.StatusTooManyRequests || se.RetryAfterSeconds != 7 {
		t.Fatalf("got status %d retry-after %d, want 429/7", se.Status, se.RetryAfterSeconds)
	}
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if rep.hits != 0 {
		t.Fatalf("replica asked %d times, want 0: overload must not fail over", rep.hits)
	}
}

func TestRouterPartialOnDeadShard(t *testing.T) {
	ok := &shardFixture{docs: []ccd.Match{{ID: "a", Score: 90}}}
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from here on
	r := NewRouter(Config{Targets: []string{startShard(t, ok).URL, dead.URL}})

	res, err := r.Match(context.Background(), "fp", 1)
	if err != nil {
		t.Fatalf("one live shard should still answer: %v", err)
	}
	if !res.Partial {
		t.Fatal("want Partial with a dead shard")
	}
	if len(res.Matches) != 1 || res.Matches[0].ID != "a" {
		t.Fatalf("matches = %+v, want the live shard's doc", res.Matches)
	}
	st := r.Stats()
	if st.Partials != 1 {
		t.Errorf("partials counter = %d, want 1", st.Partials)
	}
	if st.ShardErrors[1] == 0 {
		t.Error("dead shard's error counter did not move")
	}
}

// TestRouterPartialOnOldFormatShard: a shard of the JSON format refuses the
// binary request with 400, and a JSON answer does not decode; either way the
// router counts a failed shard request and answers Partial with exactly the
// other partition's matches and funnel, never a mis-merge.
func TestRouterPartialOnOldFormatShard(t *testing.T) {
	oldShards := map[string]http.HandlerFunc{
		"refuses the request": func(w http.ResponseWriter, r *http.Request) {
			var req struct {
				Fingerprint string  `json:"fingerprint"`
				K           int     `json:"k"`
				Bound       float64 `json:"bound"`
			}
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				w.WriteHeader(http.StatusBadRequest)
				_ = json.NewEncoder(w).Encode(map[string]string{"error": "bad request body: " + err.Error()})
				return
			}
			t.Error("a JSON decoder read the binary request")
		},
		"answers in JSON": func(w http.ResponseWriter, r *http.Request) {
			_ = json.NewEncoder(w).Encode(map[string]any{
				"matches": []map[string]any{{"id": "z", "score": 99}},
				"stats":   map[string]int{"candidates": 1, "scored": 1},
			})
		},
	}
	for name, old := range oldShards {
		t.Run(name, func(t *testing.T) {
			ok := &shardFixture{docs: []ccd.Match{{ID: "a", Score: 90}, {ID: "b", Score: 80}}}
			oldSrv := httptest.NewServer(old)
			t.Cleanup(oldSrv.Close)
			r := NewRouter(Config{Targets: []string{startShard(t, ok).URL, oldSrv.URL}})

			res, err := r.Match(context.Background(), "fp", 3)
			if err != nil || !res.Partial {
				t.Fatalf("partial %v, err %v; want a partial answer", res.Partial, err)
			}
			if len(res.Matches) != 2 || res.Matches[0] != ok.docs[0] || res.Matches[1] != ok.docs[1] {
				t.Errorf("matches %+v, want exactly the live partition's %+v", res.Matches, ok.docs)
			}
			if res.Stats.Candidates != 2 || res.Stats.Scored != 2 {
				t.Errorf("funnel %+v, want the live partition's alone", res.Stats)
			}
			if errs := r.Stats().ShardErrors; errs[0] != 0 || errs[1] != 1 {
				t.Errorf("shard errors %v, want [0 1]", errs)
			}
		})
	}
}

func TestRouterAllShardsDeadErrors(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	r := NewRouter(Config{Targets: []string{dead.URL}})
	if _, err := r.Match(context.Background(), "fp", 1); err == nil {
		t.Fatal("want an error when every shard is down")
	}
}

func TestRouterFailsOverToReplica(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	rep := &shardFixture{docs: []ccd.Match{{ID: "a", Score: 90}}}
	r := NewRouter(Config{
		Targets:  []string{dead.URL},
		Replicas: []string{startShard(t, rep).URL},
	})
	res, err := r.Match(context.Background(), "fp", 1)
	if err != nil {
		t.Fatalf("replica should cover the dead primary: %v", err)
	}
	if res.Partial || len(res.Matches) != 1 {
		t.Fatalf("got partial=%v matches=%+v, want a full answer from the replica", res.Partial, res.Matches)
	}
}

// TestCloneQueryFailsOnPartialAnswer: a clone-study query that a partition
// did not answer is an error, not a short answer, so the study fails the
// partition instead of silently dropping its edges.
func TestCloneQueryFailsOnPartialAnswer(t *testing.T) {
	s0 := &shardFixture{docs: []ccd.Match{{ID: "a", Score: 91}}}
	dead := startShard(t, &shardFixture{})
	r := NewRouter(Config{Targets: []string{startShard(t, s0).URL, dead.URL}})
	dead.Close()

	res, err := r.Match(context.Background(), "fp", 3)
	if err != nil || !res.Partial {
		t.Fatalf("Match with a dead partition: partial %v, err %v; want a partial answer", res.Partial, err)
	}
	if _, _, err := r.CloneQuery(context.Background(), "fp", 3); err == nil || errors.Is(err, context.Canceled) {
		t.Fatalf("CloneQuery on a partial answer returned %v, want a non-cancellation error", err)
	}
}
