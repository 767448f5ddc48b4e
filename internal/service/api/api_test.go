package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ccd"
	"repro/internal/service"
)

const (
	reentrantSrc = `contract Victim {
	mapping(address => uint) balances;
	function withdraw() public {
		msg.sender.call{value: balances[msg.sender]}("");
		balances[msg.sender] = 0;
	}
}`
	benignSrc = `contract Safe {
	uint total;
	function deposit(uint amount) public {
		total = total + 1;
	}
}`
)

// newTestServer runs with a pinned shard count, so responses (including the
// golden fixtures) are machine-independent.
func newTestServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	return newTestServerOpts(t, service.Options{Workers: 4, Shards: 4})
}

// addFP ingests one pre-fingerprinted entry through the engine: a batch of
// one.
func addFP(e *service.Engine, id string, fp ccd.Fingerprint) error {
	return e.CorpusAddBatch([]service.CorpusEntry{{ID: id, Fingerprint: fp}})[0]
}

func newTestServerOpts(t *testing.T, opts service.Options) (*httptest.Server, *Server) {
	t.Helper()
	s := NewServer(service.New(opts))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s
}

func post(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

func get(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

func decodeBody(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return m
}

func TestHandlersTableDriven(t *testing.T) {
	ts, _ := newTestServer(t)
	tests := []struct {
		name       string
		method     string
		path       string
		body       any
		wantStatus int
		check      func(t *testing.T, m map[string]any)
	}{
		{
			name: "analyze single vulnerable", method: "POST", path: "/v1/analyze",
			body:       map[string]any{"source": reentrantSrc},
			wantStatus: 200,
			check: func(t *testing.T, m map[string]any) {
				if len(m["findings"].([]any)) == 0 {
					t.Error("expected findings")
				}
				cats := m["categories"].([]any)
				found := false
				for _, c := range cats {
					if c == "Reentrancy" {
						found = true
					}
				}
				if !found {
					t.Errorf("categories missing Reentrancy: %v", cats)
				}
				if m["key"] == "" {
					t.Error("missing content key")
				}
			},
		},
		{
			name: "analyze single benign", method: "POST", path: "/v1/analyze",
			body:       map[string]any{"source": benignSrc},
			wantStatus: 200,
			check: func(t *testing.T, m map[string]any) {
				if n := len(m["findings"].([]any)); n != 0 {
					t.Errorf("benign source produced %d findings", n)
				}
			},
		},
		{
			name: "analyze batch", method: "POST", path: "/v1/analyze",
			body:       map[string]any{"sources": []string{reentrantSrc, benignSrc}},
			wantStatus: 200,
			check: func(t *testing.T, m map[string]any) {
				results := m["results"].([]any)
				if len(results) != 2 {
					t.Fatalf("results: %d", len(results))
				}
				first := results[0].(map[string]any)
				second := results[1].(map[string]any)
				if len(first["findings"].([]any)) == 0 {
					t.Error("batch[0] should be vulnerable")
				}
				if len(second["findings"].([]any)) != 0 {
					t.Error("batch[1] should be clean")
				}
			},
		},
		{
			name: "analyze empty request", method: "POST", path: "/v1/analyze",
			body:       map[string]any{},
			wantStatus: 400,
		},
		{
			name: "analyze unknown field", method: "POST", path: "/v1/analyze",
			body:       map[string]any{"sauce": "typo"},
			wantStatus: 400,
		},
		{
			// A shard request carries its budget only in X-Request-Timeout:
			// the binary body has no budget field, and an old-format JSON
			// body that names one opens with '{', an unknown version byte.
			name: "shard match budget field", method: "POST", path: "/v1/shard/match",
			body:       map[string]any{"fingerprint": "QxRtYuIoP", "k": 1, "budget_ms": 1000},
			wantStatus: 400,
		},
		{
			name: "fingerprint", method: "POST", path: "/v1/fingerprint",
			body:       map[string]any{"source": reentrantSrc},
			wantStatus: 200,
			check: func(t *testing.T, m map[string]any) {
				if m["fingerprint"] == "" {
					t.Error("empty fingerprint")
				}
				if m["sub_fingerprints"].(float64) < 1 {
					t.Error("no sub-fingerprints")
				}
			},
		},
		{
			name: "fingerprint missing source", method: "POST", path: "/v1/fingerprint",
			body:       map[string]any{},
			wantStatus: 400,
		},
		{
			name: "corpus add missing id", method: "POST", path: "/v1/corpus",
			body:       map[string]any{"entries": []map[string]any{{"source": benignSrc}}},
			wantStatus: 400,
		},
		{
			name: "match without corpus", method: "POST", path: "/v1/match",
			body:       map[string]any{"source": benignSrc},
			wantStatus: 200,
			check: func(t *testing.T, m map[string]any) {
				if n := len(m["matches"].([]any)); n != 0 {
					t.Errorf("empty corpus matched %d", n)
				}
			},
		},
		{
			name: "match no input", method: "POST", path: "/v1/match",
			body:       map[string]any{},
			wantStatus: 400,
		},
		{
			name: "study scale too large", method: "POST", path: "/v1/study",
			body:       map[string]any{"scale": 5.0},
			wantStatus: 400,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			resp, m := post(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %v)", resp.StatusCode, tc.wantStatus, m)
			}
			if tc.check != nil {
				tc.check(t, m)
			}
		})
	}
}

func TestCorpusIngestThenMatch(t *testing.T) {
	ts, _ := newTestServer(t)
	entries := []map[string]any{
		{"id": "vuln-1", "source": reentrantSrc},
		{"id": "safe-1", "source": benignSrc},
	}
	resp, m := post(t, ts.URL+"/v1/corpus", map[string]any{"entries": entries})
	if resp.StatusCode != 200 {
		t.Fatalf("ingest: %d %v", resp.StatusCode, m)
	}
	if m["added"].(float64) != 2 || m["size"].(float64) != 2 {
		t.Fatalf("ingest response: %v", m)
	}

	resp, m = post(t, ts.URL+"/v1/match", map[string]any{"source": reentrantSrc})
	if resp.StatusCode != 200 {
		t.Fatalf("match: %d", resp.StatusCode)
	}
	matches := m["matches"].([]any)
	if len(matches) == 0 {
		t.Fatal("no matches for indexed source")
	}
	best := matches[0].(map[string]any)
	if best["id"] != "vuln-1" {
		t.Errorf("best match %v, want vuln-1", best["id"])
	}
	if best["score"].(float64) < 90 {
		t.Errorf("identical source should score high: %v", best)
	}

	_, info := get(t, ts.URL+"/v1/corpus")
	if info["size"].(float64) != 2 {
		t.Errorf("corpus info: %v", info)
	}
}

// TestConcurrentBatchAnalyzeAndMatch exercises the acceptance criterion:
// concurrent batch /v1/analyze and /v1/match requests against one engine,
// meaningful under -race.
func TestConcurrentBatchAnalyzeAndMatch(t *testing.T) {
	ts, _ := newTestServer(t)
	// Seed the corpus first.
	var entries []map[string]any
	for i := 0; i < 10; i++ {
		entries = append(entries, map[string]any{"id": fmt.Sprintf("c%d", i), "source": reentrantSrc})
	}
	if resp, m := post(t, ts.URL+"/v1/corpus", map[string]any{"entries": entries}); resp.StatusCode != 200 {
		t.Fatalf("ingest: %v", m)
	}

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan string, clients*2)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			batch := map[string]any{"sources": []string{reentrantSrc, benignSrc, reentrantSrc}}
			buf, _ := json.Marshal(batch)
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(buf))
			if err != nil {
				errs <- err.Error()
				return
			}
			var m map[string]any
			json.NewDecoder(resp.Body).Decode(&m)
			resp.Body.Close()
			if resp.StatusCode != 200 || len(m["results"].([]any)) != 3 {
				errs <- fmt.Sprintf("client %d: analyze status %d", c, resp.StatusCode)
			}
		}(c)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf, _ := json.Marshal(map[string]any{"source": reentrantSrc})
			resp, err := http.Post(ts.URL+"/v1/match", "application/json", bytes.NewReader(buf))
			if err != nil {
				errs <- err.Error()
				return
			}
			var m map[string]any
			json.NewDecoder(resp.Body).Decode(&m)
			resp.Body.Close()
			if resp.StatusCode != 200 || len(m["matches"].([]any)) != 10 {
				errs <- fmt.Sprintf("client %d: match status %d", c, resp.StatusCode)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestMetricsReportCacheHits(t *testing.T) {
	ts, _ := newTestServer(t)
	// Same source three times: one miss, two hits.
	for i := 0; i < 3; i++ {
		if resp, _ := post(t, ts.URL+"/v1/analyze", map[string]any{"source": reentrantSrc}); resp.StatusCode != 200 {
			t.Fatalf("analyze %d failed", i)
		}
	}
	resp, m := get(t, ts.URL+"/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	rc := m["report_cache"].(map[string]any)
	if rc["hits"].(float64) != 2 || rc["misses"].(float64) != 1 {
		t.Errorf("report cache hits=%v misses=%v, want 2/1", rc["hits"], rc["misses"])
	}
	rates := m["cache_hit_rates"].(map[string]any)
	if r := rates["report"].(float64); r < 0.66 || r > 0.67 {
		t.Errorf("report hit rate %v, want ~0.667", r)
	}
	eps := m["endpoints"].(map[string]any)
	analyze := eps["POST /v1/analyze"].(map[string]any)
	if analyze["count"].(float64) != 3 {
		t.Errorf("analyze request count %v", analyze["count"])
	}
	if analyze["by_class"].(map[string]any)["2xx"].(float64) != 3 {
		t.Errorf("analyze 2xx count %v", analyze["by_class"])
	}
	if lat := analyze["latency"].(map[string]any); lat["count"].(float64) != 3 {
		t.Errorf("analyze latency count %v", lat["count"])
	}
	if m["workers"].(float64) != 4 {
		t.Errorf("workers %v", m["workers"])
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, m := get(t, ts.URL+"/healthz")
	if resp.StatusCode != 200 || m["status"] != "ok" {
		t.Fatalf("healthz: %d %v", resp.StatusCode, m)
	}
}

func TestStudyJobLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("study job is slow")
	}
	ts, _ := newTestServer(t)
	resp, m := post(t, ts.URL+"/v1/study", map[string]any{"seed": 1, "scale": 0.004})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("start: %d %v", resp.StatusCode, m)
	}
	id, _ := m["id"].(string)
	if !strings.HasPrefix(id, "study-") {
		t.Fatalf("job id %q", id)
	}

	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, m = get(t, ts.URL+"/v1/study/"+id)
		if resp.StatusCode != 200 {
			t.Fatalf("poll: %d", resp.StatusCode)
		}
		switch m["status"] {
		case "done":
			sum := m["summary"].(map[string]any)
			funnel := sum["funnel"].(map[string]any)
			if funnel["UniqueSnippets"].(float64) == 0 {
				t.Errorf("empty funnel: %v", funnel)
			}
			return
		case "failed":
			t.Fatalf("job failed: %v", m["error"])
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish in time")
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestCorpusStudyLifecycle drives the /v1/study corpus mode end to end:
// seed clone groups into the serving corpus, run the corpus-wide study, and
// check the cluster-size distribution plus the /v1/clusters view of that
// study and its NDJSON export agree with the seeded ground truth.
func TestCorpusStudyLifecycle(t *testing.T) {
	ts, _ := newTestServer(t)
	// Three exact clones plus one unrelated doc: one cluster of 3.
	entries := []map[string]string{
		{"id": "clone-a", "source": reentrantSrc},
		{"id": "clone-b", "source": reentrantSrc},
		{"id": "clone-c", "source": reentrantSrc},
		{"id": "other-1", "source": benignSrc},
	}
	if resp, m := post(t, ts.URL+"/v1/corpus", map[string]any{"entries": entries}); resp.StatusCode != 200 {
		t.Fatalf("seed: %d %v", resp.StatusCode, m)
	}

	resp, m := post(t, ts.URL+"/v1/study", map[string]any{"mode": "corpus"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("start: %d %v", resp.StatusCode, m)
	}
	id := m["id"].(string)
	deadline := time.Now().Add(time.Minute)
	for {
		resp, m = get(t, ts.URL+"/v1/study/"+id)
		if resp.StatusCode != 200 {
			t.Fatalf("poll: %d", resp.StatusCode)
		}
		if m["status"] == "done" {
			break
		}
		if m["status"] == "failed" {
			t.Fatalf("corpus study failed: %v", m["error"])
		}
		if time.Now().After(deadline) {
			t.Fatal("corpus study did not finish")
		}
		time.Sleep(20 * time.Millisecond)
	}
	sum := m["summary"].(map[string]any)
	if sum["mode"] != "corpus" {
		t.Fatalf("summary mode %v", sum["mode"])
	}
	clone := sum["clone"].(map[string]any)
	if clone["backend"] != "ccd" {
		t.Errorf("clone backend %v", clone["backend"])
	}
	dist := clone["summary"].(map[string]any)
	if dist["docs"].(float64) != 4 || dist["largest"].(float64) != 3 || dist["clusters"].(float64) != 1 {
		t.Fatalf("clone distribution %v, want one 3-cluster over 4 docs", dist)
	}
	if clone["stats"].(map[string]any)["queried"].(float64) != 4 {
		t.Errorf("study stats %v", clone["stats"])
	}
	top := clone["top"].([]any)
	if len(top) != 1 || top[0].(map[string]any)["rep"] != "clone-a" || top[0].(map[string]any)["size"].(float64) != 3 {
		t.Fatalf("top clusters %v", top)
	}

	// /v1/clusters serves that study, current while nothing is ingested.
	_, cl := get(t, ts.URL+"/v1/clusters")
	if cl["enabled"] != true {
		t.Fatalf("clusters response %v", cl)
	}
	if ref := cl["study"].(map[string]any); ref["id"] != id || ref["stale"] != false {
		t.Fatalf("clusters study %v, want %s and not stale", ref, id)
	}
	if !reflect.DeepEqual(cl["summary"], dist) {
		t.Fatalf("clusters summary %v, study %v", cl["summary"], dist)
	}

	// NDJSON export: one line, the 3-cluster with sorted members.
	resp, err := http.Get(ts.URL + "/v1/clusters/export")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("export content type %q", ct)
	}
	var lines []map[string]any
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var c map[string]any
		if err := dec.Decode(&c); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, c)
	}
	if len(lines) != 1 {
		t.Fatalf("export lines %v, want 1 cluster", lines)
	}
	members := lines[0]["members"].([]any)
	if len(members) != 3 || members[0] != "clone-a" || members[2] != "clone-c" {
		t.Fatalf("export members %v", members)
	}

	// min=1 includes the singletons.
	resp2, err := http.Get(ts.URL + "/v1/clusters/export?min=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	n := 0
	dec = json.NewDecoder(resp2.Body)
	for dec.More() {
		var c map[string]any
		if err := dec.Decode(&c); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("export min=1 returned %d components, want 2", n)
	}

	// The metrics funnel recorded the study.
	_, metrics := get(t, ts.URL+"/metrics")
	sj := metrics["self_join"].(map[string]any)
	if sj["completed"].(float64) != 1 || sj["docs"].(float64) != 4 {
		t.Fatalf("metrics self_join %v", sj)
	}
}

func TestJobStoreCapAndRetention(t *testing.T) {
	s := newJobStore()
	now := time.Now()
	var ids []string
	for i := 0; i < maxRunningJobs; i++ {
		j, ok := s.start(now)
		if !ok {
			t.Fatalf("start %d refused below cap", i)
		}
		ids = append(ids, j.ID)
	}
	if _, ok := s.start(now); ok {
		t.Fatal("start above cap accepted")
	}
	s.finish(ids[0], &StudySummary{}, nil)
	if _, ok := s.start(now); !ok {
		t.Fatal("start refused after a slot freed")
	}

	// Retention: churn far past the bound; finished jobs get evicted,
	// running ones never do.
	s2 := newJobStore()
	for i := 0; i < maxRetainedJobs+40; i++ {
		j, ok := s2.start(now.Add(time.Duration(i) * time.Second))
		if !ok {
			t.Fatalf("churn start %d refused", i)
		}
		s2.finish(j.ID, nil, fmt.Errorf("x"))
	}
	jobs := s2.list()
	if len(jobs) > maxRetainedJobs {
		t.Fatalf("retained %d jobs, bound %d", len(jobs), maxRetainedJobs)
	}
	// Newest first, and the newest job survived the pruning.
	if jobs[0].ID != fmt.Sprintf("study-%d", maxRetainedJobs+40) {
		t.Fatalf("newest job missing: %s", jobs[0].ID)
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Created.After(jobs[i-1].Created) {
			t.Fatalf("list not newest-first at %d", i)
		}
	}
}

func TestStudyUnknownJob(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, _ := get(t, ts.URL+"/v1/study/study-999")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}
