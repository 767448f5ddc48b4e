package api

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/service"
)

// Golden-file tests pin the HTTP response shapes: any field rename, type
// change or ordering regression in the JSON API shows up as a diff against
// the committed fixture. Regenerate deliberately with
//
//	go test ./internal/service/api -run TestGolden -update
var updateGolden = flag.Bool("update", false, "rewrite golden response fixtures")

// TestGoldenResponses drives a deterministic request sequence against a
// fresh server and compares every (status, body) pair against
// testdata/golden/<name>.json.
func TestGoldenResponses(t *testing.T) {
	ts, _ := newTestServer(t)

	// Seed the corpus first so match queries have something to hit. The
	// response of this call is itself one of the golden cases.
	seed := map[string]any{"entries": []map[string]string{
		{"id": "victim-1", "source": reentrantSrc},
		{"id": "safe-1", "source": benignSrc},
	}}

	cases := []struct {
		name   string
		method string
		path   string
		body   any
	}{
		{"corpus_add", http.MethodPost, "/v1/corpus", seed},
		{"corpus_info", http.MethodGet, "/v1/corpus", nil},
		{"analyze_single", http.MethodPost, "/v1/analyze", map[string]any{"source": reentrantSrc}},
		{"analyze_batch", http.MethodPost, "/v1/analyze", map[string]any{"sources": []string{reentrantSrc, benignSrc}}},
		{"analyze_missing_source", http.MethodPost, "/v1/analyze", map[string]any{}},
		{"fingerprint", http.MethodPost, "/v1/fingerprint", map[string]any{"source": benignSrc}},
		{"match_single", http.MethodPost, "/v1/match", map[string]any{"source": reentrantSrc}},
		{"match_limit", http.MethodPost, "/v1/match", map[string]any{"source": reentrantSrc, "limit": 1}},
		{"match_batch", http.MethodPost, "/v1/match", map[string]any{
			"sources": []string{reentrantSrc, benignSrc},
			"limit":   1,
		}},
		{"match_fingerprint_miss", http.MethodPost, "/v1/match", map[string]any{"fingerprint": "zzzzzzzzzzzz"}},
		{"match_bad_limit", http.MethodPost, "/v1/match", map[string]any{"source": benignSrc, "limit": -1}},
		{"match_mixed_forms", http.MethodPost, "/v1/match", map[string]any{"source": benignSrc, "sources": []string{benignSrc}}},
		// Any backend name but "ccd" is refused, the retired comparison
		// backends included; explain as a query parameter.
		{"match_backend_unknown", http.MethodPost, "/v1/match?backend=ssdeep", map[string]any{"source": benignSrc}},
		{"match_explain", http.MethodPost, "/v1/match?explain=1", map[string]any{"source": reentrantSrc, "limit": 2}},
		// Study-mode validation shapes.
		{"study_bad_mode", http.MethodPost, "/v1/study", map[string]any{"mode": "nope"}},
		{"study_corpus_bad_backend", http.MethodPost, "/v1/study", map[string]any{"mode": "corpus", "backend": "smartembed"}},
		{"study_corpus_bad_limit", http.MethodPost, "/v1/study", map[string]any{"mode": "corpus", "limit": -1}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runGoldenCase(t, ts, tc.name, tc.method, tc.path, tc.body)
		})
	}
	// The clusters of a corpus study over the seeded docs (unrelated: two
	// singletons, no clusters).
	corpusStudy(t, ts.URL, 0)
	t.Run("clusters", func(t *testing.T) {
		runGoldenCase(t, ts, "clusters", http.MethodGet, "/v1/clusters?top=5", nil)
	})
}

// TestGoldenClustersDisabled pins the cluster endpoints' shapes before any
// corpus study has completed.
func TestGoldenClustersDisabled(t *testing.T) {
	ts, _ := newTestServerOpts(t, service.Options{Workers: 4, Shards: 4})
	runGoldenCase(t, ts, "clusters_disabled", http.MethodGet, "/v1/clusters", nil)
	runGoldenCase(t, ts, "clusters_export_disabled", http.MethodGet, "/v1/clusters/export", nil)
}

// TestGoldenOverloadShapes pins the deterministic overload response shapes:
// the rate-limited 429 (retry hint = the limiter's fixed refill interval)
// and the not-ready ingest 503. Admission-shed 429s share the same error
// shape but depend on concurrent timing; TestShedResponseShape covers them.
func TestGoldenOverloadShapes(t *testing.T) {
	limited := NewServer(service.New(service.Options{Workers: 2, Shards: 2}),
		WithRateLimit(0.01, 1)) // burst 1, then a deterministic 100s refill
	lts := httptest.NewServer(limited.Handler())
	t.Cleanup(lts.Close)
	if resp, err := http.Get(lts.URL + "/v1/corpus"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close() // burn the only token
	}
	runGoldenCase(t, lts, "ratelimited", http.MethodGet, "/v1/corpus", nil)

	notReady := NewServer(service.New(service.Options{Workers: 2, Shards: 2}))
	notReady.ready = func() bool { return false }
	nts := httptest.NewServer(notReady.Handler())
	t.Cleanup(nts.Close)
	runGoldenCase(t, nts, "ingest_not_ready", http.MethodPost, "/v1/corpus",
		map[string]any{"entries": []map[string]string{{"id": "x", "source": benignSrc}}})
}

// runGoldenCase issues one request and compares (status, body) against the
// committed fixture, rewriting it under -update.
func runGoldenCase(t *testing.T, ts *httptest.Server, name, method, path string, body any) {
	t.Helper()
	var req *http.Request
	var err error
	if body == nil {
		req, err = http.NewRequest(method, ts.URL+path, nil)
	} else {
		buf, merr := json.Marshal(body)
		if merr != nil {
			t.Fatal(merr)
		}
		req, err = http.NewRequest(method, ts.URL+path, bytes.NewReader(buf))
		req.Header.Set("Content-Type", "application/json")
	}
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := canonicalize(t, resp.StatusCode, raw)

	fixture := filepath.Join("testdata", "golden", name+".json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(fixture), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fixture, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("response shape changed for %s %s.\n got: %s\nwant: %s\n(re-run with -update if intentional)",
			method, path, got, want)
	}
}

// canonicalize renders status + body as stable, indented JSON (object keys
// sorted by encoding/json's map ordering) so fixtures diff cleanly. Randomly
// generated trace ids are masked to a placeholder: the fixtures pin that the
// field is present, not its value.
func canonicalize(t *testing.T, status int, raw []byte) []byte {
	t.Helper()
	var body any
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, raw)
	}
	maskTraceIDs(body)
	out, err := json.MarshalIndent(map[string]any{"status": status, "body": body}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// maskTraceIDs replaces every "trace_id" string value in a decoded JSON
// tree with a fixed placeholder.
func maskTraceIDs(v any) {
	switch n := v.(type) {
	case map[string]any:
		for k, child := range n {
			if k == "trace_id" {
				if _, ok := child.(string); ok {
					n[k] = "TRACE_ID"
					continue
				}
			}
			maskTraceIDs(child)
		}
	case []any:
		for _, child := range n {
			maskTraceIDs(child)
		}
	}
}

// TestMatchLimitAndBatch covers the top-K wire behavior beyond the golden
// shapes: limits truncate, batch results keep request order, and the
// unlimited form returns everything.
func TestMatchLimitAndBatch(t *testing.T) {
	ts, _ := newTestServer(t)
	entries := make([]map[string]string, 8)
	for i := range entries {
		entries[i] = map[string]string{"id": fmt.Sprintf("v-%d", i), "source": reentrantSrc}
	}
	if resp, _ := post(t, ts.URL+"/v1/corpus", map[string]any{"entries": entries}); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed status %d", resp.StatusCode)
	}

	_, body := post(t, ts.URL+"/v1/match", map[string]any{"source": reentrantSrc})
	if n := len(body["matches"].([]any)); n != len(entries) {
		t.Fatalf("unlimited match returned %d of %d", n, len(entries))
	}
	_, body = post(t, ts.URL+"/v1/match", map[string]any{"source": reentrantSrc, "limit": 3})
	ms := body["matches"].([]any)
	if len(ms) != 3 {
		t.Fatalf("limit=3 returned %d matches", len(ms))
	}
	// Ties broken by id ascending: v-0, v-1, v-2.
	for i, m := range ms {
		if id := m.(map[string]any)["id"]; id != fmt.Sprintf("v-%d", i) {
			t.Errorf("match %d: id %v", i, id)
		}
	}

	resp, raw := post(t, ts.URL+"/v1/match", map[string]any{
		"sources": []string{reentrantSrc, benignSrc}, "limit": 2,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	results := raw["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("batch results: %d", len(results))
	}
	if n := len(results[0].(map[string]any)["matches"].([]any)); n != 2 {
		t.Errorf("batch result 0: %d matches, want 2", n)
	}
	if n := len(results[1].(map[string]any)["matches"].([]any)); n != 0 {
		t.Errorf("benign source matched %d entries", n)
	}
}
