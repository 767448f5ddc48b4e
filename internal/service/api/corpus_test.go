package api

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/service"
)

func postNDJSON(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/v1/corpus/bulk", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

func TestCorpusBulkNDJSON(t *testing.T) {
	ts, _ := newTestServer(t)
	var sb strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&sb, `{"id": "src-%d", "source": "contract C%d { uint x; function f() public { x = %d; } }"}`+"\n", i, i, i)
	}
	// Pre-fingerprinted entries skip parsing entirely.
	sb.WriteString(`{"id": "pre-1", "fingerprint": "QsRtYuIoPlKjHgFdSaZx.WqErTyUiOp"}` + "\n")
	resp, body := postNDJSON(t, ts.URL, sb.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, body)
	}
	if body["added"].(float64) != 11 || body["malformed"] != nil && body["malformed"].(float64) != 0 {
		t.Fatalf("bulk response: %v", body)
	}
	if body["size"].(float64) != 11 {
		t.Fatalf("corpus size %v, want 11", body["size"])
	}
	// The ingested entries are matchable.
	_, m := post(t, ts.URL+"/v1/match", map[string]any{"fingerprint": "QsRtYuIoPlKjHgFdSaZx.WqErTyUiOp"})
	found := false
	for _, raw := range m["matches"].([]any) {
		if raw.(map[string]any)["id"] == "pre-1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("pre-fingerprinted entry not matchable: %v", m)
	}
}

func TestCorpusBulkMalformedLines(t *testing.T) {
	ts, _ := newTestServer(t)
	body := strings.Join([]string{
		`{"id": "good-1", "source": "contract A { uint x; function f() public { x = 1; } }"}`,
		`this is not json`,
		`{"source": "contract B {}"}`, // missing id
		`{"id": "no-content"}`,        // missing source and fingerprint
		``,                            // blank lines are skipped silently
		`{"id": "good-2", "source": "contract B { uint y; function g() public { y = 2; } }"}`,
	}, "\n") + "\n"
	resp, got := postNDJSON(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, got)
	}
	if got["added"].(float64) != 2 {
		t.Errorf("added %v, want 2", got["added"])
	}
	if got["malformed"].(float64) != 3 {
		t.Errorf("malformed %v, want 3", got["malformed"])
	}
	errs := got["errors"].([]any)
	if len(errs) != 3 {
		t.Fatalf("errors %v, want 3 entries", errs)
	}
	for i, want := range []string{"line 2: bad JSON", "line 3: missing id", "line 4: missing source or fingerprint"} {
		if !strings.HasPrefix(errs[i].(string), want) {
			t.Errorf("error %d = %q, want prefix %q", i, errs[i], want)
		}
	}
	if got["size"].(float64) != 2 {
		t.Errorf("size %v, want 2", got["size"])
	}
}

// TestCorpusBulkPersistFailureAccounting: when the WAL dies mid-stream, the
// 500 response must still carry the exact per-entry accounting — the lines
// journaled before the failure count as added, the rest as persist failures,
// and a duplicate-free boot replay would reproduce precisely the added set.
func TestCorpusBulkPersistFailureAccounting(t *testing.T) {
	engine := service.New(service.Options{Workers: 2})
	store, err := service.OpenStore(t.TempDir(), engine.Corpus())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(engine, WithStore(store)).Handler())
	defer ts.Close()

	// First stream lands durably.
	resp, got := postNDJSON(t, ts.URL,
		`{"id": "a", "fingerprint": "QsRtYuIoPlKjHgFdSaZx.WqErTyUiOp"}`+"\n"+
			`{"id": "b", "fingerprint": "QsRtYuIoPlKjHgFdSaZy.WqErTyUiOq"}`+"\n")
	if resp.StatusCode != http.StatusOK || got["added"].(float64) != 2 {
		t.Fatalf("seed stream: status %d, %v", resp.StatusCode, got)
	}

	// Kill the WAL under the server: every further journaled add fails.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	resp, got = postNDJSON(t, ts.URL,
		`{"id": "c", "fingerprint": "QsRtYuIoPlKjHgFdSaZz.WqErTyUiOr"}`+"\n"+
			`not json at all`+"\n"+
			`{"id": "d", "fingerprint": "QsRtYuIoPlKjHgFdSaZw.WqErTyUiOs"}`+"\n")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if got["added"].(float64) != 0 {
		t.Errorf("added %v entries of a dead-WAL stream, want 0", got["added"])
	}
	if got["persist_failures"].(float64) != 2 {
		t.Errorf("persist_failures %v, want 2", got["persist_failures"])
	}
	if got["malformed"].(float64) != 1 {
		t.Errorf("malformed %v, want 1", got["malformed"])
	}
	if got["error"] == nil || got["error"].(string) == "" {
		t.Error("500 response carries no error detail")
	}
	// The corpus still holds exactly the acknowledged entries.
	if got["size"].(float64) != 2 {
		t.Errorf("size %v, want 2", got["size"])
	}
}

func TestCorpusBulkOversizedLine(t *testing.T) {
	ts, _ := newTestServer(t)
	huge := `{"id": "huge", "source": "` + strings.Repeat("x", maxBulkLineBytes) + `"}`
	resp, got := postNDJSON(t, ts.URL, huge+"\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d (%v), want 400 for oversized line", resp.StatusCode, got)
	}
}

func TestCorpusSnapshotWithoutStore(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, got := post(t, ts.URL+"/v1/corpus/snapshot", map[string]any{})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d (%v), want 409 without -corpus-dir", resp.StatusCode, got)
	}
}

func TestCorpusSnapshotAndInfoWithStore(t *testing.T) {
	engine := service.New(service.Options{Workers: 2})
	store, err := service.OpenStore(t.TempDir(), engine.Corpus())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ts := httptest.NewServer(NewServer(engine, WithStore(store)).Handler())
	defer ts.Close()

	postNDJSON(t, ts.URL, `{"id": "a", "source": "contract A { uint x; function f() public { x = 1; } }"}`+"\n")
	resp, got := post(t, ts.URL+"/v1/corpus/snapshot", map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d: %v", resp.StatusCode, got)
	}
	if got["entries"].(float64) != 1 || got["bytes"].(float64) <= 0 {
		t.Fatalf("snapshot response: %v", got)
	}
	_, info := get(t, ts.URL+"/v1/corpus")
	p, ok := info["persistence"].(map[string]any)
	if !ok {
		t.Fatalf("no persistence block in %v", info)
	}
	if p["snapshots"].(float64) != 1 || p["pending_adds"].(float64) != 0 {
		t.Fatalf("persistence info: %v", p)
	}
}

func TestCorpusExportRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t)
	postNDJSON(t, ts.URL,
		`{"id": "a", "source": "contract A { uint x; function f() public { x = 1; } }"}`+"\n"+
			`{"id": "b", "source": "contract B { uint y; function g() public { y = 2; } }"}`+"\n")

	resp, err := http.Get(ts.URL + "/v1/corpus/export")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	// The exported bytes restore into a fresh corpus with both entries.
	restored := service.NewCorpus(service.New(service.Options{}).Corpus().Config(), 0)
	if err := restored.ReadSnapshot(bytes.NewReader(raw)); err != nil {
		t.Fatalf("restore exported snapshot: %v", err)
	}
	if restored.Len() != 2 {
		t.Fatalf("restored %d entries, want 2", restored.Len())
	}
}
