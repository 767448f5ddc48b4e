package api

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ccd"
	"repro/internal/service"
)

// asJSON round-trips v through JSON into the generic shape get decodes
// response bodies to, so typed values compare against them.
func asJSON(t *testing.T, v any) any {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out any
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// getClusters fetches /v1/clusters and returns its study reference and
// summary, both nil when it reports enabled: false.
func getClusters(t *testing.T, base string) (study, summary map[string]any) {
	t.Helper()
	resp, cl := get(t, base+"/v1/clusters")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s/v1/clusters: status %d %v", base, resp.StatusCode, cl)
	}
	if cl["enabled"] != true {
		return nil, nil
	}
	study, _ = cl["study"].(map[string]any)
	summary, _ = cl["summary"].(map[string]any)
	return study, summary
}

// TestClustersServeTheLastStudy: /v1/clusters answers from the last
// completed corpus study and says when the corpus has moved past it. A
// snapshot changes no document and leaves the study current; a supersede
// that breaks a clone pair leaves the pair clustered but stale until the
// next study, which reports two singletons; after a restart over the same
// store nothing is served until a study has run, and then exactly that
// study, and an export cursor from before the restart is refused even when
// a new study reuses its id.
func TestClustersServeTheLastStudy(t *testing.T) {
	dir := t.TempDir()
	open := func() (*httptest.Server, *Server, *service.Store) {
		engine := service.New(service.Options{Workers: 2, Shards: 2})
		store, err := service.OpenStore(dir, engine.Corpus())
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(engine, WithStore(store))
		return httptest.NewServer(srv.Handler()), srv, store
	}
	clone := ccd.Fingerprint("QxRtYuIoPAbCdEfGhZvNmQwErTyUiOpQxRtYu")
	ts, srv, store := open()
	for _, id := range []string{"a", "b"} {
		if err := addFP(srv.engine, id, clone); err != nil {
			t.Fatal(err)
		}
	}
	if study, sum := getClusters(t, ts.URL); study != nil || sum != nil {
		t.Fatalf("clusters before any study: %v %v", study, sum)
	}
	_, pair := corpusStudy(t, ts.URL, 0)
	if pair["clusters"] != 1.0 || pair["largest"] != 2.0 {
		t.Fatalf("study over two clones: %v", pair)
	}
	if study, sum := getClusters(t, ts.URL); study["id"] != "study-1" || study["stale"] != false || !reflect.DeepEqual(sum, pair) {
		t.Fatalf("after study-1: study %v summary %v, want study-1 current with %v", study, sum, pair)
	}
	if resp, body := post(t, ts.URL+"/v1/corpus/snapshot", map[string]any{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d %v", resp.StatusCode, body)
	}
	if study, _ := getClusters(t, ts.URL); study["stale"] != false {
		t.Fatalf("after a snapshot: study %v, want study-1 current", study)
	}

	// Re-ingesting b with an unrelated fingerprint supersedes it.
	if err := addFP(srv.engine, "b", ccd.Fingerprint("ZmNvBqWsEdRfTgYhUjMkOlPaZmNvBqWsEdRf")); err != nil {
		t.Fatal(err)
	}
	if study, sum := getClusters(t, ts.URL); study["stale"] != true || !reflect.DeepEqual(sum, pair) {
		t.Fatalf("after supersede: study %v summary %v, want study-1 stale", study, sum)
	}
	_, split := corpusStudy(t, ts.URL, 0)
	if split["docs"] != 2.0 || split["singletons"] != 2.0 || split["clusters"] != 0.0 {
		t.Fatalf("study after supersede: %v, want two singletons", split)
	}
	if study, sum := getClusters(t, ts.URL); study["id"] != "study-2" || study["stale"] != false || !reflect.DeepEqual(sum, split) {
		t.Fatalf("after study-2: study %v summary %v, want study-2 current with %v", study, sum, split)
	}
	resp, err := http.Get(ts.URL + "/v1/clusters/export?min=1&limit=1")
	if err != nil {
		t.Fatal(err)
	}
	decodeClusterIDs(t, resp)
	oldCursor := resp.Header.Get("X-Next-Cursor")
	if oldCursor == "" {
		t.Fatal("export of two singletons at limit=1 gave no cursor")
	}

	// Restart over the same directory: the WAL replays the corpus, but no
	// study has run in this process.
	ts.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	ts, _, store = open()
	defer store.Close()
	defer ts.Close()
	if study, sum := getClusters(t, ts.URL); study != nil || sum != nil {
		t.Fatalf("clusters after restart: %v %v, want none before a study", study, sum)
	}
	resp, err = http.Get(ts.URL + "/v1/clusters/export")
	if err != nil {
		t.Fatal(err)
	}
	body := decodeBody(t, resp)
	if resp.StatusCode != http.StatusConflict || !strings.Contains(body["error"].(string), `POST /v1/study {"mode":"corpus"}`) {
		t.Fatalf("export before a study: %d %v", resp.StatusCode, body)
	}
	_, again := corpusStudy(t, ts.URL, 0)
	if !reflect.DeepEqual(again, split) {
		t.Fatalf("study after restart %v, before %v", again, split)
	}
	if study, sum := getClusters(t, ts.URL); study["stale"] != false || !reflect.DeepEqual(sum, again) {
		t.Fatalf("after restart and study: study %v summary %v, want %v", study, sum, again)
	}
	// The second study of this process is study-2 again, but not the one
	// the old cursor walked.
	corpusStudy(t, ts.URL, 0)
	if study, _ := getClusters(t, ts.URL); study["id"] != "study-2" {
		t.Fatalf("second study after restart: %v, want the reused id study-2", study)
	}
	resp, err = http.Get(ts.URL + "/v1/clusters/export?cursor=" + oldCursor)
	if err != nil {
		t.Fatal(err)
	}
	if body := decodeBody(t, resp); resp.StatusCode != http.StatusConflict {
		t.Fatalf("cursor from before the restart: %d %v, want 409", resp.StatusCode, body)
	}
}

func TestClustersExportCursorPagination(t *testing.T) {
	ts, srv := newTestServerOpts(t, service.Options{Workers: 2, Shards: 2})
	// Three clone groups of different sizes; identical fingerprints cluster.
	for g, size := range []int{4, 3, 2} {
		fp := ccd.Fingerprint(strings.Repeat(fmt.Sprintf("Qw%dEr", g), 6))
		for m := 0; m < size; m++ {
			if err := addFP(srv.engine, fmt.Sprintf("g%d-m%d", g, m), fp); err != nil {
				t.Fatal(err)
			}
		}
	}
	corpusStudy(t, ts.URL, 0)

	full := exportClusterIDs(t, ts.URL+"/v1/clusters/export?min=2")
	if len(full) < 3 {
		t.Fatalf("expected at least 3 clusters unpaginated, got %d", len(full))
	}

	var paged []string
	cursor, pages := "", 0
	for {
		url := ts.URL + "/v1/clusters/export?min=2&limit=1"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		ids := decodeClusterIDs(t, resp)
		paged = append(paged, ids...)
		cursor = resp.Header.Get("X-Next-Cursor")
		pages++
		if cursor == "" {
			break
		}
		if pages > 10 {
			t.Fatal("cluster cursor never terminated")
		}
	}
	if pages < 3 {
		t.Fatalf("limit=1 over %d clusters walked only %d pages", len(full), pages)
	}
	if !reflect.DeepEqual(paged, full) {
		t.Fatalf("paginated clusters %v != streamed %v", paged, full)
	}

	// A walk never mixes two studies: once a newer study completes, the
	// older walk's cursor is refused.
	resp, err := http.Get(ts.URL + "/v1/clusters/export?min=2&limit=1")
	if err != nil {
		t.Fatal(err)
	}
	decodeClusterIDs(t, resp)
	cursor = resp.Header.Get("X-Next-Cursor")
	corpusStudy(t, ts.URL, 0)
	resp, err = http.Get(ts.URL + "/v1/clusters/export?cursor=" + cursor)
	if err != nil {
		t.Fatal(err)
	}
	if body := decodeBody(t, resp); resp.StatusCode != http.StatusConflict || !strings.Contains(body["error"].(string), "study-2") {
		t.Fatalf("cursor across studies: %d %v, want 409 naming study-2", resp.StatusCode, body)
	}
}

func exportClusterIDs(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return decodeClusterIDs(t, resp)
}

func decodeClusterIDs(t *testing.T, resp *http.Response) []string {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clusters export: status %d", resp.StatusCode)
	}
	var ids []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var c struct {
			Rep string `json:"rep"`
		}
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, c.Rep)
	}
	return ids
}
