package api

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/ccd"
	"repro/internal/remote"
	"repro/internal/service"
)

// cluster is a full in-process multi-node topology: N partition-pinned shard
// servers plus one router server fanning out over them.
type testCluster struct {
	router   *httptest.Server
	shards   []*httptest.Server
	shardSrv []*Server
}

func newTestCluster(t *testing.T, n int, cfg remote.Config) *testCluster {
	t.Helper()
	c := &testCluster{}
	for i := 0; i < n; i++ {
		engine := service.New(service.Options{Workers: 2, Shards: 2, CCD: ccd.ConservativeConfig})
		srv := NewServer(engine, WithPartition(i, n))
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		c.shards = append(c.shards, ts)
		c.shardSrv = append(c.shardSrv, srv)
		cfg.Targets = append(cfg.Targets, ts.URL)
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = ccd.ConservativeConfig.Epsilon
	}
	router := remote.NewRouter(cfg)
	rsrv := NewServer(service.New(service.Options{Workers: 2, CCD: ccd.ConservativeConfig}), WithRouter(router))
	c.router = httptest.NewServer(rsrv.Handler())
	t.Cleanup(c.router.Close)
	return c
}

// ingestBulk streams fingerprints through the router's NDJSON bulk route,
// which groups lines by ring owner and ships each group to its shard.
func (c *testCluster) ingestBulk(t *testing.T, entries []ccd.Entry) BulkResponse {
	t.Helper()
	var sb strings.Builder
	for _, e := range entries {
		line, _ := json.Marshal(BulkEntry{ID: e.ID, Fingerprint: string(e.FP)})
		sb.Write(line)
		sb.WriteByte('\n')
	}
	resp, err := http.Post(c.router.URL+"/v1/corpus/bulk", "application/x-ndjson", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bulk through router: status %d", resp.StatusCode)
	}
	var br BulkResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	return br
}

type wireMatch struct {
	ID    string
	Score float64
}

type wireMatchResponse struct {
	Matches []wireMatch `json:"matches"`
	Partial bool        `json:"partial"`
}

func matchFP(t *testing.T, base string, fp ccd.Fingerprint, k int) (wireMatchResponse, *http.Response) {
	t.Helper()
	buf, _ := json.Marshal(map[string]any{"fingerprint": string(fp), "limit": k})
	resp, err := http.Post(base+"/v1/match", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out wireMatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out, resp
}

// TestDistributedMatchEqualsSingleProcess is the partition-equivalence
// property test: the router's scatter-gather over partition-pinned shard
// nodes must return exactly the single-process MatchTopK answer — same ids,
// same scores, same order — across k sweeps. This is the correctness
// contract that lets the shipped admission bound prune remotely: the k-th
// best of any subset never exceeds the global k-th score.
func TestDistributedMatchEqualsSingleProcess(t *testing.T) {
	entries := studyFingerprints(11, 600)
	c := newTestCluster(t, 3, remote.Config{Waves: 2})
	if br := c.ingestBulk(t, entries); br.Added != len(entries) || br.Skipped != 0 {
		t.Fatalf("router bulk: added %d skipped %d of %d", br.Added, br.Skipped, len(entries))
	}

	single, singleSrv := newTestServerOpts(t, service.Options{Workers: 2, Shards: 4, CCD: ccd.ConservativeConfig})
	for _, e := range entries {
		if err := addFP(singleSrv.engine, e.ID, e.FP); err != nil {
			t.Fatal(err)
		}
	}

	for qi := 0; qi < 25; qi++ {
		q := entries[qi*17%len(entries)]
		for _, k := range []int{1, 2, 3, 5, 10} {
			want, _ := matchFP(t, single.URL, q.FP, k)
			got, _ := matchFP(t, c.router.URL, q.FP, k)
			if got.Partial {
				t.Fatalf("unexpected partial (q=%s k=%d)", q.ID, k)
			}
			if !reflect.DeepEqual(got.Matches, want.Matches) {
				t.Fatalf("distributed != single-process for q=%s k=%d:\n got %+v\nwant %+v",
					q.ID, k, got.Matches, want.Matches)
			}
		}
	}

	// Every request form answers with the same status and body on both
	// roles: sources (parsing, with parse issues, or with an empty
	// fingerprint), a batch mixing sources and fingerprints, and explain=1,
	// whose "shards" names each role's own fan-out width.
	docs := []CorpusEntry{{ID: "src-victim", Source: reentrantSrc}, {ID: "src-safe", Source: benignSrc}}
	if resp, _ := post(t, c.router.URL+"/v1/corpus", CorpusAddRequest{Entries: docs}); resp.StatusCode != http.StatusOK {
		t.Fatalf("router source ingest: status %d", resp.StatusCode)
	}
	for _, d := range docs {
		if err := singleSrv.engine.CorpusAddBatch([]service.CorpusEntry{{ID: d.ID, Source: d.Source}})[0]; err != nil {
			t.Fatal(err)
		}
	}
	const parseIssue, emptyFP = "contract X { function f( public {", "contract A {}"
	for _, tc := range []struct {
		name, query string
		body        any
	}{
		{"source", "", map[string]any{"source": reentrantSrc, "limit": 3}},
		{"parse-issue", "", map[string]any{"source": parseIssue}},
		{"empty-fingerprint", "", map[string]any{"source": emptyFP}},
		{"batch", "", map[string]any{
			"sources":      []string{reentrantSrc, parseIssue, emptyFP, benignSrc},
			"fingerprints": []string{string(entries[0].FP), string(entries[5].FP)},
			"limit":        5,
		}},
		// The funnel counts of a query match where no pruning depends on the
		// layout: the router seeds its first wave with ε, a single node with
		// 0, so a candidate near ε may count as filter-pruned on one role only.
		{"explain", "?explain=1", map[string]any{"source": benignSrc}},
	} {
		wantStatus, want := matchAny(t, single.URL+"/v1/match"+tc.query, tc.body)
		gotStatus, got := matchAny(t, c.router.URL+"/v1/match"+tc.query, tc.body)
		if gotStatus != wantStatus || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: router answered %d %v\nsingle node %d %v", tc.name, gotStatus, got, wantStatus, want)
		}
	}
}

// matchAny posts a /v1/match body and returns the status and the decoded
// JSON body without explain's "shards", each role's own fan-out width.
func matchAny(t *testing.T, url string, body any) (int, map[string]any) {
	t.Helper()
	resp, out := post(t, url, body)
	if ex, ok := out["explain"].(map[string]any); ok {
		delete(ex, "shards")
	}
	return resp.StatusCode, out
}

func TestDistributedKillOneShardDegrades(t *testing.T) {
	entries := studyFingerprints(13, 300)
	c := newTestCluster(t, 3, remote.Config{})
	c.ingestBulk(t, entries)

	q := entries[0]
	before, resp := matchFP(t, c.router.URL, q.FP, 5)
	if resp.StatusCode != http.StatusOK || before.Partial {
		t.Fatalf("healthy cluster: status %d partial %v", resp.StatusCode, before.Partial)
	}

	c.shards[1].Close() // kill one partition
	after, resp := matchFP(t, c.router.URL, q.FP, 5)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded match: status %d", resp.StatusCode)
	}
	if !after.Partial {
		t.Fatal(`killed shard must surface as "partial": true`)
	}
	if len(after.Matches) == 0 {
		t.Fatal("surviving partitions returned nothing")
	}
	for _, m := range after.Matches {
		if !containsMatch(before.Matches, m) {
			t.Errorf("degraded answer invented match %+v", m)
		}
	}
}

func containsMatch(ms []wireMatch, m wireMatch) bool {
	for _, x := range ms {
		if x == m {
			return true
		}
	}
	return false
}

// TestRouterPropagatesShardRetryAfter pins the overload contract end to end
// over HTTP: a shard's 429 + Retry-After surfaces verbatim from the router,
// not as a generic 502.
func TestRouterPropagatesShardRetryAfter(t *testing.T) {
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "9")
		w.WriteHeader(http.StatusTooManyRequests)
		_ = json.NewEncoder(w).Encode(map[string]any{"error": "shard overloaded"})
	}))
	t.Cleanup(busy.Close)

	router := remote.NewRouter(remote.Config{Targets: []string{busy.URL}})
	rsrv := NewServer(service.New(service.Options{Workers: 2}), WithRouter(router))
	ts := httptest.NewServer(rsrv.Handler())
	t.Cleanup(ts.Close)

	_, resp := matchFP(t, ts.URL, "abcdefgh", 1)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("router answered %d, want 429 passed through", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "9" {
		t.Fatalf("Retry-After = %q, want the shard's own %q", ra, "9")
	}
}

// scrapeCounters reads the unlabeled samples of a Prometheus /metrics
// scrape, by name.
func scrapeCounters(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 || strings.HasPrefix(fields[0], "#") || strings.ContainsRune(fields[0], '{') {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("%s: sample %q: %v", base, sc.Text(), err)
		}
		out[fields[0]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRoutedMatchesCountedOnEveryRole pins that each node counts what it
// alone sees: the router and every shard count each routed query once as a
// match request (with its latency), and a shard's scan-funnel families read
// its corpus's JSON funnel.
func TestRoutedMatchesCountedOnEveryRole(t *testing.T) {
	entries := studyFingerprints(23, 300)
	c := newTestCluster(t, 2, remote.Config{})
	if br := c.ingestBulk(t, entries); br.Added != len(entries) {
		t.Fatalf("ingest: added %d of %d", br.Added, len(entries))
	}
	const n = 10
	for i := 0; i < n; i++ {
		if _, resp := matchFP(t, c.router.URL, entries[i*29%len(entries)].FP, 5); resp.StatusCode != http.StatusOK {
			t.Fatalf("routed match %d: status %d", i, resp.StatusCode)
		}
	}

	nodes := append([]*httptest.Server{c.router}, c.shards...)
	for i, node := range nodes {
		got := scrapeCounters(t, node.URL)
		if got["ccd_matches_total"] != n || got["ccd_match_latency_seconds_count"] != n {
			t.Errorf("node %d: ccd_matches_total %v, ccd_match_latency_seconds_count %v, want %d each",
				i, got["ccd_matches_total"], got["ccd_match_latency_seconds_count"], n)
		}
		if node == c.router {
			continue
		}
		var m struct {
			Corpus struct {
				Funnel struct {
					Candidates int64 `json:"candidates"`
				} `json:"funnel"`
			} `json:"corpus"`
		}
		resp, err := http.Get(node.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		cands := got["ccd_match_candidates_total"]
		if cands <= 0 || cands != float64(m.Corpus.Funnel.Candidates) {
			t.Errorf("node %d: ccd_match_candidates_total %v, JSON corpus.funnel.candidates %d; want equal and > 0",
				i, cands, m.Corpus.Funnel.Candidates)
		}
	}
}

// TestShardCountsMidScanDeadlineExpiry pins that a shard whose scan runs out
// of budget counts it in deadline.shipped and deadline.expired, as a single
// node counts the expiry. Time cannot be advanced inside a scan, so the budget
// the shard enforces is spent before the scan starts: the request context
// carries an already-expired budget, where the middleware puts the one a
// router ships in X-Request-Timeout. The scan then stops at its first segment
// check — the path a shipped budget that runs out mid-scan takes — and the
// answer is a degraded partial.
func TestShardCountsMidScanDeadlineExpiry(t *testing.T) {
	_, srv := newTestServerOpts(t, service.Options{Workers: 2, Shards: 2, CCD: ccd.ConservativeConfig})
	entries := studyFingerprints(29, 100)
	for _, e := range entries {
		if err := addFP(srv.engine, e.ID, e.FP); err != nil {
			t.Fatal(err)
		}
	}
	body, err := remote.ShardMatchRequest{Fingerprint: string(entries[0].FP), K: 3}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/shard/match", bytes.NewReader(body))
	spent := service.Budget{Deadline: time.Now().Add(-time.Second)}
	req = req.WithContext(service.WithBudget(req.Context(), spent))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)

	var resp remote.ShardMatchResponse
	if err := resp.UnmarshalBinary(rec.Body.Bytes()); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("shard match: status %d, decode %v", rec.Code, err)
	}
	if !resp.Degraded {
		t.Fatalf("spent budget not answered degraded: %+v", resp)
	}
	m := srv.engine.Metrics()
	if m.Deadline.Shipped != 1 || m.Deadline.Expired != 1 || m.Matches != 1 {
		t.Fatalf("deadline %+v, matches %d; want shipped 1, expired 1, matches 1", m.Deadline, m.Matches)
	}
}

// shardBody lays a shard match request out by hand, so that a test can
// break any field of it: k is its uvarint bytes.
func shardBody(version byte, k []byte, bound float64, fp string) []byte {
	b := append([]byte{version}, k...)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(bound))
	b = binary.AppendUvarint(b, uint64(len(fp)))
	return append(b, fp...)
}

// TestShardMatchRefusesMalformedBodies: a shard answers 400 to every body
// the binary layout does not admit and to a k, bound or fingerprint no query
// can use, and clamps a negative bound to 0.
func TestShardMatchRefusesMalformedBodies(t *testing.T) {
	ts, srv := newTestServerOpts(t, service.Options{Workers: 2, Shards: 2, CCD: ccd.ConservativeConfig})
	entries := studyFingerprints(3, 20)
	for _, e := range entries {
		if err := addFP(srv.engine, e.ID, e.FP); err != nil {
			t.Fatal(err)
		}
	}
	fp := string(entries[0].FP)
	k3 := []byte{3}
	valid := shardBody(1, k3, 0, fp)
	for _, tc := range []struct {
		name string
		body []byte
		want int
	}{
		{"valid", valid, http.StatusOK},
		{"negative bound clamped", shardBody(1, k3, -5, fp), http.StatusOK},
		{"empty body", nil, http.StatusBadRequest},
		{"unknown version", shardBody(2, k3, 0, fp), http.StatusBadRequest},
		{"trailing bytes", append(shardBody(1, k3, 0, fp), 0), http.StatusBadRequest},
		{"truncated bound", valid[:5], http.StatusBadRequest},
		{"truncated fingerprint", valid[:len(valid)-1], http.StatusBadRequest},
		{"over-long k", shardBody(1, []byte{0x83, 0}, 0, fp), http.StatusBadRequest},
		{"k overflows int", shardBody(1, binary.AppendUvarint(nil, 1<<63), 0, fp), http.StatusBadRequest},
		{"NaN bound", shardBody(1, k3, math.NaN(), fp), http.StatusBadRequest},
		{"+Inf bound", shardBody(1, k3, math.Inf(1), fp), http.StatusBadRequest},
		{"-Inf bound", shardBody(1, k3, math.Inf(-1), fp), http.StatusBadRequest},
		{"empty fingerprint", shardBody(1, k3, 0, ""), http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/shard/match", "application/octet-stream", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, resp.StatusCode, b, tc.want)
			continue
		}
		if tc.want != http.StatusOK {
			continue
		}
		var sm remote.ShardMatchResponse
		if err := sm.UnmarshalBinary(b); err != nil || len(sm.Matches) == 0 || sm.Matches[0].Score != 100 {
			t.Errorf("%s: answer %+v (decode %v), want the query's own fingerprint at 100", tc.name, sm, err)
		}
	}
}

func TestShardPartitionFilterSkipsForeignIDs(t *testing.T) {
	engine := service.New(service.Options{Workers: 2})
	srv := NewServer(engine, WithPartition(0, 3))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	ring := remote.NewRing(3)
	var mine, foreign string
	for i := 0; mine == "" || foreign == ""; i++ {
		id := fmt.Sprintf("doc-%d", i)
		if ring.Owner(id) == 0 {
			mine = id
		} else if foreign == "" {
			foreign = id
		}
	}
	resp, m := post(t, ts.URL+"/v1/corpus", map[string]any{"entries": []map[string]string{
		{"id": mine, "source": benignSrc},
		{"id": foreign, "source": benignSrc},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, m)
	}
	if int(m["added"].(float64)) != 1 || int(m["skipped"].(float64)) != 1 {
		t.Fatalf("added=%v skipped=%v, want 1/1 (partition filter)", m["added"], m["skipped"])
	}
	if engine.Corpus().Len() != 1 {
		t.Fatalf("corpus len %d, want only the owned doc", engine.Corpus().Len())
	}
}

func TestWALStreamEndpoint(t *testing.T) {
	engine := service.New(service.Options{Workers: 2})
	store, err := service.OpenStore(t.TempDir(), engine.Corpus())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	ts := httptest.NewServer(NewServer(engine, WithStore(store)).Handler())
	t.Cleanup(ts.Close)

	for i := 0; i < 5; i++ {
		if err := addFP(engine, fmt.Sprintf("w-%d", i), ccd.Fingerprint(strings.Repeat("Ab", 10+i))); err != nil {
			t.Fatal(err)
		}
	}

	fetch := func(q string) (*http.Response, []remote.WALRecord) {
		resp, err := http.Get(ts.URL + "/v1/wal/stream" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var recs []remote.WALRecord
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if len(sc.Bytes()) == 0 {
				continue
			}
			var rec remote.WALRecord
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			recs = append(recs, rec)
		}
		return resp, recs
	}

	resp, recs := fetch("?from=0")
	if resp.StatusCode != http.StatusOK || len(recs) != 5 {
		t.Fatalf("full stream: status %d, %d records", resp.StatusCode, len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != i {
			t.Fatalf("record %d has seq %d; positions are the sequence numbers", i, rec.Seq)
		}
	}
	epoch := resp.Header.Get("X-WAL-Epoch")
	if epoch == "" || epoch == "0" {
		t.Fatalf("stream did not name its WAL generation: X-WAL-Epoch=%q", epoch)
	}

	resp, recs = fetch("?from=3&limit=1&epoch=" + epoch)
	if resp.StatusCode != http.StatusOK || len(recs) != 1 || recs[0].Seq != 3 {
		t.Fatalf("windowed stream: status %d recs %+v", resp.StatusCode, recs)
	}
	if resp.Header.Get("X-WAL-More") != "1" || resp.Header.Get("X-WAL-Next") != "4" {
		t.Fatalf("cut page must advertise more: X-WAL-More=%q X-WAL-Next=%q",
			resp.Header.Get("X-WAL-More"), resp.Header.Get("X-WAL-Next"))
	}

	// Caught up: an empty 200 page, not an error.
	resp, recs = fetch("?from=5&epoch=" + epoch)
	if resp.StatusCode != http.StatusOK || len(recs) != 0 {
		t.Fatalf("caught-up stream: status %d, %d records", resp.StatusCode, len(recs))
	}
	if resp.Header.Get("X-WAL-More") == "1" {
		t.Fatal("caught-up page claims more records")
	}

	// Past the end of the log without an epoch: positional 410.
	resp, _ = fetch("?from=6")
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("past-end stream: status %d, want 410 Gone", resp.StatusCode)
	}

	// The divergence trap: snapshot truncates the WAL, then MORE records than
	// the replica's position land in the new log. Positionally from=3 fits
	// inside the new log — but those are different records, and silently
	// serving them would skip the new log's records 0..2 forever. The epoch
	// echo must force a 410 regardless of position.
	if _, err := store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 12; i++ {
		if err := addFP(engine, fmt.Sprintf("w-%d", i), ccd.Fingerprint(strings.Repeat("Cd", 10+i))); err != nil {
			t.Fatal(err)
		}
	}
	resp, _ = fetch("?from=3&epoch=" + epoch)
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("stale epoch at a positionally-valid offset: status %d, want 410 Gone", resp.StatusCode)
	}

	// A fresh epoch-less read sees the new generation's records from 0.
	resp, recs = fetch("?from=0")
	if resp.StatusCode != http.StatusOK || len(recs) != 7 {
		t.Fatalf("new-generation stream: status %d, %d records", resp.StatusCode, len(recs))
	}
	if got := resp.Header.Get("X-WAL-Epoch"); got == epoch {
		t.Fatalf("WAL generation did not change across a snapshot truncation (still %s)", got)
	}
}

func TestCorpusExportCursorPagination(t *testing.T) {
	ts, srv := newTestServerOpts(t, service.Options{Workers: 2, Shards: 4})
	want := map[string]string{}
	for i := 0; i < 57; i++ {
		id := fmt.Sprintf("e-%02d", i)
		fp := ccd.Fingerprint(strings.Repeat("Zy", 8+i%7))
		if err := addFP(srv.engine, id, fp); err != nil {
			t.Fatal(err)
		}
		want[id] = string(fp)
	}

	got := map[string]string{}
	cursor, pages := "", 0
	for {
		url := ts.URL + "/v1/corpus/export?format=ndjson&limit=10"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("page %d: status %d", pages, resp.StatusCode)
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var e BulkEntry
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				t.Fatal(err)
			}
			if _, dup := got[e.ID]; dup {
				t.Fatalf("id %q appeared twice across pages", e.ID)
			}
			got[e.ID] = e.Fingerprint
		}
		cursor = resp.Header.Get("X-Next-Cursor")
		resp.Body.Close()
		pages++
		if cursor == "" {
			break
		}
		if pages > 20 {
			t.Fatal("cursor never terminated")
		}
	}
	if pages < 6 {
		t.Fatalf("57 entries at limit=10 walked only %d pages", pages)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("paginated export diverged: got %d entries, want %d", len(got), len(want))
	}

	resp, err := http.Get(ts.URL + "/v1/corpus/export?cursor=not.a.cursor")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage cursor: status %d, want 400", resp.StatusCode)
	}
}

// TestRouterCorpusShardsIsItsFanout: GET /v1/corpus reports as corpus.shards
// the width a node's answers gather over, the one explain=1 reports: a
// router's partition count, not its own engine's generation-shards.
func TestRouterCorpusShardsIsItsFanout(t *testing.T) {
	c := newTestCluster(t, 3, remote.Config{})
	resp, info := get(t, c.router.URL+"/v1/corpus")
	corpus, _ := info["corpus"].(map[string]any)
	if resp.StatusCode != http.StatusOK || corpus["shards"] != 3.0 {
		t.Fatalf("3-partition router: status %d, corpus %v; want shards 3", resp.StatusCode, corpus)
	}
}

// TestBackendNameRejected: a request naming any backend other than "ccd" —
// the retired comparison backends included — gets a 400 that names the value
// and starts no work, in the body and as a query parameter (which wins over
// the body), for source, fingerprint and batch matches and for corpus
// studies, on a single node and on a router alike. Naming "ccd" is accepted.
func TestBackendNameRejected(t *testing.T) {
	single, _ := newTestServer(t)
	cluster := newTestCluster(t, 2, remote.Config{})
	for role, base := range map[string]string{"single": single.URL, "router": cluster.router.URL} {
		for _, name := range []string{"ssdeep", "smartembed", "nope", "CCD"} {
			for what, send := range map[string]func() (*http.Response, map[string]any){
				"match body": func() (*http.Response, map[string]any) {
					return post(t, base+"/v1/match", map[string]any{"source": benignSrc, "backend": name})
				},
				"match query over body": func() (*http.Response, map[string]any) {
					return post(t, base+"/v1/match?backend="+name, map[string]any{"source": benignSrc, "backend": "ccd"})
				},
				"match fingerprint": func() (*http.Response, map[string]any) {
					return post(t, base+"/v1/match", map[string]any{"fingerprint": "QxRtYuIoPAbCdEfGh", "backend": name})
				},
				"match batch": func() (*http.Response, map[string]any) {
					return post(t, base+"/v1/match?backend="+name, map[string]any{"sources": []string{benignSrc}})
				},
				"study": func() (*http.Response, map[string]any) {
					return post(t, base+"/v1/study", map[string]any{"mode": "corpus", "backend": name})
				},
			} {
				resp, body := send()
				msg, _ := body["error"].(string)
				if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, strconv.Quote(name)) {
					t.Errorf("%s, %s, backend %q: status %d, error %q; want a 400 naming the value", role, what, name, resp.StatusCode, msg)
				}
			}
		}
		if resp, body := post(t, base+"/v1/match?backend=ccd", map[string]any{"source": benignSrc, "explain": true}); resp.StatusCode != http.StatusOK {
			t.Errorf("%s: backend=ccd refused: %d %v", role, resp.StatusCode, body)
		} else if ex, _ := body["explain"].(map[string]any); ex["backend"] != "ccd" {
			t.Errorf("%s: explain %v, want backend ccd", role, body["explain"])
		}
		if resp, body := post(t, base+"/v1/study", map[string]any{"mode": "corpus", "backend": "ccd"}); resp.StatusCode != http.StatusAccepted {
			t.Errorf("%s: study with backend=ccd refused: %d %v", role, resp.StatusCode, body)
		}
	}
}

// TestRoutedBulkAccounting pins a routed bulk stream's accounting to a single
// node's: the router rejects a line with neither source nor fingerprint under
// the client's line number, and reports each shard's size once, from its
// last flush, however many chunks the shard took.
func TestRoutedBulkAccounting(t *testing.T) {
	c := newTestCluster(t, 2, remote.Config{})
	const bad = 301
	var sb strings.Builder
	for i, e := range studyFingerprints(31, 600) {
		if i+1 == bad {
			sb.WriteString(`{"id": "no-payload"}` + "\n")
		}
		line, _ := json.Marshal(BulkEntry{ID: e.ID, Fingerprint: string(e.FP)})
		sb.Write(line)
		sb.WriteByte('\n')
	}
	resp, err := http.Post(c.router.URL+"/v1/corpus/bulk", "application/x-ndjson", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br BulkResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("routed bulk: status %d, decode %v", resp.StatusCode, err)
	}
	if br.Added != 600 || br.Size != 600 || br.Malformed != 1 {
		t.Errorf("routed bulk: added %d size %d malformed %d, want 600/600/1", br.Added, br.Size, br.Malformed)
	}
	want := fmt.Sprintf("line %d: missing source or fingerprint", bad)
	if len(br.Errors) != 1 || br.Errors[0] != want {
		t.Errorf("routed bulk errors %q, want [%q]", br.Errors, want)
	}
}

// TestRoutedIngestEqualsSingleNode drives one ingest sequence through a
// single node and through a router over two partition-pinned shards: every
// request answers with the same status and body on both roles. Size is the
// whole corpus after the request, however many partitions it touched; an
// entry without a source is refused alike on /v1/corpus (400) and as a bulk
// line (malformed), and an entry is held to one bulk line's bytes as the
// router writes it to a shard: U+2028 is written as a 6-byte escape, so a
// line that fits as sent can be refused on both endpoints. After every step,
// GET /v1/corpus reports the same size and corpus.adds on both roles.
func TestRoutedIngestEqualsSingleNode(t *testing.T) {
	single, _ := newTestServerOpts(t, service.Options{Workers: 2, Shards: 2, CCD: ccd.ConservativeConfig})
	c := newTestCluster(t, 2, remote.Config{})
	var bulk strings.Builder
	for i, e := range studyFingerprints(5, 300) {
		if i == 150 {
			bulk.WriteString("not json\n")
		}
		line, _ := json.Marshal(BulkEntry{ID: e.ID, Fingerprint: string(e.FP)})
		bulk.Write(line)
		bulk.WriteByte('\n')
	}
	add := func(entries ...CorpusEntry) string {
		b, _ := json.Marshal(CorpusAddRequest{Entries: entries})
		return string(b)
	}
	// A bulk line that fills the limit to its last byte, newline included.
	full := `{"id":"full","source":"contract F { uint ` + strings.Repeat("x", maxBulkLineBytes-len(`{"id":"full","source":"contract F { uint  }"}`+"\n")) + ` }"}` + "\n"
	// A source that fits a request as sent but not a bulk line once written.
	wide := `"contract W { uint ` + strings.Repeat("\u2028", maxBulkLineBytes/4) + ` }"`
	for _, step := range []struct {
		name, path, body string
		status           int
	}{
		{"add", "/v1/corpus", add(CorpusEntry{ID: "src-victim", Source: reentrantSrc}, CorpusEntry{ID: "src-safe", Source: benignSrc}), 200},
		{"add-parse-issue", "/v1/corpus", add(CorpusEntry{ID: "src-broken", Source: "contract X { function f( public {"},
			CorpusEntry{ID: "src-other", Source: "contract Y { uint y; function g() public { y = 2; } }"}), 200},
		{"bulk", "/v1/corpus/bulk", bulk.String(), 200},
		{"add-one", "/v1/corpus", add(CorpusEntry{ID: "src-one", Source: benignSrc}), 200},
		{"add-empty-source", "/v1/corpus", `{"entries": [{"id": "e1", "source": ""}]}`, 400},
		{"bulk-empty-source", "/v1/corpus/bulk", `{"id": "e1", "source": ""}` + "\n", 200},
		{"add-long", "/v1/corpus", add(CorpusEntry{ID: "long", Source: "contract L { uint " + strings.Repeat("y", 3<<19) + " }"}), 200},
		{"bulk-full-line", "/v1/corpus/bulk", full, 200},
		{"bulk-over-a-line", "/v1/corpus/bulk", strings.Replace(full, "x", "xx", 1), 400},
		{"bulk-wide", "/v1/corpus/bulk", `{"id":"wide","source":` + wide + "}\n", 200},
		{"add-wide", "/v1/corpus", `{"entries":[{"id":"wide","source":` + wide + "}]}", 400},
	} {
		wantStatus, want := postIngest(t, single.URL+step.path, step.body)
		gotStatus, got := postIngest(t, c.router.URL+step.path, step.body)
		if wantStatus != step.status {
			t.Errorf("%s: single node answered %d %v, want %d", step.name, wantStatus, want, step.status)
		}
		if gotStatus != wantStatus || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: router answered %d %v\nsingle node %d %v", step.name, gotStatus, got, wantStatus, want)
		}
		_, wantInfo := get(t, single.URL+"/v1/corpus")
		_, gotInfo := get(t, c.router.URL+"/v1/corpus")
		if gotInfo["size"] != wantInfo["size"] || gotInfo["partial"] != nil {
			t.Errorf("%s: router GET /v1/corpus size %v partial %v, single node size %v", step.name, gotInfo["size"], gotInfo["partial"], wantInfo["size"])
		}
		gotCorpus, _ := gotInfo["corpus"].(map[string]any)
		wantCorpus, _ := wantInfo["corpus"].(map[string]any)
		if gotCorpus["size"] != wantInfo["size"] {
			t.Errorf("%s: router GET /v1/corpus corpus.size %v, single node size %v", step.name, gotCorpus["size"], wantInfo["size"])
		}
		if gotCorpus["adds"] != wantCorpus["adds"] {
			t.Errorf("%s: router GET /v1/corpus corpus.adds %v, single node %v", step.name, gotCorpus["adds"], wantCorpus["adds"])
		}
	}
}

// postIngest posts a raw ingest body and returns the status and the decoded
// JSON body without its trace id, which differs per request.
func postIngest(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out := decodeBody(t, resp)
	delete(out, "trace_id")
	return resp.StatusCode, out
}

// TestRoutedBulkPersistFailureAccounting: a shard whose WAL died answers its
// part of a routed stream with 500 and exact counts, and the router answers
// 500 with the counts summed over both shards, as a single node does
// (TestCorpusBulkPersistFailureAccounting): the other shard's lines count as
// added, the dead shard's as persist failures.
func TestRoutedBulkPersistFailureAccounting(t *testing.T) {
	var targets []string
	var stores []*service.Store
	for i := 0; i < 2; i++ {
		engine := service.New(service.Options{Workers: 2, Shards: 2, CCD: ccd.ConservativeConfig})
		store, err := service.OpenStore(t.TempDir(), engine.Corpus())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = store.Close() })
		ts := httptest.NewServer(NewServer(engine, WithStore(store), WithPartition(i, 2)).Handler())
		t.Cleanup(ts.Close)
		targets, stores = append(targets, ts.URL), append(stores, store)
	}
	rsrv := NewServer(service.New(service.Options{Workers: 2}), WithRouter(remote.NewRouter(remote.Config{Targets: targets})))
	router := httptest.NewServer(rsrv.Handler())
	t.Cleanup(router.Close)
	if err := stores[1].Close(); err != nil {
		t.Fatal(err)
	}

	entries := studyFingerprints(7, 40)
	var sb strings.Builder
	ring, owned := remote.NewRing(2), 0
	for _, e := range entries {
		line, _ := json.Marshal(BulkEntry{ID: e.ID, Fingerprint: string(e.FP)})
		sb.Write(line)
		sb.WriteByte('\n')
		if ring.Owner(e.ID) == 0 {
			owned++
		}
	}
	resp, got := postNDJSON(t, router.URL, sb.String())
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %v", resp.StatusCode, got)
	}
	if owned == 0 || owned == len(entries) {
		t.Fatalf("partition 0 owns %d of %d ids; the stream must touch both", owned, len(entries))
	}
	if got["added"] != float64(owned) || got["persist_failures"] != float64(len(entries)-owned) || got["size"] != float64(owned) {
		t.Errorf("added %v persist_failures %v size %v, want %d/%d/%d",
			got["added"], got["persist_failures"], got["size"], owned, len(entries)-owned, owned)
	}
	if msg, _ := got["error"].(string); !strings.HasPrefix(msg, service.ErrPersist.Error()) {
		t.Errorf("error %q, want a persistence failure", msg)
	}
}

// TestRoutedIngestLeavesIdlePartitionsAlone: a routed write posts only to
// the partitions that own its entries. A partition that owns none and is
// not ready (503 to writes) still gives its size; one that cannot be reached
// at all leaves the write standing, answered 200 with partial set.
func TestRoutedIngestLeavesIdlePartitionsAlone(t *testing.T) {
	var targets []string
	var shards []*httptest.Server
	for i := 0; i < 2; i++ {
		engine := service.New(service.Options{Workers: 2, CCD: ccd.ConservativeConfig})
		srv := NewServer(engine, WithPartition(i, 2))
		if i == 1 {
			srv.ready = func() bool { return false }
			engine.CorpusAddBatch([]service.CorpusEntry{{ID: "held", Fingerprint: "QxRtYuIoPAbCdEfGhZvNmWq"}})
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		targets, shards = append(targets, ts.URL), append(shards, ts)
	}
	router := httptest.NewServer(NewServer(service.New(service.Options{Workers: 2}),
		WithRouter(remote.NewRouter(remote.Config{Targets: targets}))).Handler())
	t.Cleanup(router.Close)

	ring := remote.NewRing(2)
	var owned []ccd.Entry // ids partition 0 owns
	for _, e := range studyFingerprints(11, 40) {
		if ring.Owner(e.ID) == 0 {
			owned = append(owned, e)
		}
	}
	if len(owned) < 3 {
		t.Fatalf("partition 0 owns %d of 40 ids", len(owned))
	}
	add := func(e ccd.Entry) (int, map[string]any) {
		b, _ := json.Marshal(CorpusAddRequest{Entries: []CorpusEntry{{ID: e.ID, Source: benignSrc}}})
		return postIngest(t, router.URL+"/v1/corpus", string(b))
	}
	if status, got := add(owned[0]); status != 200 || got["added"] != 1.0 || got["size"] != 2.0 || got["partial"] != nil {
		t.Errorf("add beside a partition that is not ready: %d %v, want 200, added 1, size 2", status, got)
	}
	line, _ := json.Marshal(BulkEntry{ID: owned[1].ID, Fingerprint: string(owned[1].FP)})
	if status, got := postIngest(t, router.URL+"/v1/corpus/bulk", string(line)+"\n"); status != 200 || got["added"] != 1.0 || got["size"] != 3.0 {
		t.Errorf("bulk beside a partition that is not ready: %d %v, want 200, added 1, size 3", status, got)
	}
	shards[1].Close()
	if status, got := add(owned[2]); status != 200 || got["added"] != 1.0 || got["size"] != 3.0 || got["partial"] != true {
		t.Errorf("add beside a partition that is down: %d %v, want 200, added 1, size 3 (partition 0 alone), partial", status, got)
	}
	if _, info := get(t, router.URL+"/v1/corpus"); info["size"] != 3.0 || info["partial"] != true {
		t.Errorf("GET /v1/corpus beside a partition that is down: size %v partial %v, want 3 (partition 0 alone), partial", info["size"], info["partial"])
	}
}

// runCorpusStudy runs POST /v1/study {"mode": "corpus"} on base until its
// job is done or failed and returns the job.
func runCorpusStudy(t *testing.T, base string, limit int) map[string]any {
	t.Helper()
	resp, m := post(t, base+"/v1/study", map[string]any{"mode": "corpus", "limit": limit})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("start study on %s: %d %v", base, resp.StatusCode, m)
	}
	id := m["id"].(string)
	deadline := time.Now().Add(time.Minute)
	for m["status"] != "done" && m["status"] != "failed" {
		if time.Now().After(deadline) {
			t.Fatalf("study on %s: %v", base, m)
		}
		time.Sleep(20 * time.Millisecond)
		_, m = get(t, base+"/v1/study/"+id)
	}
	return m
}

// corpusStudy runs a corpus study on base to completion and returns the
// report's stats and cluster summary.
func corpusStudy(t *testing.T, base string, limit int) (stats, summary map[string]any) {
	t.Helper()
	m := runCorpusStudy(t, base, limit)
	if m["status"] != "done" {
		t.Fatalf("study on %s: %v", base, m)
	}
	clone := m["summary"].(map[string]any)["clone"].(map[string]any)
	return clone["stats"].(map[string]any), clone["summary"].(map[string]any)
}

// TestRoutedCloneStudyEqualsSingleNode pins that a router runs the same
// clone study as a single node over the same documents: the same funnel and
// cluster distribution at every cap, with an exact-clone plateau wider than
// the cap so the per-document cap is exercised, the same /v1/clusters
// answer on both roles after each study, and the study counted in the
// router's own metrics.
func TestRoutedCloneStudyEqualsSingleNode(t *testing.T) {
	entries := studyFingerprints(11, 600)
	plateau := ccd.Fingerprint("ZvNmWqSjKlQxRtYuIoPAbCdEfGhZvNmWqSjKlQx")
	for i := 0; i < 12; i++ {
		entries = append(entries, ccd.Entry{ID: fmt.Sprintf("plateau-%02d", i), FP: plateau})
	}
	c := newTestCluster(t, 2, remote.Config{})
	if br := c.ingestBulk(t, entries); br.Added != len(entries) {
		t.Fatalf("router bulk: added %d of %d", br.Added, len(entries))
	}
	single, singleSrv := newTestServerOpts(t, service.Options{Workers: 2, Shards: 2, CCD: ccd.ConservativeConfig})
	for _, e := range entries {
		if err := addFP(singleSrv.engine, e.ID, e.FP); err != nil {
			t.Fatal(err)
		}
	}

	limits := []int{0, 1, 2}
	for _, limit := range limits {
		wantStats, wantSummary := corpusStudy(t, single.URL, limit)
		gotStats, gotSummary := corpusStudy(t, c.router.URL, limit)
		for _, k := range []string{"docs", "queried", "matches", "unions"} {
			if gotStats[k] != wantStats[k] {
				t.Errorf("limit %d: routed %s %v, single node %v", limit, k, gotStats[k], wantStats[k])
			}
		}
		if !reflect.DeepEqual(gotSummary, wantSummary) {
			t.Errorf("limit %d: routed summary %v, single node %v", limit, gotSummary, wantSummary)
		}
		// Both roles serve the study they just ran from /v1/clusters; the
		// router, holding no corpus, names no generation.
		routedRef, routedClusters := getClusters(t, c.router.URL)
		singleRef, singleClusters := getClusters(t, single.URL)
		if !reflect.DeepEqual(routedClusters, singleClusters) || !reflect.DeepEqual(routedClusters, wantSummary) {
			t.Errorf("limit %d: /v1/clusters routed %v, single node %v, study %v", limit, routedClusters, singleClusters, wantSummary)
		}
		if routedRef["limit"] != float64(limit) || singleRef["limit"] != float64(limit) {
			t.Errorf("limit %d: clusters study limits routed %v, single node %v", limit, routedRef, singleRef)
		}
		if _, ok := routedRef["generation"]; ok || routedRef["stale"] != nil || singleRef["stale"] != false {
			t.Errorf("limit %d: clusters study routed %v, single node %v", limit, routedRef, singleRef)
		}
	}

	_, m := get(t, c.router.URL+"/metrics")
	if got := m["self_join"].(map[string]any)["completed"]; got != float64(len(limits)) {
		t.Errorf("router self_join.completed %v, want %d", got, len(limits))
	}
}

// TestRoutedCloneStudyFailsOnPartialAnswer: a router's corpus study whose
// second partition is down fails as a whole. The first query of the first
// partition's documents comes back partial, so the job ends failed naming
// the partial answer, the router counts one failed study and no completed
// one, and no clusters are served, since no study completed. The page stops
// at that failure: at most the queries already running on the router's
// workers fail with it, not every document of the page.
func TestRoutedCloneStudyFailsOnPartialAnswer(t *testing.T) {
	c := newTestCluster(t, 2, remote.Config{})
	entries := studyFingerprints(5, 40)
	if br := c.ingestBulk(t, entries); br.Added != len(entries) {
		t.Fatalf("router bulk: added %d of %d", br.Added, len(entries))
	}
	c.shards[1].Close()

	job := runCorpusStudy(t, c.router.URL, 0)
	if job["status"] != "failed" || !strings.Contains(job["error"].(string), "partial answer") {
		t.Fatalf("study with a partition down: %v, want failed naming the partial answer", job)
	}
	_, m := get(t, c.router.URL+"/metrics")
	sj := m["self_join"].(map[string]any)
	if sj["started"] != 1.0 || sj["failed"] != 1.0 || sj["completed"] != 0.0 {
		t.Errorf("router self_join %v, want started 1, failed 1, completed 0", sj)
	}
	if routerWorkers := 2.0; sj["errors"].(float64) < 1 || sj["errors"].(float64) > routerWorkers {
		t.Errorf("router self_join.errors %v, want 1 to %v (the router's workers)", sj["errors"], routerWorkers)
	}
	if study, sum := getClusters(t, c.router.URL); study != nil || sum != nil {
		t.Errorf("clusters after a failed study: %v %v, want none", study, sum)
	}
	if resp, body := get(t, c.router.URL+"/v1/clusters/export"); resp.StatusCode != http.StatusConflict {
		t.Errorf("clusters export after a failed study: %d %v, want 409", resp.StatusCode, body)
	}
}
