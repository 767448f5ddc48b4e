package api

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/service"
)

// --- golden: Prometheus exposition -------------------------------------------

// TestGoldenPrometheusExposition pins the text-exposition surface: every
// metric name, label set, HELP/TYPE preamble and line ordering. Sample
// values are masked (latencies are nondeterministic); the shape is the
// contract a scrape config depends on.
func TestGoldenPrometheusExposition(t *testing.T) {
	ts, _ := newTestServer(t)
	seedObservabilityTraffic(t, ts)

	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != prometheusContentType {
		t.Fatalf("content type %q, want %q", ct, prometheusContentType)
	}

	got := maskExpositionValues(t, raw)
	fixture := filepath.Join("testdata", "golden", "metrics_prometheus.txt")
	if *updateGolden {
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
		t.Errorf("exposition shape changed.\n got: %s\nwant: %s\n(re-run with -update if intentional)", got, want)
	}
}

// seedObservabilityTraffic issues a deterministic request sequence so every
// status class and histogram the goldens pin has observations.
func seedObservabilityTraffic(t *testing.T, ts *httptest.Server) {
	t.Helper()
	if resp, _ := post(t, ts.URL+"/v1/corpus", map[string]any{"entries": []map[string]string{
		{"id": "victim-1", "source": reentrantSrc},
		{"id": "safe-1", "source": benignSrc},
	}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed status %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/v1/match", map[string]any{"source": reentrantSrc}); resp.StatusCode != http.StatusOK {
		t.Fatalf("match status %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/v1/analyze", map[string]any{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad analyze status %d", resp.StatusCode)
	}
}

// maskExpositionValues replaces every sample value with V, keeping names,
// labels and comment lines verbatim.
func maskExpositionValues(t *testing.T, raw []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			out.WriteString(line)
			out.WriteByte('\n')
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		out.WriteString(line[:i])
		out.WriteString(" V\n")
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// --- golden: trace span tree --------------------------------------------------

// TestGoldenTraceDetail pins the span topology of a traced /v1/match on a
// single-shard server: root → queue.wait → match.fingerprint → match →
// shard.scan → match.merge, with their annotation keys. Wall times and
// timing-valued annotations are masked.
func TestGoldenTraceDetail(t *testing.T) {
	ts, _ := newTestServerOpts(t, service.Options{Workers: 2, Shards: 1})
	if resp, _ := post(t, ts.URL+"/v1/corpus", map[string]any{"entries": []map[string]string{
		{"id": "victim-1", "source": reentrantSrc},
	}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed status %d", resp.StatusCode)
	}

	const traceID = "golden-trace-match"
	resp := postTraced(t, ts.URL+"/v1/match", traceID, map[string]any{"source": reentrantSrc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != traceID {
		t.Fatalf("X-Trace-Id %q, want %q", got, traceID)
	}

	detail, err := http.Get(ts.URL + "/debug/traces/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(detail.Body)
	detail.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if detail.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch status %d: %s", detail.StatusCode, raw)
	}

	var body any
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("trace detail is not JSON: %v\n%s", err, raw)
	}
	maskTraceTimes(body)
	got, err := json.MarshalIndent(body, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	fixture := filepath.Join("testdata", "golden", "trace_match_detail.json")
	if *updateGolden {
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
		t.Errorf("trace shape changed.\n got: %s\nwant: %s\n(re-run with -update if intentional)", got, want)
	}
}

// maskTraceTimes zeroes wall-clock and duration fields and timing-valued
// annotations in a decoded trace view, leaving the topology and keys.
func maskTraceTimes(v any) {
	switch n := v.(type) {
	case map[string]any:
		for k, child := range n {
			switch k {
			case "start":
				n[k] = "TIME"
			case "start_us", "duration_us":
				n[k] = "T"
			case "val":
				// Timing-valued annotations vary run to run; counts don't.
				if key, _ := n["key"].(string); strings.HasSuffix(key, "_ns") {
					n[k] = "T"
				}
			default:
				maskTraceTimes(child)
			}
		}
	case []any:
		for _, child := range n {
			maskTraceTimes(child)
		}
	}
}

// postTraced posts a JSON body with an X-Request-Id header.
func postTraced(t *testing.T, url, traceID string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// --- trace plumbing behavior --------------------------------------------------

// TestTraceparentHonored checks the W3C fallback: no X-Request-Id, a valid
// traceparent → its trace-id field becomes the trace id.
func TestTraceparentHonored(t *testing.T) {
	ts, _ := newTestServer(t)
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/corpus", nil)
	req.Header.Set("Traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("X-Trace-Id %q, want the traceparent trace-id", got)
	}
}

// TestErrorPayloadCarriesTraceID checks that traced error responses embed
// the trace id and the trace lands in the errored retention ring.
func TestErrorPayloadCarriesTraceID(t *testing.T) {
	ts, s := newTestServer(t)
	resp := postTraced(t, ts.URL+"/v1/analyze", "err-trace-1", map[string]any{})
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if body["trace_id"] != "err-trace-1" {
		t.Fatalf("error payload trace_id %v", body["trace_id"])
	}
	tr, ok := s.recorder.Get("err-trace-1")
	if !ok {
		t.Fatal("errored trace not retained")
	}
	if tr.Err() == "" {
		t.Fatal("retained trace has no error")
	}
	if st := s.recorder.Stats(); st.Errored == 0 {
		t.Fatalf("recorder stats: %+v", st)
	}
}

// TestReadiness covers /readyz and the ?ready=1 fold into /healthz: without
// a store the server is always ready; a probe that reads false flips both.
func TestReadiness(t *testing.T) {
	ts, _ := newTestServer(t)
	if resp, m := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK || m["ready"] != true {
		t.Fatalf("readyz: %d %v", resp.StatusCode, m)
	}

	engine := service.New(service.Options{Workers: 1, Shards: 1})
	notReady := NewServer(engine)
	notReady.ready = func() bool { return false }
	nts := httptest.NewServer(notReady.Handler())
	defer nts.Close()
	if resp, m := get(t, nts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable || m["ready"] != false {
		t.Fatalf("not-ready readyz: %d %v", resp.StatusCode, m)
	}
	if resp, _ := get(t, nts.URL+"/healthz?ready=1"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz?ready=1: %d", resp.StatusCode)
	}
	if resp, _ := get(t, nts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz liveness must ignore readiness: %d", resp.StatusCode)
	}
}

// TestFsyncWaitSpanPinned runs a store-backed server and pins the ingest
// span topology: a traced POST /v1/corpus must show the WAL group-commit
// wait (corpus.add → wal.append → wal.fsync_wait) and the durability
// histograms must record the fsync.
func TestFsyncWaitSpanPinned(t *testing.T) {
	engine := service.New(service.Options{Workers: 2, Shards: 1})
	store, err := service.OpenStore(t.TempDir(), engine.Corpus())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	s := NewServer(engine, WithStore(store))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	const traceID = "ingest-trace-1"
	resp := postTraced(t, ts.URL+"/v1/corpus", traceID, map[string]any{"entries": []map[string]string{
		{"id": "doc-1", "source": benignSrc},
	}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	tr, ok := s.recorder.Get(traceID)
	if !ok {
		t.Fatal("ingest trace not retained")
	}
	names := map[string]bool{}
	for _, sp := range tr.View().Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"POST /v1/corpus", "corpus.add", "wal.append", "wal.fsync_wait"} {
		if !names[want] {
			t.Errorf("span %q missing; got %v", want, names)
		}
	}

	_, m := get(t, ts.URL+"/metrics")
	dur, ok := m["durability"].(map[string]any)
	if !ok {
		t.Fatalf("durability block missing: %v", m["durability"])
	}
	if c := dur["fsync_latency"].(map[string]any)["count"].(float64); c < 1 {
		t.Errorf("fsync count %v, want ≥ 1", c)
	}
	if c := dur["group_commit_batch"].(map[string]any)["count"].(float64); c < 1 {
		t.Errorf("group-commit batch count %v, want ≥ 1", c)
	}
	if dur["ready"] != true {
		t.Errorf("store not ready after ingest: %v", dur)
	}
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("store-backed readyz: %d", resp.StatusCode)
	}
}

// --- exposition parser --------------------------------------------------------

// expositionFamily is one parsed metric family.
type expositionFamily struct {
	typ     string
	samples []expositionSample
}

type expositionSample struct {
	name   string
	labels string
	value  float64
}

// parseExposition is a minimal Prometheus text-format (0.0.4) parser: enough
// to validate the scrape CI depends on. It enforces that every sample
// belongs to a family announced by HELP/TYPE.
func parseExposition(r io.Reader) (map[string]*expositionFamily, error) {
	families := map[string]*expositionFamily{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("line %d: bad TYPE", lineNo)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown type %q", lineNo, parts[1])
			}
			families[parts[0]] = &expositionFamily{typ: parts[1]}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sample, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		base := sample.name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if fam, ok := families[strings.TrimSuffix(sample.name, suffix)]; ok && fam.typ == "histogram" {
				base = strings.TrimSuffix(sample.name, suffix)
				break
			}
		}
		fam, ok := families[base]
		if !ok {
			return nil, fmt.Errorf("line %d: sample %q has no TYPE", lineNo, sample.name)
		}
		fam.samples = append(fam.samples, sample)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return families, nil
}

func parseSample(line string) (expositionSample, error) {
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return expositionSample{}, fmt.Errorf("no value separator in %q", line)
	}
	v, err := strconv.ParseFloat(line[i+1:], 64)
	if err != nil {
		return expositionSample{}, fmt.Errorf("bad value in %q: %w", line, err)
	}
	nameAndLabels := line[:i]
	name, labels := nameAndLabels, ""
	if j := strings.IndexByte(nameAndLabels, '{'); j >= 0 {
		if !strings.HasSuffix(nameAndLabels, "}") {
			return expositionSample{}, fmt.Errorf("unterminated labels in %q", line)
		}
		name, labels = nameAndLabels[:j], nameAndLabels[j+1:len(nameAndLabels)-1]
	}
	return expositionSample{name: name, labels: labels, value: v}, nil
}

// labelValue extracts one label's value from a raw label string.
func labelValue(labels, key string) (string, bool) {
	for _, kv := range strings.Split(labels, ",") {
		if k, v, ok := strings.Cut(kv, "="); ok && k == key {
			return strings.Trim(v, `"`), true
		}
	}
	return "", false
}

// validateHistograms checks every histogram family: per-series buckets are
// cumulative-monotone in le order, and the +Inf bucket equals _count.
func validateHistograms(t *testing.T, families map[string]*expositionFamily) {
	t.Helper()
	for name, fam := range families {
		if fam.typ != "histogram" {
			continue
		}
		type series struct {
			les    []float64
			counts map[float64]float64
			count  float64
			inf    float64
			hasInf bool
		}
		byLabels := map[string]*series{}
		get := func(rest string) *series {
			s, ok := byLabels[rest]
			if !ok {
				s = &series{counts: map[float64]float64{}}
				byLabels[rest] = s
			}
			return s
		}
		for _, smp := range fam.samples {
			switch {
			case strings.HasSuffix(smp.name, "_bucket"):
				le, ok := labelValue(smp.labels, "le")
				if !ok {
					t.Errorf("%s: bucket without le label", name)
					continue
				}
				rest := removeLabel(smp.labels, "le")
				s := get(rest)
				if le == "+Inf" {
					s.inf, s.hasInf = smp.value, true
					continue
				}
				bound, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Errorf("%s: bad le %q", name, le)
					continue
				}
				s.les = append(s.les, bound)
				s.counts[bound] = smp.value
			case strings.HasSuffix(smp.name, "_count"):
				get(smp.labels).count = smp.value
			}
		}
		for labels, s := range byLabels {
			sort.Float64s(s.les)
			prev := -1.0
			for _, le := range s.les {
				if c := s.counts[le]; c < prev {
					t.Errorf("%s{%s}: bucket le=%g count %g < previous %g (not cumulative)", name, labels, le, c, prev)
				} else {
					prev = c
				}
			}
			if !s.hasInf {
				t.Errorf("%s{%s}: missing +Inf bucket", name, labels)
				continue
			}
			if s.inf != s.count {
				t.Errorf("%s{%s}: +Inf bucket %g != _count %g", name, labels, s.inf, s.count)
			}
			if prev > s.inf {
				t.Errorf("%s{%s}: last finite bucket %g exceeds +Inf %g", name, labels, prev, s.inf)
			}
		}
	}
}

// removeLabel drops one key from a raw label string.
func removeLabel(labels, key string) string {
	var kept []string
	for _, kv := range strings.Split(labels, ",") {
		if k, _, ok := strings.Cut(kv, "="); !ok || k != key {
			kept = append(kept, kv)
		}
	}
	return strings.Join(kept, ",")
}

// TestPrometheusExpositionValid scrapes a loaded server and runs the full
// parser + histogram validation (the check CI runs against the exposition).
func TestPrometheusExpositionValid(t *testing.T) {
	ts, _ := newTestServer(t)
	seedObservabilityTraffic(t, ts)

	for _, mode := range []struct{ name, path, accept string }{
		{"query-param", "/metrics?format=prometheus", ""},
		{"accept-header", "/metrics", "text/plain"},
	} {
		t.Run(mode.name, func(t *testing.T) {
			req, _ := http.NewRequest(http.MethodGet, ts.URL+mode.path, nil)
			if mode.accept != "" {
				req.Header.Set("Accept", mode.accept)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if ct := resp.Header.Get("Content-Type"); ct != prometheusContentType {
				t.Fatalf("content type %q", ct)
			}
			families, err := parseExposition(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if len(families) == 0 {
				t.Fatal("no metric families")
			}
			for _, want := range []string{
				"ccd_matches_total", "ccd_match_latency_seconds",
				"ccd_http_requests_total", "ccd_http_request_duration_seconds",
				"ccd_traces_recorded_total", "ccd_uptime_seconds",
			} {
				if _, ok := families[want]; !ok {
					t.Errorf("family %q missing", want)
				}
			}
			validateHistograms(t, families)
		})
	}
}

// TestMetricsDefaultStaysJSON pins the negotiation default: no format param,
// no text/plain Accept → JSON.
func TestMetricsDefaultStaysJSON(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default content type %q, want application/json", ct)
	}
}

// --- race hammer --------------------------------------------------------------

// TestTracedHammer drives concurrent traced matches while scraping both
// metrics formats and the trace ring: the lock-free trace/hist/ring paths
// must survive -race, the ring must stay bounded, and every response must
// echo its request id.
func TestTracedHammer(t *testing.T) {
	ts, s := newTestServerOpts(t, service.Options{Workers: 4, Shards: 4})
	if resp, _ := post(t, ts.URL+"/v1/corpus", map[string]any{"entries": []map[string]string{
		{"id": "victim-1", "source": reentrantSrc},
		{"id": "safe-1", "source": benignSrc},
	}}); resp.StatusCode != http.StatusOK {
		t.Fatal("seed failed")
	}

	const (
		writers    = 8
		perWriter  = 25
		totalMatch = writers * perWriter
	)
	var wg sync.WaitGroup
	errs := make(chan string, totalMatch)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("hammer-%d-%d", w, i)
				resp := postTraced(t, ts.URL+"/v1/match", id, map[string]any{"source": reentrantSrc})
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("match %s: status %d", id, resp.StatusCode)
				}
				if got := resp.Header.Get("X-Trace-Id"); got != id {
					errs <- fmt.Sprintf("match %s: echoed trace id %q", id, got)
				}
			}
		}(w)
	}

	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		paths := []string{"/metrics", "/metrics?format=prometheus", "/debug/traces"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + paths[i%len(paths)])
			if err != nil {
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	wg.Wait()
	close(stop)
	<-scraperDone
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	st := s.recorder.Stats()
	if st.Recorded < totalMatch {
		t.Errorf("recorded %d traces, want ≥ %d", st.Recorded, totalMatch)
	}
	retained := s.recorder.Traces()
	bound := 2*st.Capacity + st.SlowKept
	if len(retained) == 0 || len(retained) > bound {
		t.Errorf("retained %d traces, want within (0, %d]", len(retained), bound)
	}

	// The per-endpoint stats saw every hammer request.
	_, m := get(t, ts.URL+"/metrics")
	match := m["endpoints"].(map[string]any)["POST /v1/match"].(map[string]any)
	if c := match["count"].(float64); c < totalMatch {
		t.Errorf("endpoint count %v, want ≥ %d", c, totalMatch)
	}
}
