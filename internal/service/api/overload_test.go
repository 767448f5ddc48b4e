package api

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/remote"
	"repro/internal/service"
)

// exactP99 is the ceil-rank p99 over raw client-side durations. The server's
// log₂ histogram buckets are too coarse (factor-of-2 resolution) to back a
// "within 2x" assertion; the raw samples are exact.
func exactP99(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := (len(sorted)*99 + 99) / 100 // ceil(0.99 n)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// latencyGrace absorbs scheduler noise when latencies sit near the clock's
// floor: at millisecond scale, "2x" comparisons are meaningless without it.
// Under the race detector it is four times as wide. The detector makes the
// handlers and the 16 client goroutines several times slower while the
// sequential baseline stays near 1.5 ms, so on 2 vCPUs the accepted p99 of
// the same code reads 10–28 ms instead of 2–6 ms, and 25 ms failed one run in
// six. The build settings say whether the detector is in; no tagged file pair
// is needed.
var latencyGrace = func() time.Duration {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return 100 * time.Millisecond
			}
		}
	}
	return 25 * time.Millisecond
}()

// TestOverloadShedsAndPinsAcceptedP99 is the PR's headline acceptance claim:
// under ~4x the admission capacity of concurrent offered load, the server
// sheds with 429 + Retry-After while the requests it does accept keep a p99
// within 2x of the uncontended p99 (plus the noise floor).
func TestOverloadShedsAndPinsAcceptedP99(t *testing.T) {
	ts, srv := newTestServerOpts(t, service.Options{
		Workers:      2,
		Shards:       4,
		CacheEntries: -1, // every request does real fingerprint work
		Admission:    service.AdmissionConfig{MaxQueue: 2},
	})
	if resp, _ := post(t, ts.URL+"/v1/corpus", map[string]any{"entries": []map[string]string{
		{"id": "victim-1", "source": reentrantSrc},
		{"id": "safe-1", "source": benignSrc},
	}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed status %d", resp.StatusCode)
	}

	// src returns a unique source per i so the disabled cache never short-
	// circuits the work.
	src := func(i int) string {
		return fmt.Sprintf("contract C%d {\n\tuint v;\n\tfunction f() public { v = v + %d; }\n}", i, i)
	}
	match := func(i int) (*http.Response, time.Duration) {
		t.Helper()
		start := time.Now()
		resp, _ := post(t, ts.URL+"/v1/match", map[string]any{"source": src(i)})
		return resp, time.Since(start)
	}

	// Uncontended baseline: sequential requests, exact client-side p99.
	var base []time.Duration
	for i := 0; i < 40; i++ {
		resp, d := match(i)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("uncontended request %d: status %d", i, resp.StatusCode)
		}
		base = append(base, d)
	}
	baseP99 := exactP99(base)

	// Overload: 16 concurrent closed-loop clients against capacity 4.
	const clients, perClient = 16, 8
	var mu sync.Mutex
	var accepted []time.Duration
	var shed int
	var shedRetryAfter []string
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, d := match(1000 + c*perClient + i)
				mu.Lock()
				switch resp.StatusCode {
				case http.StatusOK:
					accepted = append(accepted, d)
				case http.StatusTooManyRequests:
					shed++
					shedRetryAfter = append(shedRetryAfter, resp.Header.Get("Retry-After"))
				default:
					t.Errorf("unexpected status %d under overload", resp.StatusCode)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	if shed == 0 {
		t.Fatal("no requests shed at 4x admission capacity")
	}
	if len(accepted) == 0 {
		t.Fatal("every request shed: admission queue admitted nothing")
	}
	// Every shed response carries a sane Retry-After: delay-seconds in
	// [1, 30], matching Engine.RetryAfter's clamp.
	for _, ra := range shedRetryAfter {
		secs, err := strconv.Atoi(ra)
		if err != nil || secs < 1 || secs > 30 {
			t.Fatalf("shed response Retry-After %q, want integer seconds in [1, 30]", ra)
		}
	}
	// The accepted requests' p99 stays pinned: the bounded queue keeps at
	// most MaxQueue requests waiting, so accepted latency is bounded by a
	// small multiple of service time rather than growing with offered load.
	accP99 := exactP99(accepted)
	t.Logf("accepted p99 %v of %d, uncontended p99 %v, grace %v, shed %d", accP99, len(accepted), baseP99, latencyGrace, shed)
	if limit := 2*baseP99 + latencyGrace; accP99 > limit {
		t.Errorf("accepted p99 %v exceeds 2x uncontended p99 %v (+%v grace)", accP99, baseP99, latencyGrace)
	}

	// The shed decisions are visible to operators.
	_, m := get(t, ts.URL+"/metrics")
	adm := m["admission"].(map[string]any)
	if adm["shed"].(float64) < float64(shed) {
		t.Errorf("metrics report %v sheds, observed %d", adm["shed"], shed)
	}
	if !adm["enabled"].(bool) {
		t.Error("admission not reported enabled")
	}
	_ = srv
}

// TestShedResponseShape pins the 429 body fields the golden harness cannot
// reach deterministically (admission sheds depend on concurrent timing).
func TestShedResponseShape(t *testing.T) {
	ts, _ := newTestServerOpts(t, service.Options{
		Workers:   1,
		Shards:    2,
		Admission: service.AdmissionConfig{MaxQueue: 1},
	})
	// Hold the admission queue full from the inside: two slow analyze
	// requests occupy capacity (workers 1 + queue 1 = 2).
	release := holdInflight(t, ts, 2)
	resp, body := post(t, ts.URL+"/v1/match", map[string]any{"source": benignSrc})
	release()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d with a full admission queue, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After header")
	}
	if body["retry_after_seconds"].(float64) < 1 {
		t.Errorf("retry_after_seconds %v, want >= 1", body["retry_after_seconds"])
	}
	if body["trace_id"] == "" {
		t.Error("shed response missing trace_id")
	}
}

// holdInflight keeps n slow analyze requests admitted and inside the
// handler's decode until the returned release is called; release then waits
// for them to finish.
func holdInflight(t *testing.T, ts *httptest.Server, n int) (release func()) {
	t.Helper()
	block := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
				slowBody(fmt.Sprintf(`{"source": "contract B%d { uint x; }"}`, i), block))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
		}(i)
	}
	release = func() {
		t.Helper()
		close(block)
		wg.Wait()
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
	}
	// Wait until all n requests are admitted (inflight visible in /metrics).
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, m := get(t, ts.URL+"/metrics")
		if m["admission"].(map[string]any)["inflight"].(float64) >= float64(n) {
			return release
		}
		if time.Now().After(deadline) {
			release()
			t.Fatal("admission queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDegradeTier1HalvesSingleMatchLimit pins the one quality tier: with
// admission held at 3/4 of capacity the ladder enters tier 1, and a
// single-query /v1/match asking for 4 is served with 2, marked on the wire,
// on a single node and a router alike. The batch form keeps its limit, and
// with the ladder disabled the same pressure leaves the single form whole.
func TestDegradeTier1HalvesSingleMatchLimit(t *testing.T) {
	for _, tc := range []struct {
		name             string
		router, disabled bool
	}{
		{"single", false, false},
		{"single-disabled", false, true},
		{"router", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := service.Options{
				Workers:   1,
				Shards:    2,
				Admission: service.AdmissionConfig{MaxQueue: 3}, // capacity 4
				Degrade:   service.DegradeConfig{Disabled: tc.disabled},
			}
			var ts *httptest.Server
			if tc.router {
				shard := httptest.NewServer(NewServer(service.New(service.Options{Workers: 2, Shards: 2}), WithPartition(0, 1)).Handler())
				t.Cleanup(shard.Close)
				router := remote.NewRouter(remote.Config{Targets: []string{shard.URL}})
				ts = httptest.NewServer(NewServer(service.New(opts), WithRouter(router)).Handler())
				t.Cleanup(ts.Close)
			} else {
				ts, _ = newTestServerOpts(t, opts)
			}
			if resp, _ := post(t, ts.URL+"/v1/corpus", map[string]any{"entries": []map[string]string{
				{"id": "victim-1", "source": reentrantSrc},
				{"id": "safe-1", "source": benignSrc},
			}}); resp.StatusCode != http.StatusOK {
				t.Fatalf("seed status %d", resp.StatusCode)
			}
			release := holdInflight(t, ts, 3) // pressure 3/4, the tier-1 threshold
			defer release()

			// Each /metrics read samples the ladder at most once per 100ms;
			// entering takes two hot samples in a row.
			degrade := func() map[string]any {
				_, m := get(t, ts.URL+"/metrics")
				return m["degrade"].(map[string]any)
			}
			deadline := time.Now().Add(5 * time.Second)
			if !tc.disabled {
				for degrade()["tier"].(float64) != 1 {
					if time.Now().After(deadline) {
						t.Fatal("ladder never entered tier 1 with admission held at 3/4")
					}
					time.Sleep(10 * time.Millisecond)
				}
			} else {
				// Hold the pressure for well over the two samples entering takes.
				for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
					if tier := degrade()["tier"].(float64); tier != 0 {
						t.Fatalf("disabled ladder reports tier %v", tier)
					}
				}
			}

			resp, body := post(t, ts.URL+"/v1/match", map[string]any{"source": benignSrc, "limit": 4})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("match status %d: %v", resp.StatusCode, body)
			}
			if tc.disabled {
				if _, ok := body["effective_limit"]; ok || body["degraded"] != nil {
					t.Fatalf("disabled ladder degraded the match: %v", body)
				}
			} else {
				if body["effective_limit"] != float64(2) {
					t.Fatalf("effective_limit %v, want 2 (limit 4 halved at tier 1): %v", body["effective_limit"], body)
				}
				if d, _ := body["degraded"].([]any); len(d) != 1 || d[0] != "limit" {
					t.Fatalf("degraded %v, want [limit]", body["degraded"])
				}
			}

			_, batch := post(t, ts.URL+"/v1/match", map[string]any{"sources": []string{benignSrc}, "limit": 4})
			if r := batch["results"].([]any)[0].(map[string]any); r["effective_limit"] != nil || r["degraded"] != nil {
				t.Fatalf("batch form marked degraded: %v", r)
			}

			want := 1.0
			if tc.disabled {
				want = 0
			}
			if dg := degrade(); dg["tier_entered"] != want || dg["limit_halved"] != want {
				t.Fatalf("degrade metrics %v, want tier_entered and limit_halved %v", dg, want)
			}
		})
	}
}

// slowBody yields a request body whose final byte arrives only when release
// closes, keeping the request in flight (admitted, inside the handler's
// decode) without any server-side hook.
func slowBody(payload string, release <-chan struct{}) *slowReader {
	return &slowReader{payload: []byte(payload), release: release}
}

type slowReader struct {
	payload []byte
	off     int
	release <-chan struct{}
}

func (r *slowReader) Read(p []byte) (int, error) {
	// Serve all but the last byte immediately; hold the last byte until
	// released so the server stays inside decode().
	if r.off < len(r.payload)-1 {
		n := copy(p, r.payload[r.off:len(r.payload)-1])
		r.off += n
		return n, nil
	}
	<-r.release
	if r.off < len(r.payload) {
		n := copy(p, r.payload[r.off:])
		r.off += n
		return n, nil
	}
	return 0, io.EOF
}

// TestRateLimiterRefillAcrossKeys drives the token bucket with a fake clock:
// one client draining its burst must not affect another, and tokens refill
// at the configured rate.
func TestRateLimiterRefillAcrossKeys(t *testing.T) {
	l := newRateLimiter(5, 10) // 5 tokens/s, burst 10
	now := time.Unix(1000, 0)
	for i := 0; i < 10; i++ {
		if !l.allow("alice", now) {
			t.Fatalf("alice request %d refused within burst", i)
		}
	}
	if l.allow("alice", now) {
		t.Fatal("alice allowed past burst")
	}
	// A drained alice does not starve bob.
	for i := 0; i < 10; i++ {
		if !l.allow("bob", now) {
			t.Fatalf("bob request %d refused while alice drained", i)
		}
	}
	// 200ms at 5 rps refills exactly one token.
	now = now.Add(200 * time.Millisecond)
	if !l.allow("alice", now) {
		t.Fatal("alice not refilled after 200ms at 5 rps")
	}
	if l.allow("alice", now) {
		t.Fatal("alice got two tokens from one refill interval")
	}
	// Refill caps at burst, not beyond.
	now = now.Add(time.Hour)
	for i := 0; i < 10; i++ {
		if !l.allow("alice", now) {
			t.Fatalf("alice request %d refused after full refill", i)
		}
	}
	if l.allow("alice", now) {
		t.Fatal("burst cap exceeded after long idle")
	}
}

func TestRateLimiterEvictsStaleClients(t *testing.T) {
	l := newRateLimiter(1, 1)
	now := time.Unix(1000, 0)
	for i := 0; i < maxRateLimitClients; i++ {
		l.allow(fmt.Sprintf("client-%d", i), now)
	}
	// All existing buckets are stale once a full refill has elapsed; a new
	// client must evict rather than grow the map.
	now = now.Add(time.Minute)
	if !l.allow("newcomer", now) {
		t.Fatal("newcomer refused")
	}
	if n := len(l.buckets); n > maxRateLimitClients {
		t.Fatalf("bucket map grew to %d, cap %d", n, maxRateLimitClients)
	}
}

// TestRateLimitPerClientHTTP exercises the middleware end to end: clients
// are keyed by X-API-Key, limited independently, and observability routes
// stay exempt.
func TestRateLimitPerClientHTTP(t *testing.T) {
	eng := service.New(service.Options{Workers: 2, Shards: 2})
	s := NewServer(eng, WithRateLimit(0.01, 2)) // 2 requests, then ~100s refill
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	do := func(key string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/corpus", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-API-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	for i := 0; i < 2; i++ {
		if resp := do("alice"); resp.StatusCode != http.StatusOK {
			t.Fatalf("alice request %d: status %d", i, resp.StatusCode)
		}
	}
	limited := do("alice")
	if limited.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice over burst: status %d, want 429", limited.StatusCode)
	}
	if ra, err := strconv.Atoi(limited.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("rate-limited Retry-After %q, want positive integer seconds", limited.Header.Get("Retry-After"))
	}
	// A different key is a different bucket.
	if resp := do("bob"); resp.StatusCode != http.StatusOK {
		t.Fatalf("bob blocked by alice's limit: status %d", resp.StatusCode)
	}
	// Observability endpoints bypass the limiter — and report the refusals.
	_, m := get(t, ts.URL+"/metrics")
	if m["requests_ratelimited"].(float64) < 1 {
		t.Errorf("requests_ratelimited %v, want >= 1", m["requests_ratelimited"])
	}
}
