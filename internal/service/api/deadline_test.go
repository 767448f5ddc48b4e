package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"testing"
	"time"

	"repro/internal/ccd"
	"repro/internal/remote"
	"repro/internal/service"
)

// deadlineEpsilon is the slack the return-within-budget property allows on
// top of the declared budget: scheduling noise and the response round-trip,
// not scan time — the point of the budget spine is that scan time is cut off.
const deadlineEpsilon = 500 * time.Millisecond

// budgetMatchResponse is the wire shape the deadline properties assert on.
type budgetMatchResponse struct {
	Matches        []wireMatch `json:"matches"`
	Partial        bool        `json:"partial"`
	Degraded       []string    `json:"degraded"`
	EffectiveLimit int         `json:"effective_limit"`
}

func hasDegraded(resp budgetMatchResponse, reason string) bool {
	for _, d := range resp.Degraded {
		if d == reason {
			return true
		}
	}
	return false
}

// matchWithBudget posts one fingerprint match declaring an X-Request-Timeout
// budget, returning the decoded body (zero unless 200), status, and the
// client-observed latency.
func matchWithBudget(t *testing.T, base string, fp ccd.Fingerprint, k int, budget time.Duration) (budgetMatchResponse, int, time.Duration) {
	t.Helper()
	buf, _ := json.Marshal(map[string]any{"fingerprint": string(fp), "limit": k})
	req, err := http.NewRequest(http.MethodPost, base+"/v1/match", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Timeout", strconv.FormatInt(budget.Milliseconds(), 10))
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("match with %s budget: %v", budget, err)
	}
	defer resp.Body.Close()
	var out budgetMatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode budget match response: %v", err)
		}
	}
	return out, resp.StatusCode, elapsed
}

// assertBudgetContract pins the spine's two invariants for one response:
// the request returned within budget + epsilon, and budget expiry never
// produced an empty *unmarked* 200 — an empty result under a deadline must
// say "degraded": ["deadline"], and a deadline-degraded response must also
// be partial. (504 is the honest no-partial-results timeout; 429 is
// admission shedding; both are within contract.)
func assertBudgetContract(t *testing.T, label string, resp budgetMatchResponse, status int, elapsed, budget time.Duration) {
	t.Helper()
	if elapsed > budget+deadlineEpsilon {
		t.Fatalf("%s: returned in %s, over the %s budget + %s epsilon", label, elapsed, budget, deadlineEpsilon)
	}
	switch status {
	case http.StatusOK:
		if len(resp.Matches) == 0 && !hasDegraded(resp, "deadline") {
			t.Fatalf("%s: empty 200 without a deadline degradation marker: %+v", label, resp)
		}
		if hasDegraded(resp, "deadline") && !resp.Partial {
			t.Fatalf("%s: deadline-degraded response not marked partial: %+v", label, resp)
		}
	case http.StatusGatewayTimeout, http.StatusTooManyRequests:
	default:
		t.Fatalf("%s: status %d (want 200 degraded, 504 or 429)", label, status)
	}
}

// TestDeadlineMidScanLocal is the budget-expiry property on the local
// sharded corpus: across a sweep of budgets small enough to expire while
// queued or mid-scan, every response lands inside budget + epsilon and is
// either a degraded partial, a 504, or a shed — never a panic, never an
// empty unmarked 200. Every query is an ingested document's own
// fingerprint, so a scan that DID complete always has its self-match:
// emptiness is proof of truncation, which must be marked.
func TestDeadlineMidScanLocal(t *testing.T) {
	entries := studyFingerprints(17, 800)
	ts, srv := newTestServerOpts(t, service.Options{Workers: 2, Shards: 4, CCD: ccd.ConservativeConfig})
	for _, e := range entries {
		if err := addFP(srv.engine, e.ID, e.FP); err != nil {
			t.Fatal(err)
		}
	}

	budgets := []time.Duration{time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond}
	for qi := 0; qi < 20; qi++ {
		q := entries[qi*31%len(entries)]
		budget := budgets[qi%len(budgets)]
		resp, status, elapsed := matchWithBudget(t, ts.URL, q.FP, 3, budget)
		assertBudgetContract(t, q.ID, resp, status, elapsed, budget)
	}

	// A comfortable budget must not degrade anything: the spine only takes
	// quality when time actually runs out.
	q := entries[0]
	resp, status, elapsed := matchWithBudget(t, ts.URL, q.FP, 3, 10*time.Second)
	assertBudgetContract(t, "roomy", resp, status, elapsed, 10*time.Second)
	if status != http.StatusOK || len(resp.Degraded) != 0 || len(resp.Matches) == 0 {
		t.Fatalf("roomy budget degraded: status %d resp %+v", status, resp)
	}
}

// TestDeadlineMidScatterGatherDistributed runs the same property through a
// 3-shard in-process cluster: the router ships its remaining budget with
// every shard request (pinned via the shards' deadline.shipped counters),
// stragglers self-cancel, and the degraded-response semantics — partial +
// "deadline" marker — are identical to the local path's.
func TestDeadlineMidScatterGatherDistributed(t *testing.T) {
	entries := studyFingerprints(19, 600)
	c := newTestCluster(t, 3, remote.Config{Waves: 2})
	if br := c.ingestBulk(t, entries); br.Added != len(entries) {
		t.Fatalf("ingest: added %d of %d", br.Added, len(entries))
	}

	budgets := []time.Duration{time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
		20 * time.Millisecond, 100 * time.Millisecond}
	for qi := 0; qi < 25; qi++ {
		q := entries[qi*13%len(entries)]
		budget := budgets[qi%len(budgets)]
		resp, status, elapsed := matchWithBudget(t, c.router.URL, q.FP, 3, budget)
		assertBudgetContract(t, q.ID, resp, status, elapsed, budget)
	}

	// The shards must have observed shipped budgets: the router puts its
	// remaining budget in every shard request, so the counter being zero on
	// every shard would mean propagation stops at the network tier.
	var shipped int64
	for i, sh := range c.shards {
		var m struct {
			Deadline struct {
				Shipped int64 `json:"shipped"`
			} `json:"deadline"`
		}
		resp, err := http.Get(sh.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("shard %d metrics: %v", i, err)
		}
		resp.Body.Close()
		shipped += m.Deadline.Shipped
	}
	if shipped == 0 {
		t.Fatal("no shard observed a shipped budget (deadline.shipped == 0 fleet-wide)")
	}
}
