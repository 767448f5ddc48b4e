// Package remote lifts the in-process scatter-gather over the network: a
// router node fans one /v1/match query out to shard nodes that each own a
// hash partition of the corpus. There is one gather loop, service.Gather,
// and two partition scans plugged into it: a local generation-shard's
// segment scan (service.Corpus) and this package's shard request. Gather
// owns the waves, the shared admission bound, the merge (ties by id), the
// overload abort and partial answers; the shard request ships the bound as
// it stands, so remote shards prune exactly like local generation-shards.
// Router.Match returns Gather's own answer, a service.Gathered, with the
// same errors: a degraded answer is the partial top K with
// service.ErrBudgetExhausted.
//
// The design follows the FAT principle that shaped the in-memory layout:
// keep hot data where the compute is and move only what the decision needs.
// A shard request is the query fingerprint plus one float64 bound — a few
// hundred bytes — never posting blocks, so the network tier adds one RTT per
// wave and nothing proportional to corpus size.
//
// The package has three layers: wire types (this file), a persistent-
// connection HTTP client (client.go) with a consistent-hash ring for
// partition assignment (ring.go), and the Router (router.go) whose shard
// request carries bound shipping and replica failover.
package remote

import (
	"fmt"

	"repro/internal/service"
)

// ShardMatchRequest is the body of POST /v1/shard/match: one query against
// the partition a shard node owns. Bound is the router's current admission
// bound at send time — the shard seeds its collector's shared bound with it,
// so candidates already beaten by another partition's evidence are pruned
// before the expensive exact similarity runs.
type ShardMatchRequest struct {
	Fingerprint string  `json:"fingerprint"`
	K           int     `json:"k"`
	Bound       float64 `json:"bound,omitempty"`
}

// Match is one scored result on the wire. It mirrors ccd.Match, which
// deliberately carries no JSON tags (it lives on a zero-allocation path);
// the wire shape is pinned here instead.
type Match struct {
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}

// ShardMatchStats is the shard-local match funnel, returned so the router
// can aggregate scan effort across partitions and prove what bound shipping
// saved (CutoffSkipped counts candidates the shipped bound pruned before
// scoring).
type ShardMatchStats struct {
	Candidates    int `json:"candidates"`
	FilterPruned  int `json:"filter_pruned"`
	Scored        int `json:"scored"`
	CutoffSkipped int `json:"cutoff_skipped"`
	// Abandoned counts candidates the shard never visited because its
	// shipped budget ran out mid-scan.
	Abandoned int `json:"abandoned,omitempty"`
}

// ShardMatchResponse is the body a shard node returns: its partition-local
// top K (best first) and the scan funnel.
type ShardMatchResponse struct {
	Matches []Match         `json:"matches"`
	Stats   ShardMatchStats `json:"stats"`
	// Degraded names the quality reductions applied shard-side ("deadline"
	// when the shipped budget expired mid-scan and Matches is a best-effort
	// partial top-K). The router answers such a scan as
	// service.ErrBudgetExhausted.
	Degraded []string `json:"degraded,omitempty"`
}

// WALRecord is one corpus write on the WAL stream (GET /v1/wal/stream),
// NDJSON-encoded: sequence number (position in the shard's current WAL),
// document id, and fingerprint. Replay is idempotent and
// last-record-per-id, so a replica may apply an overlapping tail safely.
type WALRecord struct {
	Seq         int    `json:"seq"`
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
}

// StatusError is a non-2xx shard response that carries actionable protocol
// state — most importantly 429/503 with Retry-After, which the router must
// propagate to the client verbatim instead of flattening into a generic
// 502 (a client that retries immediately against an overloaded shard makes
// the overload worse).
type StatusError struct {
	// Status is the HTTP status the shard returned.
	Status int
	// RetryAfterSeconds is the shard's Retry-After value (0 when absent).
	RetryAfterSeconds int
	// Msg is the shard's error message, when one could be decoded.
	Msg string
}

// Error implements the error interface.
func (e *StatusError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("shard returned %d: %s", e.Status, e.Msg)
	}
	return fmt.Sprintf("shard returned %d", e.Status)
}

// Overloaded reports whether the error is a shard pushing back (429 or 503)
// rather than failing — the router forwards these, Retry-After intact.
func (e *StatusError) Overloaded() bool {
	return e.Status == 429 || e.Status == 503
}

// Is makes an overloaded StatusError match service.ErrOverloaded, the
// backpressure service.Gather aborts a fan-out on.
func (e *StatusError) Is(target error) bool {
	return target == service.ErrOverloaded && e.Overloaded()
}
