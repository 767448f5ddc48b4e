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
// # The shard match wire format
//
// POST /v1/shard/match carries one binary message each way, written with
// the internal/binfmt primitives: uvarints in their shortest form,
// little-endian IEEE 754 float64s and uvarint-length-prefixed strings. Both
// open with the version byte 1.
//
//	request:  version, k (uvarint), bound (float64), fingerprint (string)
//	response: version, degraded (byte 0 or 1),
//	          candidates, filter_pruned, scored, cutoff_skipped, abandoned (uvarints),
//	          match count (uvarint), then per match: id (string), score (float64)
//
// There is no other format and nothing is negotiated. A shard answers 400 to
// a body of another version (an older JSON body opens with '{'), with bytes
// after its last field, a truncated or over-long field, a k that overflows
// int, a bound that is NaN or ±Inf, or an empty fingerprint; it clamps a
// negative bound to 0. A router refuses a response that breaks the layout,
// carries a non-finite score or a count that overflows int, and counts it as
// a failed shard request, as it counts that 400. The budget travels in the
// X-Request-Timeout header and the trace id in traceparent or X-Request-Id,
// as on every other shard request.
//
// The package has three layers: wire types (this file), a persistent-
// connection HTTP client (client.go) with a consistent-hash ring for
// partition assignment (ring.go), and the Router (router.go) whose shard
// request carries bound shipping and replica failover.
package remote

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/binfmt"
	"repro/internal/ccd"
	"repro/internal/service"
)

// wireVersion opens every shard match message.
const wireVersion = 1

// ShardMatchRequest is one query against the partition a shard node owns.
// Bound is the router's current admission bound at send time — the shard
// seeds its collector's shared bound with it, so candidates already beaten
// by another partition's evidence are pruned before the expensive exact
// similarity runs.
type ShardMatchRequest struct {
	Fingerprint string
	K           int
	Bound       float64
}

// ShardMatchResponse is a shard's answer: its partition-local top K (best
// first) and the scan funnel, so the router can aggregate scan effort across
// partitions and prove what bound shipping saved (Stats.CutoffSkipped counts
// candidates the shipped bound pruned before scoring). Only the funnel's
// five counts cross the wire, not its timings.
type ShardMatchResponse struct {
	Matches []ccd.Match
	Stats   ccd.MatchStats
	// Degraded is set when the shipped budget expired before or during the
	// scan and Matches is a best-effort partial top K. The router answers
	// such a scan as service.ErrBudgetExhausted.
	Degraded bool
}

// MarshalBinary encodes the request (see the package doc for the layout).
func (q ShardMatchRequest) MarshalBinary() ([]byte, error) {
	if q.K < 0 {
		return nil, fmt.Errorf("remote: shard request: negative k %d", q.K)
	}
	var buf bytes.Buffer
	w := binfmt.NewWriter(&buf)
	w.Byte(wireVersion)
	w.Uvarint(uint64(q.K))
	w.Float64(q.Bound)
	w.Str(q.Fingerprint)
	err := w.Flush()
	return buf.Bytes(), err
}

// UnmarshalBinary decodes a request, refusing any body the layout does not
// admit and a k, bound or fingerprint no query can use.
func (q *ShardMatchRequest) UnmarshalBinary(b []byte) error {
	const prefix = "remote: shard request:"
	c, err := open(b, prefix)
	if err != nil {
		return err
	}
	k := c.Uvarint("k")
	bound := c.Float64("bound")
	fp := c.Str(uint64(len(b)), "fingerprint")
	if err := done(c, prefix); err != nil {
		return err
	}
	switch {
	case k > math.MaxInt:
		return fmt.Errorf("%s k %d overflows int", prefix, k)
	case math.IsNaN(bound) || math.IsInf(bound, 0):
		return fmt.Errorf("%s bound %v is not finite", prefix, bound)
	case fp == "":
		return fmt.Errorf("%s empty fingerprint", prefix)
	}
	*q = ShardMatchRequest{Fingerprint: fp, K: int(k), Bound: bound}
	return nil
}

// funnel lists the match funnel's counts in wire order.
func funnel(st *ccd.MatchStats) [5]*int {
	return [5]*int{&st.Candidates, &st.FilterPruned, &st.Scored, &st.CutoffSkipped, &st.Abandoned}
}

// MarshalBinary encodes the response (see the package doc for the layout).
func (r ShardMatchResponse) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	w := binfmt.NewWriter(&buf)
	w.Byte(wireVersion)
	var degraded byte
	if r.Degraded {
		degraded = 1
	}
	w.Byte(degraded)
	for _, n := range funnel(&r.Stats) {
		w.Uvarint(uint64(*n))
	}
	w.Uvarint(uint64(len(r.Matches)))
	for _, m := range r.Matches {
		w.Str(m.ID)
		w.Float64(m.Score)
	}
	err := w.Flush()
	return buf.Bytes(), err
}

// minMatchBytes is the smallest encoded match: an empty id's length byte
// and the score.
const minMatchBytes = 1 + 8

// UnmarshalBinary decodes a response, refusing any body the layout does not
// admit, a count that overflows int and a score that is not finite.
func (r *ShardMatchResponse) UnmarshalBinary(b []byte) error {
	const prefix = "remote: shard response:"
	c, err := open(b, prefix)
	if err != nil {
		return err
	}
	var out ShardMatchResponse
	flag := c.Byte("degraded flag")
	for _, p := range funnel(&out.Stats) {
		n := c.Uvarint("funnel count")
		if n > math.MaxInt {
			return fmt.Errorf("%s funnel count %d overflows int", prefix, n)
		}
		*p = int(n)
	}
	n := c.Uvarint("match count")
	if n > uint64(c.Len()/minMatchBytes) {
		return fmt.Errorf("%s %d matches cannot fit in %d bytes", prefix, n, c.Len())
	}
	if n > 0 {
		out.Matches = make([]ccd.Match, n)
	}
	for i := range out.Matches {
		m := &out.Matches[i]
		m.ID = c.Str(uint64(len(b)), "match id")
		if m.Score = c.Float64("match score"); math.IsNaN(m.Score) || math.IsInf(m.Score, 0) {
			return fmt.Errorf("%s match %d score %v is not finite", prefix, i, m.Score)
		}
	}
	if err := done(c, prefix); err != nil {
		return err
	}
	if flag > 1 {
		return fmt.Errorf("%s degraded flag %d is not 0 or 1", prefix, flag)
	}
	out.Degraded = flag == 1
	*r = out
	return nil
}

// open returns a cursor past b's version byte, or an error when b does not
// open with wireVersion.
func open(b []byte, prefix string) (*binfmt.Cursor, error) {
	c := binfmt.NewCursor(b, prefix)
	if v := c.Byte("version"); c.Err() == nil && v != wireVersion {
		return nil, fmt.Errorf("%s unknown version %d (want %d)", prefix, v, wireVersion)
	}
	return c, c.Err()
}

// done reports the cursor's first failed read, or bytes left after the last
// field.
func done(c *binfmt.Cursor, prefix string) error {
	if err := c.Err(); err != nil {
		return err
	}
	if c.Len() != 0 {
		return fmt.Errorf("%s %d trailing bytes", prefix, c.Len())
	}
	return nil
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
