package api

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"iter"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/ccd"
	"repro/internal/remote"
	"repro/internal/service"
)

// WithRouter makes the server a router over r's shard nodes: /v1/match fans
// out (merging through the shared admission bound), ingest forwards each
// entry to the shard that owns its id, and the corpus study streams the
// partitions' exports. The local engine only fingerprints and analyzes.
func WithRouter(r *remote.Router) Option {
	return func(s *Server) { s.router, s.role = r, roleRouter }
}

// WithPartition makes the server a shard of partition idx of total: ingest
// skips (and counts) the entries another partition owns, so a misrouted
// write can never make two shards disagree about ownership.
func WithPartition(idx, total int) Option {
	return func(s *Server) {
		if total > 0 && idx >= 0 && idx < total {
			s.partIdx, s.partRing, s.role = idx, remote.NewRing(total), max(s.role, roleShard)
		}
	}
}

// WithReplica makes the server a replica of its partition's primary: served
// as a shard, but its corpus comes only from the primary's WAL.
func WithReplica() Option {
	return func(s *Server) { s.role = max(s.role, roleReplica) }
}

// --- shard-side handlers ------------------------------------------------------

// handleShardMatch serves POST /v1/shard/match: one partition-local match
// with the router's shipped admission bound seeding the local scatter-
// gather, so this shard prunes against evidence other partitions already
// produced. Request and response are the binary shard match messages of
// package remote. It goes through Engine.MatchFingerprint, so a shard counts
// its matches, latency and deadline expiries as a single node does.
func (s *Server) handleShardMatch(w http.ResponseWriter, r *http.Request) {
	var req remote.ShardMatchRequest
	if !decodeBinary(w, r, &req) {
		return
	}
	bound := max(req.Bound, 0)
	// The router's remaining budget rides X-Request-Timeout, which the
	// middleware made ctx's deadline and service.Budget: the scan
	// self-cancels into a degraded partial under it instead of being
	// stranded by a router that already gave up.
	ctx := r.Context()
	_, budgeted := service.BudgetOf(ctx)
	if budgeted {
		s.engine.NoteDeadlineShipped()
	}
	var resp remote.ShardMatchResponse
	var err error
	if derr := s.engine.DoCtx(ctx, func() {
		resp.Matches, resp.Stats, err = s.engine.MatchFingerprint(ctx, ccd.Fingerprint(req.Fingerprint), req.K, ccd.NewAtomicBound(bound))
	}); derr != nil {
		if budgeted && errors.Is(derr, context.DeadlineExceeded) {
			// The budget drained while queued: an honest (empty)
			// degraded response beats a 504 the router must write off.
			writeBinary(w, remote.ShardMatchResponse{Degraded: true})
		}
		return // client gone while queued
	}
	resp.Degraded = errors.Is(err, service.ErrBudgetExhausted)
	if err != nil && !resp.Degraded {
		if ctx.Err() == nil { // else cancelled mid-scan
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	writeBinary(w, resp)
}

// handleWALStream serves GET /v1/wal/stream?from=N[&limit=M][&epoch=E]: one
// page of the shard's WAL tail from record position N as NDJSON, one
// remote.WALRecord per line. The response names the WAL generation in
// X-WAL-Epoch, the resume position in X-WAL-Next, and sets X-WAL-More: 1
// when the page was cut by the (server-capped) limit rather than the log's
// end. Clients echo the epoch back on every subsequent call; a mismatch —
// or an epoch-less position past the end of the log — answers 410 Gone: the
// primary snapshotted and truncated the log, positions from the old
// generation are meaningless against the new one, and the replica must
// re-bootstrap. The page is collected under the store lock but written
// after it is released, so a slow replica can never stall snapshots or
// ingest, and the cap bounds what one request buffers.
func (s *Server) handleWALStream(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusConflict, "persistence not enabled (start serve with -corpus-dir)")
		return
	}
	qp := r.URL.Query()
	from, ok := intParam(w, qp, "from", 0, 0)
	if !ok {
		return
	}
	limit, ok := intParam(w, qp, "limit", 0, 1)
	if !ok {
		return
	}
	epoch, ok := intParam(w, qp, "epoch", 0, 0)
	if !ok {
		return
	}
	page, err := s.store.WALPage(from, int64(epoch), limit)
	w.Header().Set("X-WAL-Epoch", strconv.FormatInt(page.Epoch, 10))
	switch {
	case errors.Is(err, service.ErrWALTruncated):
		writeError(w, http.StatusGone, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "wal stream: "+err.Error())
		return
	}
	w.Header().Set("X-WAL-Next", strconv.Itoa(page.Next))
	if page.More {
		w.Header().Set("X-WAL-More", "1")
	}
	// A client gone mid-page re-requests from its position.
	recs := make([]remote.WALRecord, len(page.Entries))
	for i, e := range page.Entries {
		recs[i] = remote.WALRecord{Seq: e.Seq, ID: e.ID, Fingerprint: string(e.FP)}
	}
	writeNDJSON(w, recs)
}

// --- router-side handlers -----------------------------------------------------

// writeRemoteError maps a failed shard interaction onto the router's own
// response: shard backpressure (429/503) propagates verbatim with its
// Retry-After, anything else is a 502 naming the upstream failure.
func writeRemoteError(w http.ResponseWriter, err error) {
	var se *remote.StatusError
	if errors.As(err, &se) && se.Overloaded() {
		retry := time.Duration(se.RetryAfterSeconds) * time.Second
		if retry <= 0 {
			retry = time.Second
		}
		writeOverloaded(w, se.Status, retry, se.Error())
		return
	}
	writeError(w, http.StatusBadGateway, "shard request failed: "+err.Error())
}

// matchRouted is a router's matchFunc: a source is fingerprinted on a
// worker slot (parse issues still yield a partial fingerprint), then the
// query fans out through Router.Match outside the pool, so a routed fan-out
// never holds a slot. An answered query is counted on the router's engine,
// the way MatchFingerprint counts a local one.
func (s *Server) matchRouted(ctx context.Context, q matchQuery) (g service.Gathered, fpErr, err error) {
	fp := ccd.Fingerprint(q.fingerprint)
	if q.source != "" {
		if err := s.engine.DoCtx(ctx, func() { fp, fpErr = s.engine.FingerprintCtx(ctx, q.source) }); err != nil {
			return g, nil, err
		}
	}
	start := time.Now()
	g, err = s.router.Match(ctx, string(fp), q.limit)
	if err == nil || errors.Is(err, service.ErrBudgetExhausted) {
		s.engine.ObserveMatch(time.Since(start), err)
	}
	return g, fpErr, err
}

// ingestRouted is a router's ingestFunc. Each entry goes as one NDJSON line
// into its owner's batch, posted to that partition's /v1/corpus/bulk at
// bulkChunk lines (or maxBodyBytes) and at the end, so sources are
// fingerprinted on the node that owns them. A partition that owns none of the
// request is not written to: its size is read with GET /v1/corpus, and a
// failed read leaves the write standing and the sum Partial. A shard's 500
// carries its exact counts; they fold in, the lines read still go out, and
// the request fails with service.ErrPersist.
func (s *Server) ingestRouted(ctx context.Context, batches iter.Seq[[]service.CorpusEntry]) (BulkResponse, error) {
	bodies, lines, sizes := make([]bytes.Buffer, s.router.N()), make([]int, s.router.N()), map[int]int{}
	var total BulkResponse
	var err error // the first failure; after a persistence failure, read lines still go out
	post := func(part int) {
		if lines[part] == 0 || (err != nil && !errors.Is(err, service.ErrPersist)) {
			return
		}
		var resp BulkResponse
		perr := s.router.Client().PostNDJSON(ctx, s.router.Target(part)+"/v1/corpus/bulk", bodies[part].Bytes(), &resp)
		bodies[part].Reset()
		lines[part] = 0
		cause, persist := strings.CutPrefix(resp.Error, service.ErrPersist.Error()+": ")
		if se := (*remote.StatusError)(nil); persist && errors.As(perr, &se) && se.Status == http.StatusInternalServerError {
			perr = fmt.Errorf("%w: partition %d: %s", service.ErrPersist, part, cause)
		} else if perr != nil {
			err = perr
			return
		}
		total.Added += resp.Added
		total.ParseIssues += resp.ParseIssues
		total.PersistFailures += resp.PersistFailures
		total.Skipped += resp.Skipped
		sizes[part] = resp.Size
		if err == nil {
			err = perr
		}
	}
	for batch := range batches {
		for _, e := range batch {
			part := s.router.Owner(e.ID)
			bulkLine(&bodies[part], BulkEntry{ID: e.ID, Source: e.Source, Fingerprint: string(e.Fingerprint)})
			if lines[part]++; lines[part] == bulkChunk || bodies[part].Len() >= maxBodyBytes {
				post(part)
			}
		}
		if err != nil {
			break
		}
	}
	for part := range bodies {
		post(part)
	}
	if err != nil && !errors.Is(err, service.ErrPersist) {
		return total, err
	}
	count, partial := s.routedCount(ctx, sizes)
	total.Size, total.Partial = count.Size, partial
	return total, err
}

// routedCount is a router's corpus: size and adds summed over its
// partitions. A partition in known contributes the size it already reported
// and no adds; any other is read with GET /v1/corpus, and a failed read
// leaves it out of the sums and makes them partial.
func (s *Server) routedCount(ctx context.Context, known map[int]int) (total remote.CorpusCount, partial bool) {
	for part := range s.router.N() {
		if n, ok := known[part]; ok {
			total.Size += n
			continue
		}
		got, err := s.router.Client().CorpusCount(ctx, s.router.Target(part))
		if err != nil {
			partial = true
			continue
		}
		total.Size += got.Size
		total.Adds += got.Adds
	}
	return total, partial
}

// --- cursor plumbing ----------------------------------------------------------

// encodeCursor packs a cursor struct into an opaque URL-safe token.
func encodeCursor(v any) string {
	b, _ := json.Marshal(v)
	return base64.RawURLEncoding.EncodeToString(b)
}

// decodeCursor unpacks a token produced by encodeCursor.
func decodeCursor(token string, into any) error {
	b, err := base64.RawURLEncoding.DecodeString(token)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, into)
}
