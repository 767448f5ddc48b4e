package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"
	"slices"
	"time"

	"repro/internal/ccd"
	"repro/internal/service"
)

// Bulk NDJSON ingest limits: one JSON document per line.
const (
	// maxBulkLineBytes bounds a single NDJSON line (one contract): as long
	// as a request body, so a /v1/corpus entry fits one line as well.
	maxBulkLineBytes = maxBodyBytes
	// bulkChunk is how many parsed lines (at most maxBodyBytes of them) go
	// through the engine as one batch (one WAL write, one fsync, one publish
	// per shard); bounded so a huge stream never materializes in memory.
	bulkChunk = 256
	// maxBulkErrors caps how many per-line error details are reported back.
	maxBulkErrors = 10
)

// BulkEntry is one NDJSON line of a /v1/corpus/bulk stream: an id plus
// either a source to fingerprint or a precomputed fingerprint (which wins
// when both are present).
type BulkEntry struct {
	ID          string `json:"id"`
	Source      string `json:"source,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
}

// BulkResponse summarizes a streaming ingest.
type BulkResponse struct {
	// Added counts entries indexed AND journaled (including ones with parse
	// issues). On a persistence failure the response still carries the exact
	// count, so the client's accounting always agrees with what a WAL replay
	// will reproduce on boot.
	Added int `json:"added"`
	// ParseIssues counts entries indexed with partial fingerprints.
	ParseIssues int `json:"parse_issues"`
	// Malformed counts skipped lines (bad JSON, missing fields, oversized).
	Malformed int `json:"malformed"`
	// PersistFailures counts entries whose WAL append failed: they were NOT
	// acknowledged, are not in the corpus, and will not replay.
	PersistFailures int `json:"persist_failures,omitempty"`
	// Skipped counts entries a partition-pinned shard node refused because
	// the consistent-hash ring assigns them to another partition.
	Skipped int `json:"skipped,omitempty"`
	// Errors details the first few malformed lines.
	Errors []string `json:"errors,omitempty"`
	// Size is the corpus size after the request; Partial marks a router's
	// sum that misses a partition whose size could not be read.
	Size    int  `json:"size"`
	Partial bool `json:"partial,omitempty"`
	// Error carries the persistence failure that aborted the stream.
	Error string `json:"error,omitempty"`
}

// ingestFunc adds a request's valid entries, batch by batch, the way the
// server's role does, and returns their counts with Size the corpus size
// after the request. A persistence failure ends it with an error wrapping
// service.ErrPersist and exact counts; any other error fails the request. A
// batch is not used once the next one is asked for.
type ingestFunc func(ctx context.Context, batches iter.Seq[[]service.CorpusEntry]) (BulkResponse, error)

// ingestLocal is a single or shard node's ingestFunc: a shard counts the
// entries another partition owns as skipped (dropping them from the batch in
// place), and the rest of a batch go through the engine at once.
func (s *Server) ingestLocal(ctx context.Context, batches iter.Seq[[]service.CorpusEntry]) (BulkResponse, error) {
	var resp BulkResponse
	var persistErr error
	for batch := range batches {
		owned := slices.DeleteFunc(batch, func(e service.CorpusEntry) bool {
			return s.role == roleShard && s.partRing.Owner(e.ID) != s.partIdx
		})
		resp.Skipped += len(batch) - len(owned)
		for _, err := range s.engine.CorpusAddBatchCtx(ctx, owned) {
			switch {
			case err == nil:
				resp.Added++
			case errors.Is(err, service.ErrPersist):
				resp.PersistFailures++
				persistErr = err
			default:
				resp.ParseIssues++
				resp.Added++ // indexed with a partial fingerprint
			}
		}
		if persistErr != nil {
			break
		}
	}
	resp.Size = s.engine.Corpus().Len()
	return resp, persistErr
}

// bulkLine appends e to buf as one /v1/corpus/bulk line, the form a router
// forwards entries in.
func bulkLine(buf *bytes.Buffer, e BulkEntry) {
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false) // a source's < > & cross as themselves
	_ = enc.Encode(e)
}

// fitsBulkLine reports whether bulkLine writes e within maxBulkLineBytes. It
// can write more than it was sent (U+2028 as a 6-byte escape, an invalid
// UTF-8 byte decoded as 3-byte U+FFFD), but no byte of a string grows past 6,
// so only a long entry is written to check.
func fitsBulkLine(e BulkEntry) bool {
	if 6*(len(e.ID)+len(e.Source)+len(e.Fingerprint))+64 <= maxBulkLineBytes {
		return true
	}
	var buf bytes.Buffer
	bulkLine(&buf, e)
	return buf.Len() <= maxBulkLineBytes
}

// errBadStream marks a bulk body that broke mid-stream (an oversized line,
// a dropped connection); the request answers 400 naming the line.
var errBadStream = errors.New("read stream")

// readBulk is the NDJSON line loop of /v1/corpus/bulk on every role. It
// numbers lines, skips empty ones, decodes each line once and counts it into
// resp as malformed (with the first few line details) unless it carries an
// id plus a source or fingerprint and fits one bulk line. The valid entries
// go to yield a chunk at a time; the read stops when yield returns false, and
// a body that breaks mid-stream returns an error wrapping errBadStream.
func readBulk(body io.Reader, resp *BulkResponse, yield func([]service.CorpusEntry) bool) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), maxBulkLineBytes)
	chunk, held, line := make([]service.CorpusEntry, 0, bulkChunk), 0, 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var e BulkEntry
		msg := ""
		switch err := json.Unmarshal(raw, &e); {
		case err != nil:
			msg = "bad JSON: " + err.Error()
		case e.ID == "":
			msg = "missing id"
		case e.Source == "" && e.Fingerprint == "":
			msg = "missing source or fingerprint"
		case !fitsBulkLine(e):
			msg = "longer than a bulk line (8 MiB) once written as one"
		}
		if msg != "" {
			resp.Malformed++
			if len(resp.Errors) < maxBulkErrors {
				resp.Errors = append(resp.Errors, fmt.Sprintf("line %d: %s", line, msg))
			}
			continue
		}
		chunk = append(chunk, service.CorpusEntry{ID: e.ID, Source: e.Source, Fingerprint: ccd.Fingerprint(e.Fingerprint)})
		if held += len(raw); len(chunk) == bulkChunk || held >= maxBodyBytes {
			if !yield(chunk) {
				return nil
			}
			chunk, held = chunk[:0], 0
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%w at line %d: %s", errBadStream, line+1, err)
	}
	if len(chunk) > 0 {
		yield(chunk)
	}
	return nil
}

// handleCorpusBulk streams NDJSON — {"id": ..., "source": ...} or
// {"id": ..., "fingerprint": ...} per line — into the serving corpus, one
// ingest batch per chunk. Malformed lines are skipped and counted; a
// persistence failure aborts the stream with 500 and the exact counts so
// far: a batch is journaled whole or not at all, and earlier ones stay.
func (s *Server) handleCorpusBulk(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	var lines BulkResponse // the malformed lines; the ingest counts the rest
	var readErr error
	resp, err := s.ingest(ctx, func(yield func([]service.CorpusEntry) bool) {
		readErr = readBulk(r.Body, &lines, yield)
	})
	if err == nil {
		err = readErr
	}
	resp.Malformed, resp.Errors = lines.Malformed, lines.Errors
	switch {
	case errors.Is(err, errBadStream):
		writeError(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, service.ErrPersist):
		resp.Error = err.Error()
		writeJSON(w, http.StatusInternalServerError, resp)
	case err != nil:
		if ctx.Err() == nil {
			writeRemoteError(w, err)
		}
	default:
		writeJSON(w, http.StatusOK, resp)
	}
}

// SnapshotResponse reports a /v1/corpus/snapshot call.
type SnapshotResponse struct {
	Path    string `json:"path"`
	Bytes   int64  `json:"bytes"`
	Entries int    `json:"entries"`
	Elapsed string `json:"elapsed"`
}

// handleCorpusSnapshot persists the corpus and truncates the WAL. Requires
// the server to run with persistence enabled (-corpus-dir).
func (s *Server) handleCorpusSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusConflict, "persistence not enabled (start serve with -corpus-dir)")
		return
	}
	info, err := s.store.Snapshot()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "snapshot: "+err.Error())
		return
	}
	writeJSON(w, http.StatusOK, SnapshotResponse{
		Path:    info.Path,
		Bytes:   info.Bytes,
		Entries: info.Entries,
		Elapsed: info.Elapsed.Round(time.Millisecond).String(),
	})
}

// handleCorpusExport streams the corpus in the binary snapshot format; the
// result feeds straight back into -corpus-dir (as corpus.snap) or another
// instance's restore. Works with or without persistence enabled.
//
// ?format=ndjson (or any ?cursor=) selects the paginated NDJSON form
// instead: pages of {"id", "fingerprint"} lines with an opaque resume token
// in the X-Next-Cursor response header (absent on the last page), bounded
// by ?limit= (default 10000). The router streams partition exports through
// this without unbounded responses. The cursor is positional over the
// id-sorted shard entries, so pages taken across concurrent ingest are a
// best-effort enumeration, not a point-in-time snapshot — bit-exact copies
// use the binary form.
func (s *Server) handleCorpusExport(w http.ResponseWriter, r *http.Request) {
	qp := r.URL.Query()
	if qp.Get("format") == "ndjson" || qp.Has("cursor") {
		s.handleCorpusExportNDJSON(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="corpus.snap"`)
	w.Header().Set("X-Corpus-Snapshot-Version", fmt.Sprint(service.CorpusSnapshotVersion))
	// A failed write comes after the headers; the per-shard CRCs make the
	// truncated download detectable client-side.
	_ = s.engine.Corpus().WriteSnapshot(w)
}

// exportCursor is the resume position of a paginated NDJSON export: the
// next generation-shard and the offset into its id-sorted entry list.
type exportCursor struct {
	Shard  int `json:"s"`
	Offset int `json:"o"`
}

// defaultExportPage bounds one NDJSON export page when ?limit= is absent.
const defaultExportPage = 10000

// handleCorpusExportNDJSON serves one page of the cursor-paginated export.
// The page is gathered before any byte is written so the X-Next-Cursor
// header can precede the body.
func (s *Server) handleCorpusExportNDJSON(w http.ResponseWriter, r *http.Request) {
	qp := r.URL.Query()
	limit, ok := intParam(w, qp, "limit", defaultExportPage, 1)
	if !ok {
		return
	}
	var cur exportCursor
	if v := qp.Get("cursor"); v != "" {
		if err := decodeCursor(v, &cur); err != nil || cur.Shard < 0 || cur.Offset < 0 {
			writeError(w, http.StatusBadRequest, "bad \"cursor\" (tokens come from X-Next-Cursor, opaque)")
			return
		}
	}
	corpus := s.engine.Corpus()
	page := make([]BulkEntry, 0, min(limit, 4096))
	for cur.Shard < corpus.Shards() && len(page) < limit {
		entries, _ := corpus.ShardEntries(cur.Shard) // cur.Shard is in range
		if cur.Offset >= len(entries) {
			cur.Shard, cur.Offset = cur.Shard+1, 0
			continue
		}
		take := min(limit-len(page), len(entries)-cur.Offset)
		for _, e := range entries[cur.Offset : cur.Offset+take] {
			page = append(page, BulkEntry{ID: e.ID, Fingerprint: string(e.FP)})
		}
		cur.Offset += take
	}
	if cur.Shard < corpus.Shards() {
		w.Header().Set("X-Next-Cursor", encodeCursor(cur))
	}
	writeNDJSON(w, page)
}
