package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/ccd"
	"repro/internal/trace"
)

// Client is the router's transport to shard nodes: HTTP/1.1 with keep-alive
// connection pooling, so steady-state fanout reuses warm TCP connections and
// a shard request costs one write + one read, no handshake. Match fanout
// speaks the binary shard match messages (see the package doc); ingest
// forwarding, exports and the WAL stream speak JSON and NDJSON. A Client is
// safe for concurrent use and shared across every shard the router talks to.
type Client struct {
	hc *http.Client
}

// NewClient returns a client with a connection pool sized for scatter-gather
// fanout. timeout bounds one shard request end to end (0 = no client-side
// deadline; the per-request context still applies).
func NewClient(timeout time.Duration) *Client {
	return &Client{hc: &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			// Each wave hits every shard at once; keep enough warm
			// connections per host that fanout never waits on dials.
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     90 * time.Second,
		},
	}}
}

// MatchShard runs one partition-local match on the shard at base
// (e.g. "http://10.0.0.7:8080"). Non-2xx responses come back as
// *StatusError with any Retry-After preserved; a 2xx body that does not
// decode is an error as well.
func (c *Client) MatchShard(ctx context.Context, base string, req ShardMatchRequest) (ShardMatchResponse, error) {
	var resp ShardMatchResponse
	body, err := req.MarshalBinary()
	if err != nil {
		return resp, err
	}
	hresp, err := c.send(ctx, http.MethodPost, base+"/v1/shard/match", "application/octet-stream", body, nil)
	if err != nil {
		return resp, err
	}
	defer drainClose(hresp.Body)
	if body, err = io.ReadAll(hresp.Body); err == nil {
		err = resp.UnmarshalBinary(body)
	}
	return resp, err
}

// PostNDJSON posts an NDJSON body to url and decodes the answer into out —
// bulk-ingest forwarding to the shard that owns a chunk of lines.
func (c *Client) PostNDJSON(ctx context.Context, url string, body []byte, out any) error {
	return c.post(ctx, url, "application/x-ndjson", body, out)
}

// post sends body and decodes a 2xx answer into out. Any other answer is a
// *StatusError, and a 500's body is decoded into out as well: a shard's bulk
// ingest that failed to persist carries its exact accounting there.
func (c *Client) post(ctx context.Context, url, contentType string, body []byte, out any) error {
	hresp, err := c.send(ctx, http.MethodPost, url, contentType, body, out)
	if err != nil {
		return err
	}
	defer drainClose(hresp.Body)
	return json.NewDecoder(hresp.Body).Decode(out)
}

// decorate attaches the propagation headers: the current trace id rides a
// W3C traceparent when it has the canonical 32-hex shape, and X-Request-Id
// otherwise, so a request's spans on router and shard share one trace id end
// to end. A context deadline rides along as X-Request-Timeout (remaining
// milliseconds at send time, at least 1 so that a shard still learns a
// budget applies), so every shard-bound request — match fanout, ingest
// forwarding, exports — inherits the router's remaining budget.
func (c *Client) decorate(ctx context.Context, hreq *http.Request) {
	if dl, ok := ctx.Deadline(); ok {
		ms := max(time.Until(dl).Milliseconds(), 1)
		hreq.Header.Set("X-Request-Timeout", strconv.FormatInt(ms, 10))
	}
	tr := trace.SpanFrom(ctx).Trace()
	if tr == nil {
		return
	}
	if tp := trace.FormatTraceparent(tr.ID()); tp != "" {
		hreq.Header.Set("Traceparent", tp)
	} else {
		hreq.Header.Set("X-Request-Id", tr.ID())
	}
}

// get issues a decorated GET and returns its 2xx response.
func (c *Client) get(ctx context.Context, url string) (*http.Response, error) {
	return c.send(ctx, http.MethodGet, url, "", nil, nil)
}

// send issues a decorated request and returns its 2xx response. Any other
// status is a *StatusError (see statusError for out).
func (c *Client) send(ctx context.Context, method, url, contentType string, body []byte, out any) (*http.Response, error) {
	hreq, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		hreq.Header.Set("Content-Type", contentType)
	}
	c.decorate(ctx, hreq)
	hresp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	if hresp.StatusCode/100 != 2 {
		defer drainClose(hresp.Body)
		return nil, statusError(hresp, out)
	}
	return hresp, nil
}

// CorpusCount is what a node's GET /v1/corpus says it holds.
type CorpusCount struct {
	Size int // documents in the corpus
	Adds int // documents indexed since the node booted (corpus.adds)
}

// CorpusCount reads a node's corpus size and adds from one GET /v1/corpus.
func (c *Client) CorpusCount(ctx context.Context, base string) (CorpusCount, error) {
	var info struct {
		Size   int
		Corpus struct{ Adds int }
	}
	hresp, err := c.get(ctx, base+"/v1/corpus")
	if err == nil {
		defer drainClose(hresp.Body)
		err = json.NewDecoder(hresp.Body).Decode(&info)
	}
	return CorpusCount{Size: info.Size, Adds: info.Corpus.Adds}, err
}

// FetchSnapshot downloads the shard's binary corpus snapshot
// (GET /v1/corpus/export) into w — the first half of replica bootstrap.
func (c *Client) FetchSnapshot(ctx context.Context, base string, w io.Writer) (int64, error) {
	hresp, err := c.get(ctx, base+"/v1/corpus/export")
	if err != nil {
		return 0, err
	}
	defer drainClose(hresp.Body)
	return io.Copy(w, hresp.Body)
}

// StreamWAL replays the shard's WAL tail from record position `from` in WAL
// generation `epoch` (0 = unknown, first contact), invoking fn per record,
// and returns the next position plus the generation it belongs to — callers
// echo both on the next call, which is what lets the shard detect a stale
// position after it snapshots and truncates its log. The server pages the
// stream (X-WAL-More marks a cut page); this walks pages until the tail is
// drained. A 410 comes back as *StatusError{Status: 410}: the shard's WAL
// generation moved past the caller's and the replica must re-sync before
// resuming.
func (c *Client) StreamWAL(ctx context.Context, base string, from int, epoch int64, fn func(WALRecord) error) (int, int64, error) {
	next := from
	for {
		url := fmt.Sprintf("%s/v1/wal/stream?from=%d", base, next)
		if epoch != 0 {
			url += fmt.Sprintf("&epoch=%d", epoch)
		}
		more, err := c.walPage(ctx, url, &next, &epoch, fn)
		if err != nil || !more {
			return next, epoch, err
		}
	}
}

// walPage fetches one WAL stream page, advancing *next per record and
// adopting the server's generation into *epoch. It reports whether the
// server cut the page (more records are ready right now).
func (c *Client) walPage(ctx context.Context, url string, next *int, epoch *int64, fn func(WALRecord) error) (bool, error) {
	hresp, err := c.get(ctx, url)
	if err != nil {
		return false, err
	}
	defer drainClose(hresp.Body)
	if e, perr := strconv.ParseInt(hresp.Header.Get("X-WAL-Epoch"), 10, 64); perr == nil && e > 0 {
		*epoch = e
	}
	err = eachLine(hresp.Body, func(line []byte) error {
		var rec WALRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("wal stream: bad record after seq %d: %w", *next, err)
		}
		if err := fn(rec); err != nil {
			return err
		}
		*next = rec.Seq + 1
		return nil
	})
	return err == nil && hresp.Header.Get("X-WAL-More") == "1", err
}

// ExportEntries walks the shard's paginated NDJSON corpus export
// (GET /v1/corpus/export?format=ndjson&cursor=...), invoking fn once per
// page until the export is exhausted — replica re-sync and the router's
// clone study stream partitions through this, never holding more than one
// page.
func (c *Client) ExportEntries(ctx context.Context, base string, fn func([]ccd.Entry) error) error {
	for cursor := ""; ; {
		url := base + "/v1/corpus/export?format=ndjson"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		next, err := c.exportPage(ctx, url, fn)
		if err != nil || next == "" {
			return err
		}
		cursor = next
	}
}

// exportPage reads one export page and hands it to fn, returning the next
// cursor ("" when the export is complete).
func (c *Client) exportPage(ctx context.Context, url string, fn func([]ccd.Entry) error) (string, error) {
	hresp, err := c.get(ctx, url)
	if err != nil {
		return "", err
	}
	defer drainClose(hresp.Body)
	var page []ccd.Entry
	err = eachLine(hresp.Body, func(line []byte) error {
		var e struct {
			ID          string `json:"id"`
			Fingerprint string `json:"fingerprint"`
		}
		if err := json.Unmarshal(line, &e); err != nil {
			return fmt.Errorf("corpus export: bad entry: %w", err)
		}
		page = append(page, ccd.Entry{ID: e.ID, FP: ccd.Fingerprint(e.Fingerprint)})
		return nil
	})
	if err == nil {
		err = fn(page)
	}
	if err != nil {
		return "", err
	}
	return hresp.Header.Get("X-Next-Cursor"), nil
}

// eachLine calls fn on every non-blank line of an NDJSON body (4 MiB at
// most a line) until fn or the read fails.
func eachLine(body io.Reader, fn func([]byte) error) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		if err := fn(sc.Bytes()); err != nil {
			return err
		}
	}
	return sc.Err()
}

// statusError converts a non-2xx response into a *StatusError, preserving
// Retry-After (header first, JSON body's retry_after_seconds as fallback)
// and the error message when the body is the API's JSON error shape. A 500's
// body is also decoded into out when out is not nil.
func statusError(hresp *http.Response, out any) error {
	se := &StatusError{Status: hresp.StatusCode}
	if v := hresp.Header.Get("Retry-After"); v != "" {
		if n, err := strconv.Atoi(strings.TrimSpace(v)); err == nil && n > 0 {
			se.RetryAfterSeconds = n
		}
	}
	body, _ := io.ReadAll(io.LimitReader(hresp.Body, 16<<10))
	var payload struct {
		Error             string `json:"error"`
		RetryAfterSeconds int    `json:"retry_after_seconds"`
	}
	if out != nil && hresp.StatusCode == http.StatusInternalServerError {
		_ = json.Unmarshal(body, out)
	}
	if json.Unmarshal(body, &payload) == nil {
		se.Msg = payload.Error
		if se.RetryAfterSeconds == 0 {
			se.RetryAfterSeconds = payload.RetryAfterSeconds
		}
	}
	return se
}

// drainClose drains and closes a response body so the underlying connection
// returns to the keep-alive pool instead of being torn down.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 1<<20))
	_ = body.Close()
}
