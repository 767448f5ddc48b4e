package api

import (
	"cmp"
	"context"
	"errors"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/trace"
)

// endpointStats aggregates one route's requests for /metrics: a total
// counter, per-status-class counters and a latency histogram.
type endpointStats struct {
	count   atomic.Int64
	classes [6]atomic.Int64 // indexed status/100; [0] collects the implausible
	latency trace.Hist
}

func (st *endpointStats) observe(status int, d time.Duration) {
	st.count.Add(1)
	c := status / 100
	if c < 0 || c >= len(st.classes) {
		c = 0
	}
	st.classes[c].Add(1)
	st.latency.ObserveDuration(d)
}

// statusClasses maps class index to the label used in /metrics.
var statusClasses = [6]string{"other", "1xx", "2xx", "3xx", "4xx", "5xx"}

// traceWriter is the ResponseWriter handed to traced handlers. It captures
// the status code for the endpoint stats and carries the request's trace, so
// writeError can stamp the trace id into error payloads without every call
// site threading it through.
type traceWriter struct {
	http.ResponseWriter
	trace  *trace.Trace
	status int
}

func (tw *traceWriter) WriteHeader(code int) {
	if tw.status == 0 {
		tw.status = code
	}
	tw.ResponseWriter.WriteHeader(code)
}

func (tw *traceWriter) Write(b []byte) (int, error) {
	if tw.status == 0 {
		tw.status = http.StatusOK
	}
	return tw.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so streaming endpoints (bulk
// ingest, NDJSON exports) keep working through the wrapper.
func (tw *traceWriter) Flush() {
	if f, ok := tw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps pattern's handler h in its endpoint stats for /metrics.
// A traced route also gets a trace (honoring an inbound X-Request-Id or W3C
// traceparent), its id echoed in the X-Trace-Id response header, a root span
// named after the pattern, and the finished trace kept in the recorder.
func (s *Server) instrument(pattern string, h http.HandlerFunc, traced bool) http.HandlerFunc {
	st := &endpointStats{}
	s.endpoints[pattern] = st
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if !traced {
			tw := &traceWriter{ResponseWriter: w}
			h(tw, r)
			st.observe(cmp.Or(tw.status, http.StatusOK), time.Since(start))
			return
		}
		tr := trace.New(inboundTraceID(r))
		root := tr.StartRoot(pattern)
		w.Header().Set("X-Trace-Id", tr.ID())
		tw := &traceWriter{ResponseWriter: w, trace: tr}
		ctx := trace.ContextWithSpan(r.Context(), root)
		// Deadline budget: a client-declared X-Request-Timeout (or
		// ?timeout=) becomes both a context deadline — queue wait subtracts
		// from it implicitly — and a service.Budget value, so downstream
		// layers can tell "time ran out" (serve a degraded partial) from
		// "client hung up" (serve nothing).
		if d, ok := requestTimeout(r); ok {
			if s.maxDeadline > 0 && d > s.maxDeadline {
				d = s.maxDeadline
			}
			root.AnnotateInt("budget_ms", d.Milliseconds())
			deadline := time.Now().Add(d)
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, deadline)
			defer cancel()
			ctx = service.WithBudget(ctx, service.Budget{Deadline: deadline})
			s.engine.NoteBudgetRequest()
		}
		h(tw, r.WithContext(ctx))
		status := tw.status
		if status == 0 {
			// The handler wrote nothing — a cancelled client, typically.
			status = http.StatusOK
			if err := ctx.Err(); err != nil {
				if errors.Is(err, context.DeadlineExceeded) {
					// The budget ran out on a handler with nothing partial
					// to serve: an honest timeout, not a disconnect.
					writeError(tw, http.StatusGatewayTimeout, "request deadline exceeded")
					status = tw.status
				} else {
					status = statusClientClosedRequest
					tr.SetError(err.Error())
				}
			}
		}
		elapsed := time.Since(start)
		root.AnnotateInt("status", int64(status))
		root.End()
		tr.Finish()
		s.recorder.Record(tr)
		st.observe(status, elapsed)
		if s.logger != nil {
			lvl := slog.LevelDebug
			if status >= 400 {
				lvl = slog.LevelWarn
			}
			s.logger.LogAttrs(r.Context(), lvl, "request",
				slog.String("trace_id", tr.ID()),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", status),
				slog.Duration("elapsed", elapsed),
			)
		}
	}
}

// statusClientClosedRequest is nginx's conventional code for a client that
// disconnected before the response was written.
const statusClientClosedRequest = 499

// requestTimeout reads the client's declared deadline budget: the
// X-Request-Timeout header wins over the ?timeout= query parameter. Both
// accept a Go duration string ("50ms", "2s") or a bare integer of
// milliseconds. Unparsable or non-positive values are ignored — a garbled
// budget must not fail a request that would have succeeded without one.
func requestTimeout(r *http.Request) (time.Duration, bool) {
	v := strings.TrimSpace(r.Header.Get("X-Request-Timeout"))
	if v == "" {
		v = strings.TrimSpace(r.URL.Query().Get("timeout"))
	}
	if v == "" {
		return 0, false
	}
	if ms, err := strconv.ParseInt(v, 10, 64); err == nil {
		if ms <= 0 {
			return 0, false
		}
		return time.Duration(ms) * time.Millisecond, true
	}
	if d, err := time.ParseDuration(v); err == nil && d > 0 {
		return d, true
	}
	return 0, false
}

// inboundTraceID extracts a caller-supplied trace id: X-Request-Id wins
// (verbatim, when it looks like a sane token), then the W3C traceparent's
// trace-id field. Empty means "generate one".
func inboundTraceID(r *http.Request) string {
	if v := strings.TrimSpace(r.Header.Get("X-Request-Id")); v != "" && len(v) <= 128 && isIDToken(v) {
		return v
	}
	return trace.ParseTraceparent(r.Header.Get("Traceparent"))
}

// isIDToken accepts the unreserved URI characters — enough for every request
// id scheme in the wild, and nothing that needs escaping in logs or JSON.
func isIDToken(v string) bool {
	for i := 0; i < len(v); i++ {
		c := v[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.' || c == '~':
		default:
			return false
		}
	}
	return true
}

// EndpointMetrics is the JSON view of one route's request stats.
type EndpointMetrics struct {
	Count   int64                `json:"count"`
	ByClass map[string]int64     `json:"by_class,omitempty"`
	Latency service.LatencyStats `json:"latency"`
}

// endpointMetrics snapshots every registered route's stats.
func (s *Server) endpointMetrics() map[string]EndpointMetrics {
	out := make(map[string]EndpointMetrics, len(s.endpoints))
	for pattern, st := range s.endpoints {
		m := EndpointMetrics{
			Count:   st.count.Load(),
			Latency: service.SummarizeLatency(&st.latency),
		}
		for i := range st.classes {
			if n := st.classes[i].Load(); n > 0 {
				if m.ByClass == nil {
					m.ByClass = make(map[string]int64)
				}
				m.ByClass[statusClasses[i]] = n
			}
		}
		out[pattern] = m
	}
	return out
}
