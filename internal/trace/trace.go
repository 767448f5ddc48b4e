// Package trace is a zero-dependency, request-scoped tracing and
// instrumentation layer for the serving stack. A Trace is one request's
// span tree: the HTTP middleware starts a root span, every layer underneath
// (engine pool, corpus scatter-gather, WAL group commit) opens child spans
// through the context, and the completed trace lands in a Recorder ring so
// GET /debug/traces doubles as a built-in slow-query log.
//
// The API is built to cost nothing when a request is untraced: Start on a
// context without a span returns a nil *Span, and every Span method is
// nil-safe, so instrumented code calls Start/Annotate/End unconditionally
// and the untraced hot path pays one context lookup.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"sync"
	"time"
)

// MaxSpans bounds one trace's span count: a bulk ingest of thousands of
// entries must not turn its trace into an unbounded allocation. Spans
// started past the cap are dropped (Start returns nil) and counted.
const MaxSpans = 512

// Trace is one request's span tree. Construct with New, start the root with
// StartRoot, finish with Finish once every span has ended. A finished trace
// is immutable and safe to read concurrently; until then only View-free use
// (span Start/End/Annotate) is safe.
type Trace struct {
	id    string
	wall  time.Time // wall-clock start, for display
	begin time.Time // monotonic anchor for span offsets

	mu      sync.Mutex
	spans   []*Span
	dropped int
	err     string
	durNs   int64
	done    bool
}

// New returns a trace with the given id; an empty id generates a fresh
// random one.
func New(id string) *Trace {
	if id == "" {
		id = NewID()
	}
	now := time.Now()
	return &Trace{id: id, wall: now, begin: now}
}

// NewID returns a random 128-bit trace id in lowercase hex (the same shape
// as a W3C traceparent trace-id).
func NewID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to the only
		// entropy already at hand rather than panicking a request.
		return strconv.FormatInt(time.Now().UnixNano(), 16)
	}
	return hex.EncodeToString(b[:])
}

// ID returns the trace id.
func (t *Trace) ID() string { return t.id }

// StartRoot opens the root span. Call once, before any child span.
func (t *Trace) StartRoot(name string) *Span {
	return t.startSpan(name, -1)
}

func (t *Trace) startSpan(name string, parent int) *Span {
	offset := time.Since(t.begin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done || len(t.spans) >= MaxSpans {
		t.dropped++
		return nil
	}
	sp := &Span{t: t, id: len(t.spans), parent: parent, name: name, startNs: offset}
	t.spans = append(t.spans, sp)
	return sp
}

// SetError marks the trace as errored (errored traces get their own
// retention tier in the Recorder). The first non-empty message wins.
func (t *Trace) SetError(msg string) {
	if t == nil || msg == "" {
		return
	}
	t.mu.Lock()
	if t.err == "" {
		t.err = msg
	}
	t.mu.Unlock()
}

// Err returns the trace's error message ("" when none).
func (t *Trace) Err() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Finish seals the trace: the total duration is captured and no further
// spans can start. Call after every span has ended.
func (t *Trace) Finish() {
	d := time.Since(t.begin).Nanoseconds()
	t.mu.Lock()
	if !t.done {
		t.done = true
		t.durNs = d
	}
	t.mu.Unlock()
}

// Duration returns the finished trace's total duration (0 before Finish).
func (t *Trace) Duration() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.durNs)
}

// Span is one timed operation inside a trace. A nil *Span is a valid no-op:
// every method checks the receiver, so untraced code paths need no guards.
type Span struct {
	t       *Trace
	id      int
	parent  int
	name    string
	startNs int64

	mu    sync.Mutex
	durNs int64 // 0 while open
	attrs []Attr
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key string `json:"key"`
	Val string `json:"val"`
}

// Trace returns the span's trace (nil for a nil span).
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.t
}

// End records the span's duration. Idempotent: the first End wins.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.t.begin).Nanoseconds() - s.startNs
	s.mu.Lock()
	if s.durNs == 0 {
		s.durNs = max(d, 1) // a span never reports 0ns: that means "still open"
	}
	s.mu.Unlock()
}

// Annotate attaches a key/value pair to the span.
func (s *Span) Annotate(key, val string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
	s.mu.Unlock()
}

// AnnotateInt attaches an integer annotation.
func (s *Span) AnnotateInt(key string, v int64) {
	s.Annotate(key, strconv.FormatInt(v, 10))
}

// --- context plumbing ---------------------------------------------------------

type ctxKey struct{}

// ContextWithSpan returns ctx carrying sp as the active span.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, sp)
}

// SpanFrom returns the active span carried by ctx, or nil when the request
// is untraced.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// Start opens a child of ctx's active span and returns a context carrying
// it. On an untraced context (or a trace at its span cap) it returns ctx
// unchanged and a nil span — the caller's End/Annotate calls then no-op.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFrom(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.t.startSpan(name, parent.id)
	if sp == nil {
		return ctx, nil
	}
	return ContextWithSpan(ctx, sp), sp
}

// --- serialized views ---------------------------------------------------------

// View is the JSON form of a finished trace (GET /debug/traces/{id}).
type View struct {
	TraceID      string     `json:"trace_id"`
	Start        time.Time  `json:"start"`
	DurationUs   float64    `json:"duration_us"`
	Error        string     `json:"error,omitempty"`
	DroppedSpans int        `json:"dropped_spans,omitempty"`
	Spans        []SpanView `json:"spans"`
}

// SpanView is the JSON form of one span. Parent is -1 for the root; StartUs
// is the offset from the trace start.
type SpanView struct {
	ID         int     `json:"id"`
	Parent     int     `json:"parent"`
	Name       string  `json:"name"`
	StartUs    float64 `json:"start_us"`
	DurationUs float64 `json:"duration_us"`
	Attrs      []Attr  `json:"attrs,omitempty"`
}

// View materializes the trace for serialization. Call after Finish.
func (t *Trace) View() View {
	t.mu.Lock()
	spans := make([]*Span, len(t.spans))
	copy(spans, t.spans)
	v := View{
		TraceID:      t.id,
		Start:        t.wall,
		DurationUs:   float64(t.durNs) / 1e3,
		Error:        t.err,
		DroppedSpans: t.dropped,
		Spans:        make([]SpanView, 0, len(spans)),
	}
	t.mu.Unlock()
	for _, sp := range spans {
		sp.mu.Lock()
		sv := SpanView{
			ID:         sp.id,
			Parent:     sp.parent,
			Name:       sp.name,
			StartUs:    float64(sp.startNs) / 1e3,
			DurationUs: float64(sp.durNs) / 1e3,
		}
		if len(sp.attrs) > 0 {
			sv.Attrs = append([]Attr(nil), sp.attrs...)
		}
		sp.mu.Unlock()
		v.Spans = append(v.Spans, sv)
	}
	return v
}

// Summary is the JSON form of one trace in the GET /debug/traces listing.
type Summary struct {
	TraceID    string    `json:"trace_id"`
	Root       string    `json:"root"`
	Start      time.Time `json:"start"`
	DurationUs float64   `json:"duration_us"`
	Error      string    `json:"error,omitempty"`
	Spans      int       `json:"spans"`
}

// Summary materializes the listing row. Call after Finish.
func (t *Trace) Summary() Summary {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Summary{
		TraceID:    t.id,
		Start:      t.wall,
		DurationUs: float64(t.durNs) / 1e3,
		Error:      t.err,
		Spans:      len(t.spans),
	}
	if len(t.spans) > 0 {
		s.Root = t.spans[0].name
	}
	return s
}

// FormatTraceparent renders a W3C traceparent header value carrying the
// given trace id with a freshly generated span id and the sampled flag —
// the outbound half of ParseTraceparent, used when a router node forwards a
// request to a shard node so both sides land in the same trace. It returns
// "" unless traceID is exactly 32 lowercase hex characters (ids minted by
// NewID always are; ids recovered from an X-Request-Id header may not be).
func FormatTraceparent(traceID string) string {
	if len(traceID) != 32 {
		return ""
	}
	for i := 0; i < len(traceID); i++ {
		c := traceID[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return ""
		}
	}
	if traceID == "00000000000000000000000000000000" {
		return ""
	}
	return "00-" + traceID + "-" + NewID()[:16] + "-01"
}

// ParseTraceparent extracts the trace-id field from a W3C traceparent
// header value ("00-<32 hex trace-id>-<16 hex span-id>-<2 hex flags>").
// It returns "" when the value does not look like one.
func ParseTraceparent(v string) string {
	// version "-" traceid "-" spanid "-" flags
	if len(v) != 55 || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return ""
	}
	id := v[3:35]
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return ""
		}
	}
	if id == "00000000000000000000000000000000" {
		return ""
	}
	return id
}
