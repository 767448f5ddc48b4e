// Package api exposes the concurrent analysis engine over an HTTP JSON API:
// CCC vulnerability analysis (/v1/analyze), CCD fingerprinting
// (/v1/fingerprint), corpus ingest and clone matching (/v1/corpus,
// /v1/match), asynchronous full-study jobs (/v1/study), plus health and
// metrics endpoints. cmd/serve wires it to a listener.
package api

import (
	"bufio"
	"context"
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/ccc"
	"repro/internal/ccd"
	"repro/internal/pipeline"
	"repro/internal/remote"
	"repro/internal/service"
	"repro/internal/trace"
)

// maxBodyBytes bounds request bodies (contracts are small; 8 MiB leaves
// room for large batches).
const maxBodyBytes = 8 << 20

// maxStudyScale caps the corpus scale an HTTP client may request; the full
// paper-size study (1.0) takes minutes of CPU.
const maxStudyScale = 1.0

// Server handles the JSON API around one engine.
type Server struct {
	engine *service.Engine
	store  *service.Store // nil when persistence is disabled
	jobs   *jobStore
	start  time.Time

	// mux is built once in NewServer so the endpoints map is complete
	// before the first request — reads are lock-free after that.
	mux       *http.ServeMux
	endpoints map[string]*endpointStats
	recorder  *trace.Recorder
	logger    *slog.Logger // nil disables request logging
	ready     func() bool  // the store's readiness, or always true without one

	// limiter is the per-client token-bucket (nil without WithRateLimit);
	// rateLimited counts requests it refused.
	limiter     *rateLimiter
	rateLimited atomic.Int64

	// maxDeadline clamps client-declared X-Request-Timeout budgets (0:
	// DefaultMaxDeadline; see WithMaxDeadline).
	maxDeadline time.Duration

	// role is what this server answers as; every role decision reads it.
	role   role
	router *remote.Router
	// match answers one /v1/match query the way this server's role does
	// (matchLocal or matchRouted); fanout is the partition count its
	// answers gather over, reported by explain=1. ingest adds one batch of
	// /v1/corpus or /v1/corpus/bulk entries (ingestLocal or ingestRouted).
	match  matchFunc
	fanout int
	ingest ingestFunc
	// partRing/partIdx pin a shard to its partition (WithPartition): ingest
	// skips entries another partition owns.
	partRing *remote.Ring
	partIdx  int

	// clusters holds the cluster set of the most recently completed corpus
	// study, served by /v1/clusters and its export (nil before the first).
	clusters atomic.Pointer[studyClusters]
}

// Option configures a Server.
type Option func(*Server)

// WithStore enables the persistence endpoints (/v1/corpus/snapshot) against
// the store backing the engine's corpus.
func WithStore(store *service.Store) Option {
	return func(s *Server) { s.store = store }
}

// WithLogger enables per-request structured logging (errors at Warn,
// everything else at Debug), each line carrying the request's trace id.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.logger = l }
}

// WithRateLimit enables per-client token-bucket rate limiting on the /v1
// routes: each client (X-API-Key header, else remote address) accrues rps
// requests per second up to burst. Observability endpoints are exempt — a
// scrape or probe must work exactly when the limiter is busiest.
func WithRateLimit(rps float64, burst int) Option {
	return func(s *Server) {
		if rps > 0 {
			s.limiter = newRateLimiter(rps, burst)
		}
	}
}

// WithTraceBuffer sizes the completed-trace ring served at /debug/traces
// (recent capacity n, slowest-N retention slow). Zeroes keep the defaults.
func WithTraceBuffer(n, slow int) Option {
	return func(s *Server) { s.recorder = trace.NewRecorder(n, slow) }
}

// DefaultMaxDeadline is the ceiling applied to client-declared request
// budgets when WithMaxDeadline is not used.
const DefaultMaxDeadline = 30 * time.Second

// WithMaxDeadline clamps client-declared deadline budgets (X-Request-Timeout
// / ?timeout=): a client may always ask for less time, never more. d ≤ 0
// keeps DefaultMaxDeadline.
func WithMaxDeadline(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.maxDeadline = d
		}
	}
}

// NewServer returns a server around engine.
func NewServer(engine *service.Engine, opts ...Option) *Server {
	s := &Server{
		engine:    engine,
		jobs:      newJobStore(),
		start:     time.Now(),
		endpoints: make(map[string]*endpointStats),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.recorder == nil {
		s.recorder = trace.NewRecorder(0, 0)
	}
	if s.maxDeadline <= 0 {
		s.maxDeadline = DefaultMaxDeadline
	}
	s.match, s.fanout, s.ingest = s.matchLocal, engine.Corpus().Shards(), s.ingestLocal
	if s.role == roleRouter {
		s.match, s.fanout, s.ingest = s.matchRouted, s.router.N(), s.ingestRouted
	}
	s.ready = func() bool { return true }
	if s.store != nil {
		s.ready = s.store.Ready
	}

	s.mux = http.NewServeMux()
	for _, rt := range routes {
		s.mux.HandleFunc(rt.pattern, s.handler(rt))
	}
	return s
}

// guards is what a route's requests pass before its handler. Every /v1 route
// is traced and rate-limited; the flags add, in this order after the rate
// limit (cheapest, per-client fairness): admission (global overload), then
// writability.
type guards uint8

const (
	// admit passes the engine's bounded admission queue (the heavy routes).
	admit guards = 1 << iota
	// write waits on store readiness (the routes that write the corpus).
	write
	// observe marks an observability route instead: counted and timed, but
	// untraced (a scrape must not churn the trace ring it reads) and never
	// rate-limited. The -debug-addr listener serves these routes too.
	observe
)

// role is what a server answers as, fixed by its options: single by default,
// or WithPartition's shard, WithReplica's replica, WithRouter's router (of two,
// the later constant wins).
type role uint8

const (
	roleSingle role = iota
	roleShard
	roleReplica
	roleRouter
)

// refusal is a role's answer to a route it does not serve: a status and a
// reason naming the role, in the usual error JSON.
type refusal struct {
	status int
	reason string
}

// route is one row of the route table: a pattern, its handler, its guards
// and the roles that refuse it, each with its refusal (nil: none).
type route struct {
	pattern string
	handle  func(*Server, http.ResponseWriter, *http.Request)
	guards  guards
	refuse  map[role]refusal
}

// notOnRouter refuses the multi-node plumbing a shard serves: a partition-
// local match and the WAL tail a replica bootstraps from. A single node
// serves both, so a single-process deployment can still be tailed.
var notOnRouter = map[role]refusal{roleRouter: {http.StatusNotFound, "not served on a router"}}

// clientWrite refuses ingest on a replica, whose corpus is its primary's: a
// client write there would be served on failover as the partition's.
var clientWrite = map[role]refusal{roleReplica: {http.StatusConflict, "a replica takes writes only from its primary's WAL"}}

// routes is every endpoint, registered on every role, so /metrics keys the
// same endpoints everywhere. A replica refuses client ingest, and a router,
// holding no corpus, snapshot or WAL, what only those can answer.
var routes = []route{
	{"POST /v1/analyze", (*Server).handleAnalyze, admit, nil},
	{"POST /v1/fingerprint", (*Server).handleFingerprint, admit, nil},
	{"POST /v1/corpus", (*Server).handleCorpusAdd, admit | write, clientWrite},
	{"GET /v1/corpus", (*Server).handleCorpusInfo, 0, nil},
	{"POST /v1/corpus/bulk", (*Server).handleCorpusBulk, admit | write, clientWrite},
	{"POST /v1/corpus/snapshot", (*Server).handleCorpusSnapshot, write,
		map[role]refusal{roleRouter: {http.StatusConflict, "a router holds no corpus to snapshot; snapshot each shard"}}},
	{"GET /v1/corpus/export", (*Server).handleCorpusExport, 0,
		map[role]refusal{roleRouter: {http.StatusConflict, "a router holds no corpus; export each shard"}}},
	{"POST /v1/match", (*Server).handleMatch, admit, nil},
	{"POST /v1/study", (*Server).handleStudyStart, 0, nil},
	{"GET /v1/study", (*Server).handleStudyList, 0, nil},
	{"GET /v1/study/{id}", (*Server).handleStudyGet, 0, nil},
	{"GET /v1/clusters", (*Server).handleClusters, 0, nil},
	{"GET /v1/clusters/export", (*Server).handleClustersExport, 0, nil},
	{"POST /v1/shard/match", (*Server).handleShardMatch, admit, notOnRouter},
	{"GET /v1/wal/stream", (*Server).handleWALStream, 0, notOnRouter},
	{"GET /healthz", (*Server).handleHealthz, observe, nil},
	{"GET /readyz", (*Server).handleReadyz, observe, nil},
	{"GET /metrics", (*Server).handleMetrics, observe, nil},
	{"GET /debug/traces", (*Server).handleDebugTraces, observe, nil},
	{"GET /debug/traces/{id}", (*Server).handleDebugTraceGet, observe, nil},
}

// handler composes rt's chain once, at registration: its endpoint stats and
// trace, then its guards, then its handler. A route this server's role
// refuses keeps the stats, trace and rate limit alone: its refusal takes no
// admission slot and never waits on readiness.
func (s *Server) handler(rt route) http.HandlerFunc {
	h := func(w http.ResponseWriter, r *http.Request) { rt.handle(s, w, r) }
	g := rt.guards
	if f, ok := rt.refuse[s.role]; ok {
		h, g = func(w http.ResponseWriter, _ *http.Request) { writeError(w, f.status, f.reason) }, 0
	}
	if g&write != 0 {
		h = s.writable(h)
	}
	if g&admit != 0 {
		h = s.admitted(h)
	}
	if g&observe != 0 {
		return s.instrument(rt.pattern, h, false)
	}
	return s.instrument(rt.pattern, s.limited(h), true)
}

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// --- request/response shapes --------------------------------------------------

// AnalyzeRequest carries one source (Source) or a batch (Sources).
type AnalyzeRequest struct {
	Source  string   `json:"source,omitempty"`
	Sources []string `json:"sources,omitempty"`
}

// AnalyzeResult is the outcome for one source.
type AnalyzeResult struct {
	// Key is the SHA-256 of the source's exact bytes (report cache identity).
	Key        string        `json:"key"`
	Findings   []ccc.Finding `json:"findings"`
	Categories []string      `json:"categories"`
	Truncated  bool          `json:"truncated,omitempty"`
	Error      string        `json:"error,omitempty"`
}

// AnalyzeResponse wraps batch results; single-source requests receive the
// lone AnalyzeResult object instead.
type AnalyzeResponse struct {
	Results []AnalyzeResult `json:"results"`
}

// FingerprintResponse is the /v1/fingerprint result.
type FingerprintResponse struct {
	Key             string `json:"key"`
	Fingerprint     string `json:"fingerprint"`
	SubFingerprints int    `json:"sub_fingerprints"`
	Error           string `json:"error,omitempty"`
}

// CorpusAddRequest bulk-adds documents to the serving corpus.
type CorpusAddRequest struct {
	Entries []CorpusEntry `json:"entries"`
}

// CorpusEntry is one document to index.
type CorpusEntry struct {
	ID     string `json:"id"`
	Source string `json:"source"`
}

// CorpusAddResponse reports a bulk ingest. Skipped counts entries a
// partition-pinned shard node refused because the consistent-hash ring
// assigns them to a different partition.
type CorpusAddResponse struct {
	Added      int  `json:"added"`
	ParseIssue int  `json:"parse_issues"` // indexed with partial fingerprints
	Skipped    int  `json:"skipped,omitempty"`
	Size       int  `json:"size"`
	Partial    bool `json:"partial,omitempty"` // see BulkResponse.Partial
}

// MatchRequest matches one query — a source or a precomputed fingerprint —
// or a batch of them against the serving corpus. Limit keeps only the k
// best candidates per query (0 = all). Backend names the similarity backend:
// empty or "ccd", the one this service runs; any other name is a 400. Explain
// attaches the per-stage pruning funnel to each result; both are also
// accepted as query parameters (?backend=...&explain=1), which win over the
// body.
type MatchRequest struct {
	Source      string `json:"source,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// Sources / Fingerprints select the batch form: the response is a
	// MatchBatchResponse with one result per query, sources first.
	Sources      []string `json:"sources,omitempty"`
	Fingerprints []string `json:"fingerprints,omitempty"`
	Limit        int      `json:"limit,omitempty"`
	Backend      string   `json:"backend,omitempty"`
	Explain      bool     `json:"explain,omitempty"`
}

// Match is one clone candidate on the wire.
type Match struct {
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}

// MatchExplain is the per-query pruning funnel attached by explain=1: how
// many candidates the n-gram pre-filter produced, how many it abandoned
// in-filter, how many were fully scored, and how many the shared top-K
// admission bound cut short, plus the scatter-gather fan-out width.
type MatchExplain struct {
	Backend       string `json:"backend"`
	Shards        int    `json:"shards"`
	Limit         int    `json:"limit,omitempty"`
	Candidates    int    `json:"candidates"`
	FilterPruned  int    `json:"filter_pruned"`
	Scored        int    `json:"scored"`
	CutoffSkipped int    `json:"cutoff_skipped"`
	// Abandoned counts candidates never visited because the request's
	// deadline budget expired mid-scan.
	Abandoned int `json:"abandoned,omitempty"`
}

// MatchResponse lists clone candidates, best first. Partial is set when the
// matches cover less than the full corpus — a router-mode server with an
// unreachable partition, or a scan cut short by the request budget
// (degraded mode, not an error — availability over completeness).
type MatchResponse struct {
	Matches []Match `json:"matches"`
	Partial bool    `json:"partial,omitempty"`
	// Degraded lists the quality reductions applied to this response:
	// "deadline" (the budget expired mid-scan; Matches is a best-effort
	// partial top-K) and/or "limit" (pressure tier 1 halved the effective
	// top-K; see EffectiveLimit).
	Degraded []string `json:"degraded,omitempty"`
	// EffectiveLimit is the top-K actually served when tier 1 halved the
	// requested limit. Only the single-query form is halved, on a single
	// node and a router alike; batch results always run with the request's
	// limit.
	EffectiveLimit int           `json:"effective_limit,omitempty"`
	Explain        *MatchExplain `json:"explain,omitempty"`
	Error          string        `json:"error,omitempty"`
}

// MatchBatchResponse answers the batch form of /v1/match: one entry per
// query, in request order (sources before fingerprints).
type MatchBatchResponse struct {
	Results []MatchResponse `json:"results"`
}

// StudyRequest starts an asynchronous study run. Mode selects what the job
// computes: "pipeline" (the default) regenerates the paper's Figure 6
// snippet→contract pipeline at Scale, while "corpus" runs the corpus-wide
// clone study — posting-list self-join plus incremental clustering — over
// the live serving corpus. The corpus mode ignores Seed/Scale (it measures
// what is actually indexed) and accepts Limit, the per-document match cap
// (0 = exact join at ε), and Backend under MatchRequest's rule.
type StudyRequest struct {
	Seed    int64   `json:"seed"`
	Scale   float64 `json:"scale"`
	Mode    string  `json:"mode,omitempty"`
	Backend string  `json:"backend,omitempty"`
	Limit   int     `json:"limit,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
	// TraceID correlates the failure with its trace at /debug/traces/{id}
	// and the server logs; present on traced routes.
	TraceID string `json:"trace_id,omitempty"`
	// RetryAfterSeconds mirrors the Retry-After header on shed (429) and
	// not-writable (503) responses, for clients that only read bodies.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// --- handlers -----------------------------------------------------------------

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if !decode(w, r, &req) {
		return
	}
	single := req.Source != "" && len(req.Sources) == 0
	srcs := req.Sources
	if single {
		srcs = []string{req.Source}
	}
	if len(srcs) == 0 {
		writeError(w, http.StatusBadRequest, "provide \"source\" or \"sources\"")
		return
	}
	results := make([]AnalyzeResult, len(srcs))
	for i, out := range s.engine.AnalyzeBatch(srcs) {
		results[i] = AnalyzeResult{
			Key:       string(out.Key),
			Findings:  out.Report.Findings,
			Truncated: out.Report.Truncated,
		}
		if results[i].Findings == nil {
			results[i].Findings = []ccc.Finding{}
		}
		results[i].Categories = []string{}
		for _, c := range out.Report.Categories() {
			results[i].Categories = append(results[i].Categories, string(c))
		}
		if out.Err != nil {
			results[i].Error = out.Err.Error()
		}
	}
	if single {
		writeJSON(w, http.StatusOK, results[0])
		return
	}
	writeJSON(w, http.StatusOK, AnalyzeResponse{Results: results})
}

func (s *Server) handleFingerprint(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Source == "" {
		writeError(w, http.StatusBadRequest, "provide \"source\"")
		return
	}
	var resp FingerprintResponse
	if err := s.engine.DoCtx(r.Context(), func() {
		key, fp, err := s.engine.FingerprintKeyed(req.Source)
		resp = FingerprintResponse{
			Key:             string(key),
			Fingerprint:     string(fp),
			SubFingerprints: len(fp.Subs()),
		}
		if err != nil {
			resp.Error = err.Error()
		}
	}); err != nil {
		return // client gone while queued
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCorpusAdd indexes the request's entries as one batch. Every entry
// follows the rule of a /v1/corpus/bulk line: an id, a source, and no more
// than one line's bytes once written as one, so a router can forward it.
func (s *Server) handleCorpusAdd(w http.ResponseWriter, r *http.Request) {
	var req CorpusAddRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.Entries) == 0 {
		writeError(w, http.StatusBadRequest, "provide \"entries\"")
		return
	}
	entries := make([]service.CorpusEntry, len(req.Entries))
	for i, e := range req.Entries {
		problem := ""
		switch {
		case e.ID == "":
			problem = "missing id"
		case e.Source == "":
			problem = "missing source"
		case !fitsBulkLine(BulkEntry{ID: e.ID, Source: e.Source}):
			problem = "longer than a bulk line (8 MiB) once written as one"
		}
		if problem != "" {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("entry %d: %s", i, problem))
			return
		}
		entries[i] = service.CorpusEntry{ID: e.ID, Source: e.Source}
	}
	ctx := r.Context()
	resp, err := s.ingest(ctx, slices.Values([][]service.CorpusEntry{entries}))
	switch {
	case errors.Is(err, service.ErrPersist):
		writeError(w, http.StatusInternalServerError, err.Error())
	case err != nil:
		if ctx.Err() == nil {
			writeRemoteError(w, err)
		}
	default:
		writeJSON(w, http.StatusOK, CorpusAddResponse{
			Added:      resp.Added,
			ParseIssue: resp.ParseIssues,
			Skipped:    resp.Skipped,
			Size:       resp.Size,
			Partial:    resp.Partial,
		})
	}
}

// handleCorpusInfo reports the corpus this node answers for: on a router,
// size and adds are the sums over its partitions (partial when one could not
// be read), and on every role shards is the fan-out width explain=1 reports.
func (s *Server) handleCorpusInfo(w http.ResponseWriter, r *http.Request) {
	c := s.engine.Corpus()
	cfg := c.Config()
	count := remote.CorpusCount{Size: c.Len(), Adds: int(c.Adds())}
	info := map[string]any{
		"n":       cfg.N,
		"eta":     cfg.Eta,
		"epsilon": cfg.Epsilon,
	}
	if s.role == roleRouter {
		var partial bool
		if count, partial = s.routedCount(r.Context(), nil); partial {
			info["partial"] = true
		}
	}
	info["size"] = count.Size
	info["corpus"] = map[string]any{
		"size":   count.Size,
		"shards": s.fanout,
		"adds":   count.Adds,
	}
	if s.store != nil {
		info["persistence"] = s.store.Info()
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	var req MatchRequest
	if !decode(w, r, &req) {
		return
	}
	// Query parameters override the body: ?backend=ccd&explain=1.
	if qp := r.URL.Query(); qp.Has("backend") || qp.Has("explain") {
		if qp.Has("backend") {
			req.Backend = qp.Get("backend")
		}
		if v := qp.Get("explain"); v != "" {
			req.Explain = v == "1" || strings.EqualFold(v, "true")
		}
	}
	if req.Limit < 0 {
		writeError(w, http.StatusBadRequest, "\"limit\" must be ≥ 0")
		return
	}
	if err := service.CheckBackend(req.Backend); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	batch := len(req.Sources) > 0 || len(req.Fingerprints) > 0
	if batch && (req.Source != "" || req.Fingerprint != "") {
		writeError(w, http.StatusBadRequest, "mix of single and batch fields: use either \"source\"/\"fingerprint\" or \"sources\"/\"fingerprints\"")
		return
	}
	if !batch && req.Source == "" && req.Fingerprint == "" {
		writeError(w, http.StatusBadRequest, "provide \"source\" or \"fingerprint\"")
		return
	}
	// Every query, single or batch, runs through the role's match function
	// (see NewServer); the single form alone takes the tier-1 halving.
	var qs []matchQuery
	if !batch {
		qs = []matchQuery{{source: req.Source, fingerprint: req.Fingerprint, limit: s.effectiveLimit(req.Limit)}}
	}
	for _, src := range req.Sources {
		qs = append(qs, matchQuery{source: src, limit: req.Limit})
	}
	for _, fp := range req.Fingerprints {
		qs = append(qs, matchQuery{fingerprint: fp, limit: req.Limit})
	}
	ctx := r.Context() // a disconnected client cancels in-flight scatter-gather work
	results := make([]MatchResponse, len(qs))
	var failure atomic.Pointer[error]
	_ = s.engine.Each(ctx, len(qs), func(i int) {
		if failure.Load() != nil {
			return // a query failed the request: stop fanning out
		}
		g, fpErr, err := s.match(ctx, qs[i])
		switch {
		case err == nil || errors.Is(err, service.ErrBudgetExhausted):
			results[i] = s.toMatchResponse(req, qs[i].limit, g, fpErr, err)
		case ctx.Err() == nil:
			failed := err
			failure.CompareAndSwap(nil, &failed)
		}
	})
	if ctx.Err() != nil && !service.DeadlineExpired(ctx) {
		return // the client hung up; nobody is listening
	}
	if err := failure.Load(); err != nil {
		writeRemoteError(w, *err)
		return
	}
	for i := range results {
		if results[i].Matches == nil {
			// The deadline skipped this query (never dispatched, or still
			// queued when it expired): degraded, never a silent empty.
			results[i] = MatchResponse{Matches: []Match{}, Partial: true, Degraded: []string{"deadline"}}
		}
	}
	if !batch {
		writeJSON(w, http.StatusOK, results[0])
		return
	}
	writeJSON(w, http.StatusOK, MatchBatchResponse{Results: results})
}

// matchQuery is one query of a /v1/match request: a source or a precomputed
// fingerprint, and the top K it runs at.
type matchQuery struct {
	source, fingerprint string
	limit               int
}

// matchFunc answers one query the way the server's role does. g is the
// answer; fpErr reports the source's parse issues (the query still ran on
// its partial fingerprint); err is ErrBudgetExhausted when g is a degraded
// partial, and any other error fails the request.
type matchFunc func(ctx context.Context, q matchQuery) (g service.Gathered, fpErr, err error)

// matchLocal is a single or shard node's matchFunc: the query fingerprints
// and scans the local corpus on one worker slot.
func (s *Server) matchLocal(ctx context.Context, q matchQuery) (g service.Gathered, fpErr, err error) {
	if derr := s.engine.DoCtx(ctx, func() {
		fp := ccd.Fingerprint(q.fingerprint)
		if q.source != "" {
			fp, fpErr = s.engine.FingerprintCtx(ctx, q.source)
		}
		g.Matches, g.Stats, err = s.engine.MatchFingerprint(ctx, fp, q.limit, nil)
	}); derr != nil {
		return g, nil, derr
	}
	return g, fpErr, err
}

// effectiveLimit applies the tier-1 quality degradation: under pressure the
// requested top-K is halved, trading result depth for scan work. Unbounded
// requests (limit ≤ 1) pass through — there is no meaningful half.
func (s *Server) effectiveLimit(limit int) int {
	if limit > 1 && s.engine.DegradeTier() >= 1 {
		s.engine.NoteLimitHalved()
		return limit / 2
	}
	return limit
}

// toMatchResponse shapes one query's answer: limit is the top K the query
// ran with, and one below the request's own marks the tier-1 halving; err is
// nil or ErrBudgetExhausted (see matchFunc).
func (s *Server) toMatchResponse(req MatchRequest, limit int, g service.Gathered, fpErr, err error) MatchResponse {
	resp := MatchResponse{Matches: make([]Match, len(g.Matches)), Partial: g.Partial}
	for i, m := range g.Matches {
		resp.Matches[i] = Match{ID: m.ID, Score: m.Score}
	}
	if err != nil {
		// Time ran out mid-scan: the matches are a best-effort partial
		// top-K, served degraded rather than failed.
		resp.Partial = true
		resp.Degraded = append(resp.Degraded, "deadline")
	}
	if fpErr != nil {
		resp.Error = fpErr.Error()
	}
	if limit != req.Limit {
		resp.EffectiveLimit = limit
		resp.Degraded = append(resp.Degraded, "limit")
	}
	if req.Explain {
		st := g.Stats
		resp.Explain = &MatchExplain{
			Backend:       service.BackendCCD,
			Shards:        s.fanout,
			Limit:         req.Limit,
			Candidates:    st.Candidates,
			FilterPruned:  st.FilterPruned,
			Scored:        st.Scored,
			CutoffSkipped: st.CutoffSkipped,
			Abandoned:     st.Abandoned,
		}
	}
	return resp
}

func (s *Server) handleStudyStart(w http.ResponseWriter, r *http.Request) {
	var req StudyRequest
	if !decode(w, r, &req) {
		return
	}
	switch req.Mode {
	case "", "pipeline":
		s.startPipelineStudy(w, req)
	case "corpus":
		s.startCorpusStudy(w, req)
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("unknown study mode %q (want \"pipeline\" or \"corpus\")", req.Mode))
	}
}

// startPipelineStudy launches the paper's Figure 6 pipeline regeneration.
func (s *Server) startPipelineStudy(w http.ResponseWriter, req StudyRequest) {
	if req.Seed == 0 {
		req.Seed = 1
	}
	if req.Scale <= 0 {
		req.Scale = 0.01
	}
	if req.Scale > maxStudyScale {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("scale %.3f exceeds maximum %.1f", req.Scale, maxStudyScale))
		return
	}
	// The pipeline's internal fan-out goes through the shared engine pool,
	// so heavy study work still competes fairly with interactive requests
	// for worker slots.
	s.startJob(w, "study", func(Job) (*StudySummary, error) {
		cfg := pipeline.DefaultConfig()
		cfg.Seed = req.Seed
		cfg.Scale = req.Scale
		cfg.Engine = s.engine
		return summarize(pipeline.Run(cfg)), nil
	})
}

// startCorpusStudy launches the corpus-wide clone study over the serving
// corpus: the same asynchronous job machinery, but measuring what the
// service actually indexes instead of a regenerated throwaway corpus.
func (s *Server) startCorpusStudy(w http.ResponseWriter, req StudyRequest) {
	if req.Limit < 0 {
		writeError(w, http.StatusBadRequest, "\"limit\" must be ≥ 0")
		return
	}
	if err := service.CheckBackend(req.Backend); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.startJob(w, "corpus study", func(job Job) (*StudySummary, error) {
		// The study's per-document queries fan out through the engine pool
		// at background class (same slots as interactive traffic) and, like
		// pipeline jobs, run to completion in the background. In router
		// mode the same self-join enumerates the partitions' exports and
		// every query fans back out over the fleet.
		study := &studyClusters{ref: ClusterStudy{ID: job.ID, Limit: req.Limit}, created: job.Created}
		var j *service.SelfJoin
		if s.role == roleRouter {
			j = service.NewPlannedSelfJoin(s.router.StudyPlan(), s.router.CloneQuery, s.engine.Corpus().Config(), req.Limit)
		} else {
			// Read before the plan is captured: a publish in between can
			// only mark the study stale early, never late.
			gen := s.engine.Corpus().Generation()
			study.ref.Generation = &gen
			j = service.NewSelfJoin(s.engine.Corpus(), req.Limit)
		}
		rep, err := s.engine.RunSelfJoin(context.Background(), j, defaultTopClusters)
		if err != nil {
			return nil, err
		}
		study.set = j.Clusters()
		s.clusters.Store(study) // before the job reads done
		return &StudySummary{Mode: "corpus", Clone: rep}, nil
	})
}

// startJob answers 202 with a new study job that runs on its own goroutine
// until run returns, or 429 when maxRunningJobs are running. The summary
// gets the run's elapsed time, and a panic in run fails the job, named what,
// not the process.
func (s *Server) startJob(w http.ResponseWriter, what string, run func(Job) (*StudySummary, error)) {
	job, ok := s.jobs.start(time.Now())
	if !ok {
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("%d study jobs already running; retry after one finishes", maxRunningJobs))
		return
	}
	go func() {
		started := time.Now()
		defer func() {
			if p := recover(); p != nil {
				s.jobs.finish(job.ID, nil, fmt.Errorf("%s panicked: %v", what, p))
			}
		}()
		summary, err := run(job)
		if err == nil {
			summary.Elapsed = time.Since(started).Round(time.Millisecond).String()
		}
		s.jobs.finish(job.ID, summary, err)
	}()
	writeJSON(w, http.StatusAccepted, job)
}

func (s *Server) handleStudyList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.list()})
}

func (s *Server) handleStudyGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// ?ready=1 folds the readiness dimension into the liveness probe for
	// load balancers that only support one health URL.
	if v := r.URL.Query().Get("ready"); v == "1" || strings.EqualFold(v, "true") {
		s.handleReadyz(w, r)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"uptime": time.Since(s.start).Round(time.Millisecond).String(),
	})
}

// handleReadyz reports readiness: 200 when the serving corpus is durable and
// caught up, 503 while the WAL boot replay is still running or a failed
// group commit left a rollback pending.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready := s.ready()
	status := http.StatusOK
	state := "ok"
	if !ready {
		status = http.StatusServiceUnavailable
		state = "unavailable"
	}
	writeJSON(w, status, map[string]any{
		"status": state,
		"ready":  ready,
		"uptime": time.Since(s.start).Round(time.Millisecond).String(),
	})
}

// MetricsResponse is the /metrics JSON payload: engine load, cache hit rates
// and per-endpoint request stats.
type MetricsResponse struct {
	service.Snapshot
	// Endpoints maps each route's pattern to its request counts,
	// status-class splits and latency summaries.
	Endpoints map[string]EndpointMetrics `json:"endpoints"`
	// HitRates flattens per-cache hit rates for dashboards.
	HitRates map[string]float64  `json:"cache_hit_rates"`
	Traces   trace.RecorderStats `json:"traces"`
	// RateLimited counts requests refused by the per-client token-bucket
	// limiter (0 when rate limiting is disabled).
	RateLimited int64  `json:"requests_ratelimited"`
	Uptime      string `json:"uptime"`
	// Remote reports the router's scatter-gather counters; absent on
	// single-process and shard nodes.
	Remote *remote.Stats `json:"remote,omitempty"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.engine.Metrics()
	if wantsPrometheus(r.URL.Query().Get("format"), r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", prometheusContentType)
		_ = s.writePrometheus(w, snap, time.Since(s.start).Seconds())
		return
	}
	resp := MetricsResponse{
		Snapshot:  snap,
		Endpoints: s.endpointMetrics(),
		HitRates: map[string]float64{
			"report":      snap.ReportCache.HitRate(),
			"fingerprint": snap.FingerprintCache.HitRate(),
		},
		Traces:      s.recorder.Stats(),
		RateLimited: s.rateLimited.Load(),
		Uptime:      time.Since(s.start).Round(time.Millisecond).String(),
	}
	if s.role == roleRouter {
		rs := s.router.Stats()
		resp.Remote = &rs
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- plumbing -----------------------------------------------------------------

func decode(w http.ResponseWriter, r *http.Request, into any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return bodyDecoded(w, dec.Decode(into))
}

// decodeBinary is decode for a binary body.
func decodeBinary(w http.ResponseWriter, r *http.Request, into encoding.BinaryUnmarshaler) bool {
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		err = into.UnmarshalBinary(b)
	}
	return bodyDecoded(w, err)
}

// bodyDecoded reports whether err, a request body's decode error, is nil,
// and otherwise answers 413 for a body over maxBodyBytes and 400 for any
// other.
func bodyDecoded(w http.ResponseWriter, err error) bool {
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, "bad request body: "+err.Error())
	return false
}

// intParam reads query parameter name as an integer of at least least (0 or
// 1), def when absent; any other value answers 400 naming it.
func intParam(w http.ResponseWriter, qp url.Values, name string, def, least int) (int, bool) {
	v := qp.Get(name)
	if v == "" {
		return def, true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < least {
		want := "non-negative"
		if least > 0 {
			want = "positive"
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("%q must be a %s integer", name, want))
		return 0, false
	}
	return n, true
}

// writeNDJSON writes items as NDJSON, one JSON value a line, until the client
// goes away.
func writeNDJSON[T any](w http.ResponseWriter, items []T) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, v := range items {
		if enc.Encode(v) != nil {
			return
		}
	}
	_ = bw.Flush()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeBinary answers 200 with v's binary encoding.
func writeBinary(w http.ResponseWriter, v encoding.BinaryMarshaler) {
	b, err := v.MarshalBinary()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(b) // a client gone mid-write has stopped waiting for it
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeErrorRetry(w, status, msg, 0)
}

func writeErrorRetry(w http.ResponseWriter, status int, msg string, retryAfterSeconds int) {
	resp := errorResponse{Error: msg, RetryAfterSeconds: retryAfterSeconds}
	// Traced routes hand their handlers a *traceWriter; recover the trace
	// from it so every error payload carries its trace id and the trace
	// itself is marked errored (and thus retained by the recorder).
	if tw, ok := w.(*traceWriter); ok && tw.trace != nil {
		resp.TraceID = tw.trace.ID()
		tw.trace.SetError(fmt.Sprintf("%d: %s", status, msg))
	}
	writeJSON(w, status, resp)
}
