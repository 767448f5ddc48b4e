// Package api exposes the concurrent analysis engine over an HTTP JSON API:
// CCC vulnerability analysis (/v1/analyze), CCD fingerprinting
// (/v1/fingerprint), corpus ingest and clone matching (/v1/corpus,
// /v1/match), asynchronous full-study jobs (/v1/study), plus health and
// metrics endpoints. cmd/serve wires it to a listener.
package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
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
	ready     func() bool  // readiness probe; defaults to the store's state

	// limiter is the per-client token-bucket (nil without WithRateLimit);
	// rateLimited counts requests it refused.
	limiter     *rateLimiter
	rateLimited atomic.Int64

	// maxDeadline clamps client-declared X-Request-Timeout budgets (0:
	// DefaultMaxDeadline; see WithMaxDeadline).
	maxDeadline time.Duration

	// router puts the server in router mode (WithRouter): match and ingest
	// fan out to remote shard nodes instead of the local corpus.
	router *remote.Router
	// partRing/partIdx pin a shard node to its partition (WithPartition):
	// ingest refuses entries another partition owns. partRing nil =
	// unpartitioned.
	partRing *remote.Ring
	partIdx  int
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

// WithReadiness overrides the /readyz probe. Without it, readiness follows
// the store (not ready during boot replay or after a rollback-pending fsync
// failure), or is always true when persistence is disabled.
func WithReadiness(ready func() bool) Option {
	return func(s *Server) { s.ready = ready }
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
	if s.ready == nil {
		if st := s.store; st != nil {
			s.ready = st.Ready
		} else {
			s.ready = func() bool { return true }
		}
	}

	// /v1 routes sit behind the per-client rate limiter; the heavy POST
	// routes additionally pass the engine's bounded admission queue, and
	// ingest routes are guarded on store readiness. Order per request:
	// rate limit (cheapest, per-client fairness) → admission (global
	// overload) → writability → handler.
	mux := http.NewServeMux()
	s.traced(mux, "POST /v1/analyze", s.limited(s.admitted(s.handleAnalyze)))
	s.traced(mux, "POST /v1/fingerprint", s.limited(s.admitted(s.handleFingerprint)))
	s.traced(mux, "POST /v1/corpus", s.limited(s.admitted(s.writable(s.handleCorpusAdd))))
	s.traced(mux, "GET /v1/corpus", s.limited(s.handleCorpusInfo))
	s.traced(mux, "POST /v1/corpus/bulk", s.limited(s.admitted(s.writable(s.handleCorpusBulk))))
	s.traced(mux, "POST /v1/corpus/snapshot", s.limited(s.writable(s.handleCorpusSnapshot)))
	s.traced(mux, "GET /v1/corpus/export", s.limited(s.handleCorpusExport))
	s.traced(mux, "POST /v1/match", s.limited(s.admitted(s.handleMatch)))
	s.traced(mux, "POST /v1/study", s.limited(s.handleStudyStart))
	s.traced(mux, "GET /v1/study", s.limited(s.handleStudyList))
	s.traced(mux, "GET /v1/study/{id}", s.limited(s.handleStudyGet))
	s.traced(mux, "GET /v1/clusters", s.limited(s.handleClusters))
	s.traced(mux, "GET /v1/clusters/export", s.limited(s.handleClustersExport))
	// Multi-node plumbing: a shard node answers partition-local matches
	// (seeded with the router's shipped bound) and streams its WAL tail to
	// bootstrapping replicas. Routed on every node — harmless without
	// remote peers, and a single-process deployment can still be tailed.
	s.traced(mux, "POST /v1/shard/match", s.limited(s.admitted(s.handleShardMatch)))
	s.traced(mux, "GET /v1/wal/stream", s.limited(s.handleWALStream))
	// Observability endpoints are counted but untraced: a scrape must not
	// churn the trace ring it is reading.
	s.counted(mux, "GET /healthz", s.handleHealthz)
	s.counted(mux, "GET /readyz", s.handleReadyz)
	s.counted(mux, "GET /metrics", s.handleMetrics)
	s.counted(mux, "GET /debug/traces", s.handleDebugTraces)
	s.counted(mux, "GET /debug/traces/{id}", s.handleDebugTraceGet)
	s.mux = mux
	return s
}

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Recorder exposes the completed-trace ring (the debug listener and tests
// read it).
func (s *Server) Recorder() *trace.Recorder { return s.recorder }

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
	Added      int `json:"added"`
	ParseIssue int `json:"parse_issues"` // indexed with partial fingerprints
	Skipped    int `json:"skipped,omitempty"`
	Size       int `json:"size"`
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
		fp, err := s.engine.Fingerprint(req.Source)
		resp = FingerprintResponse{
			Key:             string(service.ContentKey(req.Source)),
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

func (s *Server) handleCorpusAdd(w http.ResponseWriter, r *http.Request) {
	var req CorpusAddRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.Entries) == 0 {
		writeError(w, http.StatusBadRequest, "provide \"entries\"")
		return
	}
	for i, e := range req.Entries {
		if e.ID == "" {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("entry %d: missing id", i))
			return
		}
	}
	if s.router != nil {
		s.routerCorpusAdd(w, r, req)
		return
	}
	skipped := 0
	if s.partRing != nil {
		kept := req.Entries[:0]
		for _, e := range req.Entries {
			if s.ownsID(e.ID) {
				kept = append(kept, e)
			} else {
				skipped++
			}
		}
		req.Entries = kept
	}
	entries := make([]service.CorpusEntry, len(req.Entries))
	for i, e := range req.Entries {
		entries[i] = service.CorpusEntry{ID: e.ID, Source: e.Source}
	}
	issues := 0
	for _, err := range s.engine.CorpusAddBatchCtx(r.Context(), entries) {
		if errors.Is(err, service.ErrPersist) {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		if err != nil {
			issues++
		}
	}
	writeJSON(w, http.StatusOK, CorpusAddResponse{
		Added:      len(entries),
		ParseIssue: issues,
		Skipped:    skipped,
		Size:       s.engine.Corpus().Len(),
	})
}

func (s *Server) handleCorpusInfo(w http.ResponseWriter, r *http.Request) {
	c := s.engine.Corpus()
	cfg := c.Config()
	info := map[string]any{
		"size":    c.Len(),
		"n":       cfg.N,
		"eta":     cfg.Eta,
		"epsilon": cfg.Epsilon,
		"corpus": map[string]any{
			"size":   c.Len(),
			"shards": c.Shards(),
			"adds":   c.Adds(),
		},
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
	if s.router != nil {
		s.routerMatch(w, r, req)
		return
	}
	ctx := r.Context() // a disconnected client cancels in-flight scatter-gather work
	if !batch {
		var resp MatchResponse
		if err := s.engine.DoCtx(ctx, func() {
			resp = s.matchOne(ctx, req)
		}); err != nil {
			if service.DeadlineExpired(ctx) {
				// The budget was spent queueing: the scan never ran, but the
				// client is still listening — answer degraded-empty rather
				// than silently dropping the connection into a 504.
				writeJSON(w, http.StatusOK, MatchResponse{
					Matches: []Match{}, Partial: true, Degraded: []string{"deadline"},
				})
				return
			}
			return // client gone while queued; nobody is listening
		}
		if ctx.Err() != nil && !service.DeadlineExpired(ctx) {
			return // client hung up mid-scan
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}

	resp := MatchBatchResponse{Results: make([]MatchResponse, len(req.Sources)+len(req.Fingerprints))}
	// Source queries fan out through the pooled batch helper (fingerprinting
	// is the expensive part); precomputed fingerprints match inline on one
	// worker slot — the read path itself is lock-free and cheap.
	degradedEmpty := MatchResponse{Matches: []Match{}, Partial: true, Degraded: []string{"deadline"}}
	if len(req.Sources) > 0 {
		mss, stats, errs, ran, err := s.matchSources(ctx, req)
		if err != nil && !service.DeadlineExpired(ctx) {
			return // cancelled; client gone
		}
		for i := range resp.Results[:len(req.Sources)] {
			if ran[i] {
				resp.Results[i] = s.toMatchResponse(req, req.Limit, mss[i], stats[i], errs[i])
			} else {
				// Skipped by a mid-batch deadline expiry: marked degraded,
				// never a silent empty result.
				resp.Results[i] = degradedEmpty
			}
		}
	}
	if len(req.Fingerprints) > 0 {
		for i := range req.Fingerprints {
			resp.Results[len(req.Sources)+i] = degradedEmpty
		}
		if err := s.engine.DoCtx(ctx, func() {
			for i, fp := range req.Fingerprints {
				ms, st, err := s.engine.MatchFingerprint(ctx, ccd.Fingerprint(fp), req.Limit, nil)
				if err != nil && !errors.Is(err, service.ErrBudgetExhausted) {
					return // only ctx errors reach here
				}
				resp.Results[len(req.Sources)+i] = s.toMatchResponse(req, req.Limit, ms, st, err)
			}
		}); err != nil && !service.DeadlineExpired(ctx) {
			return
		}
	}
	if ctx.Err() != nil && !service.DeadlineExpired(ctx) {
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// matchSources runs the batch source form on the worker pool, collecting
// per-source stats for explain=1. ran marks queries that actually executed —
// a mid-batch deadline expiry leaves the tail undispatched.
func (s *Server) matchSources(ctx context.Context, req MatchRequest) ([][]ccd.Match, []ccd.MatchStats, []error, []bool, error) {
	mss := make([][]ccd.Match, len(req.Sources))
	stats := make([]ccd.MatchStats, len(req.Sources))
	errs := make([]error, len(req.Sources))
	ran := make([]bool, len(req.Sources))
	err := s.engine.MapCtx(ctx, len(req.Sources), func(i int) {
		mss[i], stats[i], errs[i] = s.engine.MatchSource(ctx, req.Backend, req.Sources[i], req.Limit)
		ran[i] = true
	})
	return mss, stats, errs, ran, err
}

// matchOne serves the single-query form of /v1/match, applying the tier-1
// degradation (halved effective limit) when the pressure ladder says so.
func (s *Server) matchOne(ctx context.Context, req MatchRequest) MatchResponse {
	limit := s.effectiveLimit(req.Limit)
	var ms []ccd.Match
	var st ccd.MatchStats
	var err error
	if req.Source != "" {
		ms, st, err = s.engine.MatchSource(ctx, req.Backend, req.Source, limit)
	} else {
		ms, st, err = s.engine.MatchFingerprint(ctx, ccd.Fingerprint(req.Fingerprint), limit, nil)
	}
	return s.toMatchResponse(req, limit, ms, st, err)
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

// toMatchResponse shapes one query's answer, on a single node and a router
// alike: limit is the top K the query ran with, and one below the request's
// own marks the tier-1 halving.
func (s *Server) toMatchResponse(req MatchRequest, limit int, ms []ccd.Match, st ccd.MatchStats, err error) MatchResponse {
	resp := MatchResponse{Matches: make([]Match, len(ms))}
	for i, m := range ms {
		resp.Matches[i] = Match{ID: m.ID, Score: m.Score}
	}
	if errors.Is(err, service.ErrBudgetExhausted) {
		// Time ran out mid-scan: the matches are a best-effort partial
		// top-K, served degraded rather than failed.
		resp.Partial = true
		resp.Degraded = append(resp.Degraded, "deadline")
		err = nil
	}
	if err != nil {
		resp.Error = err.Error()
	}
	if limit != req.Limit {
		resp.EffectiveLimit = limit
		resp.Degraded = append(resp.Degraded, "limit")
	}
	if req.Explain {
		shards := s.engine.Corpus().Shards()
		if s.router != nil {
			shards = s.router.N()
		}
		resp.Explain = &MatchExplain{
			Backend:       service.BackendCCD,
			Shards:        shards,
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
	job, ok := s.jobs.start(time.Now())
	if !ok {
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("%d study jobs already running; retry after one finishes", maxRunningJobs))
		return
	}
	// The job runs on a plain goroutine; the pipeline's internal fan-out
	// goes through the shared engine pool, so heavy study work still
	// competes fairly with interactive requests for worker slots.
	go func() {
		started := time.Now()
		defer func() {
			if p := recover(); p != nil {
				s.jobs.finish(job.ID, nil, fmt.Errorf("study panicked: %v", p))
			}
		}()
		cfg := pipeline.DefaultConfig()
		cfg.Seed = req.Seed
		cfg.Scale = req.Scale
		cfg.Engine = s.engine
		res := pipeline.Run(cfg)
		s.jobs.finish(job.ID, summarize(res, time.Since(started)), nil)
	}()
	writeJSON(w, http.StatusAccepted, job)
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
				s.jobs.finish(job.ID, nil, fmt.Errorf("corpus study panicked: %v", p))
			}
		}()
		// The study's per-document queries fan out through the engine pool
		// at background class (same slots as interactive traffic) and, like
		// pipeline jobs, run to completion in the background. In router
		// mode the same self-join enumerates the partitions' exports and
		// every query fans back out over the fleet.
		var rep *service.CloneReport
		var err error
		if s.router != nil {
			j := service.NewPlannedSelfJoin(s.router.StudyPlan(), s.router.CloneQuery, s.engine.Corpus().Config(), req.Limit)
			rep, err = s.engine.RunSelfJoin(context.Background(), j, defaultTopClusters)
		} else {
			rep, err = s.engine.RunCloneStudy(context.Background(), req.Limit, defaultTopClusters)
		}
		if err != nil {
			s.jobs.finish(job.ID, nil, err)
			return
		}
		s.jobs.finish(job.ID, summarizeClone(rep, time.Since(started)), nil)
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
	// Endpoints maps route patterns ("POST /v1/match") to request counts,
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
	if s.router != nil {
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
	if err := dec.Decode(into); err != nil {
		status := http.StatusBadRequest
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "bad request body: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
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
