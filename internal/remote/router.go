package remote

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/ccd"
	"repro/internal/service"
	"repro/internal/trace"
)

// Config wires a Router to its shard fleet.
type Config struct {
	// Targets are the shard base URLs; index i owns partition i of
	// NewRing(len(Targets)).
	Targets []string
	// Replicas optionally names a read replica per partition ("" = none;
	// shorter than Targets = no replica for the tail). A shard request that
	// fails on its primary for any reason but overload fails over to it.
	Replicas []string
	// Waves is how many sequential groups the fanout is split into
	// (parallel within a group). More waves ship tighter bounds to later
	// shards at the cost of serialized RTTs; 0 defaults to 2, which prices
	// one extra RTT for a bound already tightened by half the fleet, and
	// more waves than targets means one target a wave.
	Waves int
	// NoBoundShip disables shipping the admission bound with shard requests
	// (every request carries bound 0). Exists to measure what shipping
	// saves; production routers leave it off.
	NoBoundShip bool
	// Epsilon is the match floor seeded into the shared bound (the
	// backend's ε; 0 is safe, merely less pruning on the first wave).
	Epsilon float64
	// Client overrides the transport (nil = NewClient(30s)).
	Client *Client
}

// Router fans one match query out over remote shard nodes through
// service.Gather, the scatter-gather loop a single-process corpus runs over
// its generation-shards; the router supplies only the per-partition request.
// Every request ships the shared admission bound as it stands, so evidence
// from the first waves prices the scans on the rest — the network analogue
// of the in-process AtomicBound.
//
// A Router is safe for concurrent use.
type Router struct {
	cfg    Config
	client *Client
	ring   *Ring

	partials         atomic.Int64
	boundShipSavings atomic.Int64
	shardErrs        []atomic.Int64
}

// NewRouter returns a router over cfg.Targets. Panics when no targets are
// given — a router with nothing to route to is a wiring bug, not a runtime
// state.
func NewRouter(cfg Config) *Router {
	if len(cfg.Targets) == 0 {
		panic("remote: router needs at least one shard target")
	}
	if cfg.Waves <= 0 {
		cfg.Waves = 2
	}
	if cfg.Client == nil {
		cfg.Client = NewClient(30 * time.Second)
	}
	return &Router{
		cfg:       cfg,
		client:    cfg.Client,
		ring:      NewRing(len(cfg.Targets)),
		shardErrs: make([]atomic.Int64, len(cfg.Targets)),
	}
}

// N returns the partition count.
func (r *Router) N() int { return len(r.cfg.Targets) }

// Owner returns the partition owning id under the consistent-hash ring —
// ingest routing uses this to send each document to its shard.
func (r *Router) Owner(id string) int { return r.ring.Owner(id) }

// Target returns partition i's shard base URL.
func (r *Router) Target(i int) string { return r.cfg.Targets[i] }

// Replica returns partition i's replica base URL ("" when none).
func (r *Router) Replica(i int) string {
	if i < len(r.cfg.Replicas) {
		return r.cfg.Replicas[i]
	}
	return ""
}

// Client returns the router's shard transport, shared with ingest
// forwarding and export streaming.
func (r *Router) Client() *Client { return r.client }

// Match fans the query out over all partitions through service.Gather in
// cfg.Waves waves, shipping the current admission bound with each request,
// and returns what Gather returns: the merged top K (best first), the summed
// per-shard scan funnel and Partial when some partition did not answer. A
// degraded answer (a shard self-cancelled on its shipped budget, or the
// router's own deadline expired between waves) is the partial top K with
// service.ErrBudgetExhausted. A shard that pushes back with 429/503 aborts
// the query and its *StatusError (Retry-After intact) is the error; an
// unreachable shard only makes the answer Partial, and an error is returned
// when no partition answered. An empty fingerprint has no matches: it is
// answered without asking any shard, as Corpus.MatchTopKCtx answers it.
func (r *Router) Match(ctx context.Context, fingerprint string, k int) (service.Gathered, error) {
	if fingerprint == "" {
		return service.Gathered{}, nil
	}
	ctx, span := trace.Start(ctx, "router.fanout")
	defer span.End()
	span.AnnotateInt("shards", int64(r.N()))
	span.AnnotateInt("waves", int64(r.cfg.Waves))

	scan := func(part int, bound *ccd.AtomicBound) ([]ccd.Match, ccd.MatchStats, error) {
		return r.scanShard(ctx, part, fingerprint, k, bound)
	}
	g, err := service.Gather(ctx, r.N(), r.cfg.Waves, k, ccd.NewAtomicBound(r.cfg.Epsilon), scan)
	degraded := errors.Is(err, service.ErrBudgetExhausted)
	if err != nil && !degraded {
		return g, err
	}
	if g.Partial {
		r.partials.Add(1)
		span.Annotate("partial", "true")
	}
	if degraded {
		span.Annotate("degraded", "deadline")
	}
	span.AnnotateInt("scored", int64(g.Stats.Scored))
	return g, err
}

// scanShard is the remote partition scan: one shard request carrying the
// bound as it stands when the request leaves (0 under NoBoundShip) and, in
// its X-Request-Timeout header (Client.decorate), the remaining budget. Both
// are snapshots: the shipped bound is the value the shard prunes with and
// what the savings counter attributes, and a shard asked in a later wave
// inherits a smaller budget and self-cancels instead of being abandoned. A
// shard that answered degraded returns its partial top K with
// service.ErrBudgetExhausted.
func (r *Router) scanShard(ctx context.Context, part int, fingerprint string, k int, bound *ccd.AtomicBound) ([]ccd.Match, ccd.MatchStats, error) {
	shipped := 0.0
	if !r.cfg.NoBoundShip {
		shipped = bound.Load()
	}
	resp, err := r.queryShard(ctx, part, ShardMatchRequest{
		Fingerprint: fingerprint,
		K:           k,
		Bound:       shipped,
	})
	if err != nil {
		r.shardErrs[part].Add(1)
		return nil, ccd.MatchStats{}, err
	}
	if shipped > 0 {
		r.boundShipSavings.Add(int64(resp.Stats.CutoffSkipped))
	}
	if resp.Degraded {
		err = service.ErrBudgetExhausted
	}
	return resp.Matches, resp.Stats, err
}

// queryShard runs one partition's request against its primary, failing
// over to the replica when one exists.
func (r *Router) queryShard(ctx context.Context, part int, req ShardMatchRequest) (ShardMatchResponse, error) {
	resp, err := r.client.MatchShard(ctx, r.cfg.Targets[part], req)
	if err == nil {
		return resp, nil
	}
	if errors.Is(err, service.ErrOverloaded) {
		// Backpressure is propagated, not failed over: the replica serves
		// availability, not extra capacity the primary just refused to add.
		return resp, err
	}
	replica := r.Replica(part)
	if replica == "" {
		return resp, err
	}
	return r.client.MatchShard(ctx, replica, req)
}

// errPartialAnswer fails a clone-study query that some partition did not
// answer: counting it would silently drop that partition's edges.
var errPartialAnswer = errors.New("remote: partial answer (a partition did not respond)")

// StudyPlan is the clone-study plan over the fleet, for
// service.NewPlannedSelfJoin: one unit per partition, whose pages are the
// partition's paginated NDJSON export pages, so the study holds at most one
// page at a time.
func (r *Router) StudyPlan() [][]service.StudyUnit {
	plan := make([][]service.StudyUnit, r.N())
	for i := range plan {
		base := r.Target(i)
		plan[i] = []service.StudyUnit{func(ctx context.Context, page func([]ccd.Entry) error) error {
			return r.client.ExportEntries(ctx, base, page)
		}}
	}
	return plan
}

// CloneQuery is the clone-study query over the fleet (a service.CloneQuery):
// Match, with a partial answer as an error, so the study fails the partition
// instead of under-counting its edges.
func (r *Router) CloneQuery(ctx context.Context, fp ccd.Fingerprint, k int) ([]ccd.Match, ccd.MatchStats, error) {
	g, err := r.Match(ctx, string(fp), k)
	if g.Partial {
		err = errPartialAnswer
	}
	return g.Matches, g.Stats, err
}

// Stats is a point-in-time view of the router's counters, served as the
// "remote" block of the JSON /metrics. Routed queries themselves are counted
// by the router node's engine (Engine.ObserveMatch), like any match request.
type Stats struct {
	// Partials counts degraded responses (at least one partition down).
	Partials int64 `json:"partial_responses"`
	// BoundShipSavings totals candidates remote shards pruned thanks to the
	// shipped (non-zero) admission bound — scoring work the network tier
	// avoided outright.
	BoundShipSavings int64 `json:"bound_ship_savings"`
	// ShardErrors counts failed requests per partition.
	ShardErrors []int64 `json:"shard_errors"`
}

// Stats snapshots the router's counters.
func (r *Router) Stats() Stats {
	s := Stats{
		Partials:         r.partials.Load(),
		BoundShipSavings: r.boundShipSavings.Load(),
		ShardErrors:      make([]int64, len(r.shardErrs)),
	}
	for i := range r.shardErrs {
		s.ShardErrors[i] = r.shardErrs[i].Load()
	}
	return s
}
