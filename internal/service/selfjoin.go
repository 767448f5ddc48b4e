package service

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/ccd"
	"repro/internal/cluster"
	"repro/internal/trace"
)

// SelfJoin is the corpus-wide clone study planner: it enumerates every
// document of a plan and finds its clones by running each one through a
// clone query, feeding the resulting edges into an incremental union-find.
// Over a local corpus the query is the posting-list match planner: candidate
// pairs come from the n-gram pigeonhole blocking inside each segment — no
// O(n²) scoring pass — and the per-query verification scatter-gathers across
// the generation-shards under the shared ccd.AtomicBound admission
// machinery, exactly like interactive /v1/match traffic. A router runs the
// same join over its partitions' exports, with every query fanned out over
// the fleet (remote.Router.StudyPlan).
//
// The plan is captured once at construction, so concurrent ingest and
// compaction do not change what the join enumerates. A join runs once: a
// failed study is run again from a new join.
type SelfJoin struct {
	query CloneQuery // answers each enumerated document's clone query
	cfg   ccd.Config // the clone parameters the report names
	limit int        // per-query match cap (0 = every clone at ε)

	// plan is the captured enumeration: one list of units per shard.
	plan [][]StudyUnit

	// par fans a page's queries out; the engine wires its pooled MapCtx
	// here, the standalone (offline) join runs serially.
	par func(ctx context.Context, n int, fn func(int)) error

	set *cluster.Set

	mu       sync.Mutex
	stats    SelfJoinStats
	segErr   error              // first query failure of the running page
	stopPage context.CancelFunc // cancels the running page's queries
}

// A StudyUnit is one unit of a clone study's plan (a segment of a local
// corpus, a partition of a router's fleet). It hands its documents to page
// one page at a time and stops at the first error page returns.
type StudyUnit func(ctx context.Context, page func([]ccd.Entry) error) error

// A CloneQuery answers one document's clone query: its k best matches at ε
// (k ≤ 0: all of them), best first, and the scan's funnel.
type CloneQuery func(ctx context.Context, fp ccd.Fingerprint, k int) ([]ccd.Match, ccd.MatchStats, error)

// SelfJoinStats is the per-phase funnel of one corpus self-join.
type SelfJoinStats struct {
	// Enumeration phase.
	Docs          int64 `json:"docs"`           // documents enumerated
	SegmentsDone  int   `json:"segments_done"`  // segments joined
	SegmentsTotal int   `json:"segments_total"` // segments in the plan

	// Query phase (per-document posting-list matching).
	Queried       int64 `json:"queried"`
	Candidates    int64 `json:"candidates"`
	FilterPruned  int64 `json:"filter_pruned"`
	Scored        int64 `json:"scored"`
	CutoffSkipped int64 `json:"cutoff_skipped"`

	// Edge phase.
	Matches int64 `json:"matches"` // clone pairs reported (self-hits excluded)
	Unions  int64 `json:"unions"`  // edges that merged two components

	Errors int64 `json:"errors,omitempty"` // failed queries: a page stops at its first, the one counted
}

// add folds one query's outcome in. Callers hold j.mu.
func (s *SelfJoinStats) add(st ccd.MatchStats, matches, unions int64) {
	s.Queried++
	s.Candidates += int64(st.Candidates)
	s.FilterPruned += int64(st.FilterPruned)
	s.Scored += int64(st.Scored)
	s.CutoffSkipped += int64(st.CutoffSkipped)
	s.Matches += matches
	s.Unions += unions
}

// NewSelfJoin plans a clone self-join over a local corpus: one unit per
// immutable segment of each shard's current generation, each document's
// clones found by Corpus.MatchTopKCtx. limit caps the matches per query
// (0 = every clone at ε; a cap bounds the quadratic blow-up of giant clusters
// while preserving their connectivity through shared top matches).
func NewSelfJoin(corpus *Corpus, limit int) *SelfJoin {
	plan := make([][]StudyUnit, len(corpus.shards))
	for i, sh := range corpus.shards {
		for _, seg := range sh.gen.Load().segments {
			plan[i] = append(plan[i], func(_ context.Context, page func([]ccd.Entry) error) error {
				return page(seg.Entries())
			})
		}
	}
	return NewPlannedSelfJoin(plan, corpus.cloneQuery, corpus.Config(), limit)
}

// NewPlannedSelfJoin plans a clone self-join over any enumeration plan: one
// list of checkpoint units per shard, every document's clones found by query
// and reported under cfg's η and ε. limit is as for NewSelfJoin.
func NewPlannedSelfJoin(plan [][]StudyUnit, query CloneQuery, cfg ccd.Config, limit int) *SelfJoin {
	j := &SelfJoin{
		query: query,
		cfg:   cfg,
		limit: limit,
		plan:  plan,
		set:   cluster.New(),
		par: func(ctx context.Context, n int, fn func(int)) error {
			for i := 0; i < n; i++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				fn(i)
			}
			return ctx.Err()
		},
	}
	for _, units := range plan {
		j.stats.SegmentsTotal += len(units)
	}
	return j
}

// Clusters exposes the join's (partial, while running) cluster set.
func (j *SelfJoin) Clusters() *cluster.Set { return j.set }

// Stats returns a snapshot of the per-phase funnel.
func (j *SelfJoin) Stats() SelfJoinStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// Run joins every unit of the plan once, in order, and stops at the first
// unit that fails: a failed query or a done ctx fails the join.
func (j *SelfJoin) Run(ctx context.Context) error {
	for _, units := range j.plan {
		for _, unit := range units {
			if err := j.runSegment(ctx, unit); err != nil {
				return err
			}
			j.mu.Lock()
			j.stats.SegmentsDone++
			j.mu.Unlock()
		}
	}
	return nil
}

// runSegment self-joins every document of one unit, page by page. A query
// failure fails the page, and with it the segment: it cancels the page's
// context, so the page's queries not yet run are never started.
func (j *SelfJoin) runSegment(ctx context.Context, unit StudyUnit) error {
	ctx, sp := trace.Start(ctx, "selfjoin.segment")
	defer sp.End()
	return unit(ctx, func(entries []ccd.Entry) error {
		sp.AnnotateInt("docs", int64(len(entries)))
		j.mu.Lock()
		j.stats.Docs += int64(len(entries))
		j.mu.Unlock()
		// Singletons count too: every enumerated document appears in the
		// cluster-size distribution even when nothing matches it.
		for _, e := range entries {
			j.set.Add(e.ID)
		}
		page, stop := context.WithCancel(ctx)
		defer stop()
		j.mu.Lock()
		j.stopPage = stop
		j.mu.Unlock()
		err := j.par(page, len(entries), func(i int) {
			st, matches, unions, err := linkClones(page, j.set, j.query, entries[i], j.limit)
			if err != nil {
				j.recordQueryFailure(entries[i].ID, err)
				return
			}
			j.mu.Lock()
			j.stats.add(st, matches, unions)
			j.mu.Unlock()
		})
		j.mu.Lock()
		segErr := j.segErr
		j.segErr = nil
		j.mu.Unlock()
		if segErr != nil {
			return segErr
		}
		return err
	})
}

// linkClones runs one document's clone query and folds the answer into set:
// it drops the self-match, stops at limit edges (0 = no cap) and unions the
// rest, returning the query's funnel, the edges taken and how many of them
// merged two components. The document is itself in the corpus and takes one
// top-K slot with its self-match, so the query asks for one more than the
// cap — otherwise limit=1 would find no clones at all — and the cap trims
// back after the self-filter: on an exact-clone plateau the document's own id
// can tie-break out of those slots.
func linkClones(ctx context.Context, set *cluster.Set, query CloneQuery, e ccd.Entry, limit int) (st ccd.MatchStats, edges, unions int64, err error) {
	k := 0
	if limit > 0 {
		k = limit + 1
	}
	ms, st, err := query(ctx, e.FP, k)
	if err != nil {
		return st, 0, 0, err
	}
	for _, m := range ms {
		if m.ID == e.ID {
			continue
		}
		if limit > 0 && edges == int64(limit) {
			break
		}
		edges++
		if set.Union(e.ID, m.ID) {
			unions++
		}
	}
	return st, edges, unions, nil
}

// recordQueryFailure counts one failed per-document query, fails the segment
// via segErr (dropping the document's edges would bias the study) and stops
// the page. Only a page's first failure counts: a query that fails after it
// may have failed only because the page was stopped.
func (j *SelfJoin) recordQueryFailure(id string, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.segErr != nil {
		return
	}
	j.stats.Errors++
	j.segErr = fmt.Errorf("service: self-join query %q: %w", id, err)
	j.stopPage()
}

// CloneReport is the outcome of a corpus-wide clone study: the clone
// parameters, the per-phase funnel and the cluster-size distribution the
// paper's corpus measurement is built from.
type CloneReport struct {
	Backend string  `json:"backend"`
	Eta     float64 `json:"eta"`
	Epsilon float64 `json:"epsilon"`
	// Limit is the per-query match cap the join ran with (0 = exact).
	Limit   int             `json:"limit,omitempty"`
	Stats   SelfJoinStats   `json:"stats"`
	Summary cluster.Summary `json:"summary"`
	// Top lists the largest clusters (size descending, representative id
	// ascending), without member lists.
	Top []cluster.Cluster `json:"top,omitempty"`
}

// Report condenses the join into a CloneReport with the topN largest
// clusters attached (topN ≤ 0 omits them).
func (j *SelfJoin) Report(topN int) *CloneReport {
	return &CloneReport{
		Backend: BackendCCD,
		Eta:     j.cfg.Eta,
		Epsilon: j.cfg.Epsilon,
		Limit:   j.limit,
		Stats:   j.Stats(),
		Summary: j.set.Summary(),
		Top:     j.set.Top(topN),
	}
}
