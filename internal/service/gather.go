package service

import (
	"context"
	"errors"
	"sync"

	"repro/internal/ccd"
	"repro/internal/trace"
)

// PartitionScan answers one partition's share of a scatter-gather query: its
// top K (best first) and scan funnel. bound is the admission bound every
// partition of the query shares; a scan prunes against it and may raise it.
// ErrBudgetExhausted marks matches that are a best-effort partial (the scan
// stopped early); an error wrapping ErrOverloaded aborts the whole query; any
// other error marks the partition failed.
type PartitionScan func(part int, bound *ccd.AtomicBound) ([]ccd.Match, ccd.MatchStats, error)

// Gathered is the merged answer of one scatter-gather query.
type Gathered struct {
	// Matches is the merged top K, best first (score descending, ties by id
	// ascending).
	Matches []ccd.Match
	// Stats sums the scan funnels of every partition.
	Stats ccd.MatchStats
	// Partial is set when some partition did not answer: its scan failed,
	// or the deadline expired before its wave started.
	Partial bool
}

// Gather is the one scatter-gather loop, shared by the local generation-shards
// of a Corpus and the remote shard nodes of a router. It scans parts
// partitions in waves contiguous groups (clamped to 1..parts), in parallel
// within a wave; a wave of one partition runs inline. Every partition's top-K
// list merges through one bounded heap that shares bound, so each wave starts
// from the bound the earlier ones established.
//
// The outcome, in order of precedence:
//   - an error wrapping ErrOverloaded, verbatim, once a wave has seen one;
//   - ctx.Err() and no matches when ctx was cancelled rather than timed out;
//   - ErrBudgetExhausted with the matches so far when the deadline expired
//     (later waves are skipped) or some partition answered a partial scan;
//   - the first partition error, by index, when every partition failed.
func Gather(ctx context.Context, parts, waves, k int, bound *ccd.AtomicBound, scan PartitionScan) (Gathered, error) {
	waves = max(1, min(waves, parts))
	type answer struct {
		ms    []ccd.Match
		stats ccd.MatchStats
		err   error
	}
	answers := make([]answer, parts)
	run := func(p int) {
		a := &answers[p]
		a.ms, a.stats, a.err = scan(p, bound)
	}
	merged := ccd.NewTopK(k, 0).Share(bound) // the scans already applied ε
	var g Gathered
	var firstErr error
	failed, degraded := 0, false
	for w := 0; w < waves; w++ {
		lo, hi := w*parts/waves, (w+1)*parts/waves
		if hi-lo == 1 {
			run(lo)
		} else {
			var wg sync.WaitGroup
			for p := lo; p < hi; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					run(p)
				}()
			}
			wg.Wait()
		}

		_, span := trace.Start(ctx, "match.merge")
		offered := 0
		for _, a := range answers[lo:hi] {
			g.Stats.Add(a.stats)
			switch {
			case errors.Is(a.err, ErrOverloaded):
				// A partition is shedding load: stop fanning out and surface
				// its backpressure verbatim rather than hammering the rest.
				span.End()
				return Gathered{}, a.err
			case a.err != nil && !errors.Is(a.err, ErrBudgetExhausted):
				failed++
				if firstErr == nil {
					firstErr = a.err
				}
				continue
			}
			degraded = degraded || a.err != nil || a.stats.Abandoned > 0
			for _, m := range a.ms {
				merged.Offer(m)
			}
			offered += len(a.ms)
		}
		span.AnnotateInt("offered", int64(offered))
		span.End()

		if err := ctx.Err(); err != nil {
			if !DeadlineExpired(ctx) {
				return Gathered{Stats: g.Stats}, err // the client hung up: nobody wants a partial
			}
			// Time ran out but the client is still listening: answer with what
			// the partitions that ran produced.
			g.Matches = merged.Results()
			g.Partial = failed > 0 || hi < parts
			return g, ErrBudgetExhausted
		}
	}
	if failed == parts {
		return Gathered{Stats: g.Stats}, firstErr
	}
	g.Matches = merged.Results()
	g.Partial = failed > 0
	if degraded {
		return g, ErrBudgetExhausted
	}
	return g, nil
}
