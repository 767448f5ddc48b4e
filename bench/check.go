package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/ccc"
	"repro/internal/ccd"
	"repro/internal/service"
	"repro/internal/service/api"
)

const (
	analyzeProbes = 400 // requests whose findings are recounted from the source
	matchProbes   = 200 // queries whose top 10 is compared with the reference
)

// check verifies the program's answers once the timed phase is over. Every
// probe is an attempted operation and every wrong answer a failed one. It
// returns the count the seed-1 golden file pins: matches over the match
// probes, 0 where there are none.
func (f *fixture) check() (pinned int, err error) {
	fail := func(format string, a ...any) {
		f.failed++
		fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", a...)
	}

	if f.w.topo == noCorpus {
		for _, o := range f.in.lap[:min(analyzeProbes, len(f.in.lap))] {
			code, body := f.post(o)
			f.count(o, code, body)
			var got api.AnalyzeResult
			if err := json.Unmarshal(body, &got); err != nil {
				fail("analyze: %v", err)
				continue
			}
			// The reentrancy rule reports or omits a finding from run to run
			// on about 1 source in 2 500, so a count that differs is held
			// against repeated analyses before it is called wrong. For the
			// same reason no finding count is pinned.
			same := false
			for try := 0; try < 16 && !same; try++ {
				want, _ := ccc.AnalyzeSource(o.src) // a source that does not parse has no findings, here as in the program
				same = len(got.Findings) == len(want.Findings)
			}
			if !same {
				fail("analyze: %d findings, which analysing the source again never gives", len(got.Findings))
			}
		}
		// The pool is sized to exceed the caches; a hit means it no longer does.
		if m := f.engine.Metrics(); len(f.in.lap) > service.DefaultCacheEntries && m.ReportCache.Hits > 0 {
			fail("analyze: %d report-cache hits on a pool meant to miss", m.ReportCache.Hits)
		}
		return 0, nil
	}

	// The reference is one unsharded ccd corpus over everything the program
	// holds now, writes included.
	ref := ccd.NewCorpus(f.engine.Corpus().Config())
	for _, c := range f.corpora() {
		for i := 0; i < c.Shards(); i++ {
			es, ok := c.ShardEntries(i)
			if !ok {
				return 0, fmt.Errorf("corpus cannot list its entries")
			}
			for _, e := range es {
				ref.Add(e.ID, e.FP)
			}
		}
	}
	if want := len(f.in.preload) + f.acked; ref.Len() != want {
		fail("corpus holds %d contracts, want %d preloaded + %d acknowledged", ref.Len(), len(f.in.preload), f.acked)
	}
	probes, plantedProbes, plantedHits := 0, 0, 0
	seen := make(map[*op]bool)
	for _, o := range f.in.lap {
		if o == nil || o.kind != opMatch || seen[o] {
			continue
		}
		if seen[o] = true; probes == matchProbes {
			break
		}
		probes++
		code, body := f.post(o)
		f.count(o, code, body)
		var got api.MatchResponse
		if err := json.Unmarshal(body, &got); err != nil || got.Partial {
			fail("match: partial=%v (%v)", got.Partial, err)
			continue
		}
		fp, _ := ccd.FingerprintSource(o.src)
		want := ref.MatchTopK(fp, matchLimit)
		if !sameTopK(got.Matches, want) {
			fail("match: top %d differs from the unsharded reference: got %v, want %v", matchLimit, got.Matches, want)
		}
		pinned += len(got.Matches)
		if f.in.planted[o.src] {
			plantedProbes++
			if len(got.Matches) > 0 {
				plantedHits++
			}
		}
	}
	// Mutation can push a planted clone under the match threshold, but only
	// rarely (about 1 in 1000 at seed 1).
	if plantedHits*100 < plantedProbes*95 {
		fail("match: only %d of %d queries with a planted clone found one", plantedHits, plantedProbes)
	}

	if f.store != nil {
		// acked ⇒ replayed: what the program acknowledged must come back
		// from the directory alone.
		n, _, err := f.reopen()
		if err != nil {
			return 0, fmt.Errorf("reopen store: %w", err)
		}
		f.attempted++
		if want := len(f.in.preload) + f.acked; n != want {
			fail("reopened store holds %d contracts, want %d", n, want)
		}
	}
	return pinned, nil
}

// sameTopK compares a served top K with the reference: the same scores in
// the same order, and the same ids wherever the score decides. Among
// contracts that tie on the last score served, which ones make the cut is
// not settled (sharded and unsharded scans pick differently), so ids on that
// plateau are not compared.
func sameTopK(got []api.Match, want []ccd.Match) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i].Score != want[i].Score {
			return false
		}
		if last := want[len(want)-1].Score; want[i].Score != last && got[i].ID != want[i].ID {
			return false
		}
	}
	return true
}
