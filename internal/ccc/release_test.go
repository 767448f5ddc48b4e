package ccc_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/ccc"
	"repro/internal/cpg"
	"repro/internal/dataset"
)

// keptAnswer is answer for a graph that is never released, so its arena is
// fresh and never reused.
func keptAnswer(src string) string {
	g, err := cpg.Parse(src)
	var rep ccc.Report
	if err == nil {
		rep = ccc.Analyze(g)
	}
	return fmt.Sprint(rep.Findings, rep.Truncated, err)
}

// TestConcurrentReleaseGivesOneAnswer analyses the Q&A pool on several
// goroutines at once, each at a different source, so that graphs built on
// one goroutine's released arenas are analysed while others release theirs.
// Every answer must equal the one from a never-released graph. CI runs it
// under -race.
func TestConcurrentReleaseGivesOneAnswer(t *testing.T) {
	sources := slices.Clone(guardReadsTwoFields)
	for _, sn := range dataset.GenerateQA(dataset.QAConfig{Seed: 1, Scale: 0.02}).Snippets {
		sources = append(sources, sn.Source)
	}
	want := make([]string, len(sources))
	for i, src := range sources {
		want[i] = keptAnswer(src)
	}

	const workers = 4
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range sources {
				i := (k + w*len(sources)/workers) % len(sources)
				if got := answer(sources[i]); got != want[i] {
					t.Errorf("worker %d, source %d:\n  released: %s\n  kept:     %s", w, i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
