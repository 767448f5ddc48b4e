package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/ccd"
	"repro/internal/dataset"
	"repro/internal/service"
)

// CloneStudy runs the corpus-wide clone study — the cluster measurement
// behind the paper's Tables 4-8 — over the study's deployed-contract
// corpus, through the engine path the service's /v1/study corpus mode runs:
// the contracts ingest into eng's sharded serving corpus in one batch and
// Engine.RunCloneStudy self-joins it, fanning out through the worker pool.
// A nil eng runs on a fresh engine with cfg. cmd/soddstudy and cmd/serve
// thus report one measurement, not two implementations that can drift.
//
// limit caps the matches per document (0 = the exact join at ε).
func CloneStudy(eng *service.Engine, contracts []dataset.DeployedContract, cfg ccd.Config, limit int) (*service.CloneReport, error) {
	if eng == nil {
		eng = service.New(service.Options{CCD: cfg})
	}
	// Fingerprint every contract through the engine's content-addressed
	// cache (a pipeline run that just fingerprinted them makes this free).
	entries := make([]service.CorpusEntry, len(contracts))
	eng.Map(len(contracts), func(i int) {
		fp, _ := eng.Fingerprint(contracts[i].Source)
		entries[i] = service.CorpusEntry{ID: contracts[i].Address, Fingerprint: fp}
	})
	for i, err := range eng.CorpusAddBatch(entries) {
		if errors.Is(err, service.ErrPersist) {
			return nil, fmt.Errorf("experiments: ingest %s: %w", contracts[i].Address, err)
		}
	}
	return eng.RunCloneStudy(context.Background(), limit, 10)
}

// RenderCloneStudy formats a clone study report as text: the study
// parameters, the funnel, and the cluster-size distribution.
func RenderCloneStudy(rep *service.CloneReport) string {
	var sb strings.Builder
	sb.WriteString("Clone study: corpus-wide self-join over the contract corpus\n")
	fmt.Fprintf(&sb, "backend=%s eta=%.2f epsilon=%.0f", rep.Backend, rep.Eta, rep.Epsilon)
	if rep.Limit > 0 {
		fmt.Fprintf(&sb, " limit=%d", rep.Limit)
	}
	sb.WriteString("\n")
	st := rep.Stats
	fmt.Fprintf(&sb, "funnel: %d docs -> %d candidate pairs -> %d scored (%d cut by the shared bound) -> %d clone pairs -> %d merges\n",
		st.Docs, st.Candidates, st.Scored, st.CutoffSkipped, st.Matches, st.Unions)
	sum := rep.Summary
	fmt.Fprintf(&sb, "clusters: %d docs, %d clone clusters + %d singletons, %d clustered (clone ratio %.4f), largest %d\n",
		sum.Docs, sum.Clusters, sum.Singletons, sum.Clustered, sum.CloneRatio, sum.Largest)
	sizes := make([]int, 0, len(sum.Sizes))
	for sz := range sum.Sizes {
		sizes = append(sizes, sz)
	}
	sort.Ints(sizes)
	sb.WriteString("size distribution:\n")
	for _, sz := range sizes {
		fmt.Fprintf(&sb, "  size %-6d x %d\n", sz, sum.Sizes[sz])
	}
	if len(rep.Top) > 0 {
		sb.WriteString("largest clusters:\n")
		for _, c := range rep.Top {
			fmt.Fprintf(&sb, "  %-44s size %d\n", c.Rep, c.Size)
		}
	}
	return sb.String()
}
