package api

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/cluster"
)

// defaultTopClusters bounds the largest-cluster list attached to
// /v1/clusters and to corpus-study summaries.
const defaultTopClusters = 10

// ClustersResponse is the GET /v1/clusters payload: the clone clusters of
// the most recently completed corpus study (POST /v1/study
// {"mode":"corpus"}). Enabled is false until one has completed.
type ClustersResponse struct {
	Enabled bool `json:"enabled"`
	// Study names the corpus study the clusters come from.
	Study   *ClusterStudy    `json:"study,omitempty"`
	Summary *cluster.Summary `json:"summary,omitempty"`
	// Top lists the largest clusters (size descending, representative id
	// ascending), without members; ?top=N resizes it.
	Top []cluster.Cluster `json:"top,omitempty"`
}

// ClusterStudy names the corpus study a clusters answer comes from. A single
// node, shard or replica (not a router, which holds no corpus) reports
// Generation, the corpus generation the study started at, and Stale, true
// once the corpus has published since (an ingest, a supersede or a replica's
// re-sync drop; a snapshot changes no document and leaves it false).
type ClusterStudy struct {
	ID         string  `json:"id"`
	Limit      int     `json:"limit"`
	Generation *uint64 `json:"generation,omitempty"`
	Stale      *bool   `json:"stale,omitempty"`
}

// studyClusters is a completed corpus study's cluster set, the one answer
// /v1/clusters and its export serve. created is its job's creation time:
// job ids restart in every process, so an id alone does not name a study
// across a restart.
type studyClusters struct {
	ref     ClusterStudy // Stale is filled in per request
	created time.Time
	set     *cluster.Set
}

// lastStudy returns the most recently completed corpus study (nil before
// any) with its staleness filled in.
func (s *Server) lastStudy() (ClusterStudy, *studyClusters) {
	st := s.clusters.Load()
	if st == nil {
		return ClusterStudy{}, nil
	}
	ref := st.ref
	if ref.Generation != nil {
		stale := s.engine.Corpus().Generation() > *ref.Generation
		ref.Stale = &stale
	}
	return ref, st
}

func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request) {
	topN, ok := intParam(w, r.URL.Query(), "top", defaultTopClusters, 0)
	if !ok {
		return
	}
	ref, st := s.lastStudy()
	if st == nil {
		writeJSON(w, http.StatusOK, ClustersResponse{Enabled: false})
		return
	}
	sum := st.set.Summary()
	writeJSON(w, http.StatusOK, ClustersResponse{Enabled: true, Study: &ref, Summary: &sum, Top: st.set.Top(topN)})
}

// clustersCursor is the resume position of a paginated clusters export: the
// study the walk started on (its id and creation time in Unix nanoseconds),
// the min-size filter it started with (pinned so every page filters
// identically) and the offset into the size-descending cluster list.
type clustersCursor struct {
	Study   string `json:"s"`
	Created int64  `json:"c"`
	Min     int    `json:"m"`
	Offset  int    `json:"o"`
}

// handleClustersExport streams the last corpus study's clusters as NDJSON —
// one cluster per line with its sorted member list, size descending — ready
// for the paper's distribution tables. ?min=N keeps only clusters of at
// least N members (default 2; min=1 includes singletons).
//
// Without pagination parameters the whole distribution streams in one
// response. ?limit=N caps a page at N clusters and returns an opaque resume
// token in X-Next-Cursor (absent on the last page); pass it back as
// ?cursor= for the next page. Every page of a walk comes from the study it
// started on: once a newer study has completed, in this process or after a
// restart, the old cursor answers 409 rather than mix two studies' pages.
func (s *Server) handleClustersExport(w http.ResponseWriter, r *http.Request) {
	ref, st := s.lastStudy()
	if st == nil {
		writeError(w, http.StatusConflict, `no corpus study has completed yet (run POST /v1/study {"mode":"corpus"})`)
		return
	}
	qp := r.URL.Query()
	minSize, ok := intParam(w, qp, "min", 2, 1)
	if !ok {
		return
	}
	limit, ok := intParam(w, qp, "limit", 0, 1)
	if !ok {
		return
	}
	offset := 0
	if v := qp.Get("cursor"); v != "" {
		var cur clustersCursor
		if err := decodeCursor(v, &cur); err != nil || cur.Offset < 0 || cur.Min < 1 {
			writeError(w, http.StatusBadRequest, "bad \"cursor\" (tokens come from X-Next-Cursor, opaque)")
			return
		}
		if cur.Study != ref.ID || cur.Created != st.created.UnixNano() {
			writeError(w, http.StatusConflict, fmt.Sprintf(
				"the export walked corpus study %q, since replaced by %q (created %s); restart it without a cursor",
				cur.Study, ref.ID, st.created.Format(time.RFC3339Nano)))
			return
		}
		minSize, offset = cur.Min, cur.Offset
		if limit == 0 {
			limit = defaultExportPage
		}
	}

	clusters := st.set.Clusters(minSize, true)
	if offset > len(clusters) {
		offset = len(clusters)
	}
	page := clusters[offset:]
	if limit > 0 && len(page) > limit {
		page = page[:limit]
		w.Header().Set("X-Next-Cursor", encodeCursor(clustersCursor{Study: ref.ID, Created: st.created.UnixNano(), Min: minSize, Offset: offset + limit}))
	}
	writeNDJSON(w, page)
}
