package api

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strconv"

	"repro/internal/cluster"
)

// defaultTopClusters bounds the largest-cluster list attached to
// /v1/clusters and to corpus-study summaries.
const defaultTopClusters = 10

// ClustersResponse is the GET /v1/clusters payload: the live clone-cluster
// view the engine maintains as ingest lands. Enabled is false when the
// server runs without cluster tracking (serve -clusters=false); the exact
// distribution is always available through the /v1/study corpus mode.
type ClustersResponse struct {
	Enabled bool             `json:"enabled"`
	Summary *cluster.Summary `json:"summary,omitempty"`
	// Top lists the largest clusters (size descending, representative id
	// ascending), without members; ?top=N resizes it.
	Top []cluster.Cluster `json:"top,omitempty"`
}

func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request) {
	set := s.engine.Clusters()
	if set == nil {
		writeJSON(w, http.StatusOK, ClustersResponse{Enabled: false})
		return
	}
	topN := defaultTopClusters
	if v := r.URL.Query().Get("top"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "\"top\" must be a non-negative integer")
			return
		}
		topN = n
	}
	sum := set.Summary()
	resp := ClustersResponse{Enabled: true, Summary: &sum}
	if topN > 0 {
		top := set.Clusters(2, false)
		if len(top) > topN {
			top = top[:topN]
		}
		resp.Top = top
	}
	writeJSON(w, http.StatusOK, resp)
}

// clustersCursor is the resume position of a paginated clusters export: the
// min-size filter the export started with (pinned so every page filters
// identically) and the offset into the size-descending cluster list.
type clustersCursor struct {
	Min    int `json:"m"`
	Offset int `json:"o"`
}

// handleClustersExport streams the live clusters as NDJSON — one cluster
// per line with its sorted member list, size descending — ready for the
// paper's distribution tables. ?min=N keeps only clusters of at least N
// members (default 2; min=1 includes singletons).
//
// Without pagination parameters the whole distribution streams in one
// response (the original behavior). ?limit=N caps a page at N clusters and
// returns an opaque resume token in X-Next-Cursor (absent on the last
// page); pass it back as ?cursor= for the next page. Clustering advances
// under concurrent ingest, so pages are a best-effort walk of the live
// view, not a point-in-time snapshot.
func (s *Server) handleClustersExport(w http.ResponseWriter, r *http.Request) {
	set := s.engine.Clusters()
	if set == nil {
		writeError(w, http.StatusConflict, "cluster tracking not enabled (start serve with -clusters)")
		return
	}
	qp := r.URL.Query()
	minSize := 2
	if v := qp.Get("min"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "\"min\" must be a positive integer")
			return
		}
		minSize = n
	}
	limit := 0
	if v := qp.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "\"limit\" must be a positive integer")
			return
		}
		limit = n
	}
	offset := 0
	if v := qp.Get("cursor"); v != "" {
		var cur clustersCursor
		if err := decodeCursor(v, &cur); err != nil || cur.Offset < 0 || cur.Min < 1 {
			writeError(w, http.StatusBadRequest, "bad \"cursor\" (tokens come from X-Next-Cursor, opaque)")
			return
		}
		minSize, offset = cur.Min, cur.Offset
		if limit == 0 {
			limit = defaultExportPage
		}
	}

	clusters := set.Clusters(minSize, true)
	if offset > len(clusters) {
		offset = len(clusters)
	}
	page := clusters[offset:]
	if limit > 0 && len(page) > limit {
		page = page[:limit]
		w.Header().Set("X-Next-Cursor", encodeCursor(clustersCursor{Min: minSize, Offset: offset + limit}))
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, c := range page {
		if err := enc.Encode(c); err != nil {
			return // client gone mid-stream
		}
	}
	_ = bw.Flush()
}
