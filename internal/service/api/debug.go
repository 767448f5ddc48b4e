package api

import (
	"net/http"
	"net/http/pprof"

	"repro/internal/trace"
)

// TracesResponse is the GET /debug/traces listing: summaries of the retained
// traces (slowest first, then the recent/errored rings) plus the recorder's
// retention counters.
type TracesResponse struct {
	Traces   []trace.Summary     `json:"traces"`
	Recorder trace.RecorderStats `json:"recorder"`
}

// handleDebugTraces lists the retained traces.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	traces := s.recorder.Traces()
	out := TracesResponse{
		Traces:   make([]trace.Summary, 0, len(traces)),
		Recorder: s.recorder.Stats(),
	}
	for _, tr := range traces {
		out.Traces = append(out.Traces, tr.Summary())
	}
	writeJSON(w, http.StatusOK, out)
}

// handleDebugTraceGet returns one retained trace's full span tree.
func (s *Server) handleDebugTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := s.recorder.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "trace not found (evicted or never recorded)")
		return
	}
	writeJSON(w, http.StatusOK, tr.View())
}

// pprofMux returns a mux serving the pprof surface.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// BootDebugHandler serves the private debug listener before a Server
// exists, while the corpus restores: pprof is live, so a stuck WAL replay
// can be profiled, and /readyz reports not ready.
func BootDebugHandler() http.Handler {
	mux := pprofMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "unavailable", "ready": false, "phase": "restoring"})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "phase": "restoring"})
	})
	return mux
}

// DebugHandler returns the handler for the private debug listener
// (-debug-addr): the pprof surface plus the API's observability routes,
// uncounted. Kept off the public mux so profiling is never exposed on the
// serving port.
func (s *Server) DebugHandler() http.Handler {
	mux := pprofMux()
	for _, rt := range routes {
		if rt.guards&observe != 0 {
			mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, r *http.Request) { rt.handle(s, w, r) })
		}
	}
	return mux
}
