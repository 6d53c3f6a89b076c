package metrics

import (
	"net/http"
	"net/http/pprof"
)

// Handler serves the registry in Prometheus text exposition format.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// NewServeMux builds the operational endpoint set piftrun -http exposes:
//
//	/metrics       Prometheus text exposition of the registry
//	/metrics.json  the same registry as JSON (a Snapshot)
//	/healthz       liveness probe, always 200 "ok"
//	/debug/pprof/  the standard Go profiling endpoints
//
// pprof handlers are attached explicitly rather than through the package's
// DefaultServeMux side effect, so importing this package never mutates
// global state.
func NewServeMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(r))
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		r.WriteJSON(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
