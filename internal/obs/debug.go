package obs

import (
	"encoding/json"
	"expvar"
	"net/http"
	"net/http/pprof"
)

// DebugHandler returns the /debug HTTP surface a live process (e.g. a
// commit.Peer via ServeDebug) exposes:
//
//	/debug/vars          the standard expvar handler (memstats, cmdline)
//	/debug/metrics       the counters of M as JSON
//	/debug/metrics.prom  the counters of M in Prometheus text exposition format
//	/debug/trace         the flight recorder ring as JSON; ?tx=ID filters
//	                     to one transaction's merged timeline
//	/debug/audit         the live NBAC auditor's summary (see Auditor);
//	                     {"enabled": false} when no auditor is installed
//	/debug/pprof/...     the standard pprof profiles
func DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, M.Snapshot())
	})
	mux.HandleFunc("/debug/metrics.prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", PrometheusContentType)
		WritePrometheus(w, M)
	})
	mux.HandleFunc("/debug/audit", func(w http.ResponseWriter, r *http.Request) {
		a := ActiveAuditor()
		if a == nil {
			writeJSON(w, map[string]bool{"enabled": false})
			return
		}
		writeJSON(w, a.Summary())
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		if tx := r.URL.Query().Get("tx"); tx != "" {
			writeJSON(w, Default.TxTimeline(tx))
			return
		}
		writeJSON(w, Default.Snapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
