// Package debughttp serves a process's observability over HTTP. It is
// opt-in: commit, kv and the layers under them do not import net/http, so a
// process that never serves /debug links neither the HTTP nor the TLS stack.
//
// Everything it serves is process-global (the counter registry, the flight
// recorder, the active auditor, expvar and pprof), so one endpoint per
// process serves every peer and client in it.
package debughttp

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"

	"atomiccommit/internal/obs"
)

// Handler returns the /debug HTTP surface:
//
//	/debug/vars          the standard expvar handler (memstats, cmdline)
//	/debug/metrics       the counter registry as JSON
//	/debug/metrics.prom  the counter registry in Prometheus text exposition format
//	/debug/trace         the flight recorder ring as JSON; ?tx=ID filters
//	                     to one transaction's merged timeline
//	/debug/audit         the live NBAC auditor's summary;
//	                     {"enabled": false} when no auditor is installed
//	/debug/pprof/...     the standard pprof profiles
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, obs.M.Snapshot())
	})
	mux.HandleFunc("/debug/metrics.prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		obs.WritePrometheus(w, obs.M)
	})
	mux.HandleFunc("/debug/audit", func(w http.ResponseWriter, r *http.Request) {
		a := obs.ActiveAuditor()
		if a == nil {
			writeJSON(w, map[string]bool{"enabled": false})
			return
		}
		writeJSON(w, a.Summary())
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		if tx := r.URL.Query().Get("tx"); tx != "" {
			writeJSON(w, obs.Default.TxTimeline(tx))
			return
		}
		writeJSON(w, obs.Default.Snapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve listens on addr and serves Handler there until stop is called,
// returning the bound address (useful with ":0"). stop closes the listener
// and every open connection.
func Serve(addr string) (bound string, stop func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: Handler()}
	go srv.Serve(ln)
	return ln.Addr().String(), srv.Close, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
