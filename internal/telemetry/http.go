package telemetry

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler returns an http.Handler serving the registry in Prometheus
// text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteProm(w, r.Snapshot())
	})
}

// DebugServer is a daemon's observability endpoint: /metrics (Prometheus
// text), /debug/vars (expvar) and /debug/pprof (profiles) on one
// listener.
type DebugServer struct {
	Addr string // actual listen address (resolves ":0")
	srv  *http.Server
	ln   net.Listener
}

// Serve starts the debug endpoint on addr. It registers the usual debug
// routes on a private mux (not http.DefaultServeMux, so two daemons can
// share a process in tests).
func Serve(addr string, reg *Registry) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	d := &DebugServer{Addr: ln.Addr().String(), srv: srv, ln: ln}
	go func() { _ = srv.Serve(ln) }()
	return d, nil
}

// Close shuts the listener down.
func (d *DebugServer) Close() error { return d.srv.Close() }
