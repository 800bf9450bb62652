package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugServer is the opt-in HTTP listener behind each daemon's
// -debug-addr flag. It serves:
//
//	/metrics       Prometheus text exposition of the registry
//	/metrics.json  JSON snapshot of the registry
//	/debug/pprof/  the standard net/http/pprof handlers
//
// The listener binds its own mux — nothing is registered on
// http.DefaultServeMux — so importing this package never widens the
// attack surface of a daemon that leaves the flag unset.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeDebug starts a debug listener on addr exposing reg. Pass the
// bound address ":0" to pick a free port (Addr reports the choice).
// A nil reg exposes the Default registry.
func ServeDebug(addr string, reg *Registry) (*DebugServer, error) {
	if reg == nil {
		reg = Default
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WriteProm(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	ds := &DebugServer{ln: ln, srv: srv}
	go srv.Serve(ln)
	return ds, nil
}

// Addr returns the listener's bound address.
func (s *DebugServer) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and its handlers.
func (s *DebugServer) Close() error { return s.srv.Close() }
