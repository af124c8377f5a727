package server

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
)

// The HTTP listener is the admin surface: counters and a forced
// checkpoint, curl-able beside the binary listener. It has no data
// plane — tables, writes and reads go through the binary protocol
// (package client), so the server has one row format at its edge.

// HTTPHandler returns the admin handler:
//
//	GET  /v1/stats       server + WAL counters (StatsSnapshot)
//	POST /v1/checkpoint  force a checkpoint
func (s *Server) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("POST /v1/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		if err := s.eng.Checkpoint(); err != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	return mux
}

// ServeHTTP serves the admin API on l until Shutdown. Register it on
// its own port beside the binary listener.
func (s *Server) ServeHTTP(l net.Listener) error {
	hs := &http.Server{Handler: s.HTTPHandler()}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return errors.New("server: already shut down")
	}
	s.httpSrvs = append(s.httpSrvs, hs)
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()
	if err := hs.Serve(l); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
