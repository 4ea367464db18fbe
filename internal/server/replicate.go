package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/replication"
)

// Replication endpoints. A server backed by a durable statestore is
// always willing to act as a replication source: POST
// /replicate/subscribe upgrades the connection to the length-prefixed
// replication protocol and streams the store's tail (internal/replication
// owns the wire format). A server started as a follower additionally
// exposes the admin half: /replicate/follow retargets it at a new primary
// and /replicate/promote stops replication so the store can take writes —
// the router calls both during a failover. /replicate/status reports both
// sides' progress; the follower's last_seq against the primary's
// /statz store.WALSeq is the replication lag.

// ReplicateStatus is the GET /replicate/status response body.
type ReplicateStatus struct {
	Source   *replication.SourceStatus   `json:"source,omitempty"`
	Follower *replication.FollowerStatus `json:"follower,omitempty"`
}

// handleReplicateSubscribe upgrades the connection and serves one
// replication session until the peer or the server goes away.
func (s *Server) handleReplicateSubscribe(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.source == nil {
		writeErr(w, http.StatusConflict, "no durable statestore behind this server; nothing to replicate")
		return
	}
	if !strings.EqualFold(r.Header.Get("Upgrade"), replication.UpgradeProtocol) {
		writeErr(w, http.StatusBadRequest, "Upgrade: "+replication.UpgradeProtocol+" required")
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "connection cannot be hijacked")
		return
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "hijack: "+err.Error())
		return
	}
	fmt.Fprintf(rw.Writer, "HTTP/1.1 101 Switching Protocols\r\nUpgrade: %s\r\nConnection: Upgrade\r\n\r\n",
		replication.UpgradeProtocol)
	if err := rw.Writer.Flush(); err != nil {
		conn.Close()
		return
	}
	// Serve blocks for the session's lifetime in this handler goroutine
	// (the connection is hijacked, so the http.Server no longer tracks
	// it); Shutdown terminates it through source.Close.
	s.source.Serve(conn, rw)
}

// handleReplicateStatus reports replication progress for both roles.
func (s *Server) handleReplicateStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	var st ReplicateStatus
	if s.source != nil {
		ss := s.source.Status()
		st.Source = &ss
	}
	if s.opts.Follower != nil {
		fs := s.opts.Follower.Status()
		st.Follower = &fs
	}
	writeJSON(w, http.StatusOK, st)
}

// handleReplicateFollow points a follower-mode server at a new primary
// (the router's re-replication step after a promotion).
func (s *Server) handleReplicateFollow(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.opts.Follower == nil {
		writeErr(w, http.StatusConflict, "not a follower (start with -follow or -replica-of)")
		return
	}
	var req struct {
		Primary string `json:"primary"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	if req.Primary == "" {
		writeErr(w, http.StatusBadRequest, "primary URL required")
		return
	}
	s.opts.Follower.Retarget(req.Primary)
	writeJSON(w, http.StatusOK, map[string]string{"following": req.Primary})
}

// handleReplicatePromote permanently stops replication on a follower so
// its store can take writes as a primary. Once the response is written no
// replicated record will land anymore. A follower stopped inside a
// bootstrap answers 409: its store is partial and must not take the dead
// primary's keys.
func (s *Server) handleReplicatePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.opts.Follower == nil {
		writeErr(w, http.StatusConflict, "not a follower (start with -follow or -replica-of)")
		return
	}
	seq, err := s.opts.Follower.Promote()
	if err != nil {
		writeErr(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]int64{"last_seq": seq})
}
